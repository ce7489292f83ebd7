"""The calibrated-cycles backend: FOL plans on the S-810 cycle model.

This is the pre-backend execution path behind the
:class:`~repro.backend.Backend` interface.  It only supplies the
charged machine; the inherited :meth:`~repro.backend.Backend.run_fol`
issues the *identical sequence of charged vector instructions* (and
identical ``"arbitrary"``-policy rng draws) the kinds used to issue
inline.  That equivalence is load-bearing: the golden cycle-parity
tests (``tests/test_engine_registry.py``) pin exact simulated cycle
totals and end-state hashes, and this backend must never change either.
"""

from __future__ import annotations

from . import Backend, register_backend


@register_backend
class SimBackend(Backend):
    """Calibrated S-810 cycle simulation (the reference backend)."""

    name = "sim"
    calibrated = True

    def make_machine(self, words: int, *, cost_model=None, seed: int = 0):
        from ..machine.vm import make_machine

        return make_machine(words, cost_model=cost_model, seed=seed)
