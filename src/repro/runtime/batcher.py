"""Batch-sizing policies for the streaming micro-batch loop.

The loop (:class:`~repro.runtime.loop.BatchLoop`) asks its policy one
question each iteration: *how many lanes should the next micro-batch
carry* (:meth:`BatchPolicy.target_size`).  When to launch a batch that
is not yet full is the loop's own release rule, bounded by its
``linger`` (``--deadline`` cycles on ``repro stream``, ``--linger-ms``
on ``repro serve``).  After every executed batch the policy gets the
batch's observed statistics back through :meth:`BatchPolicy.observe`.

Two policies:

* :class:`FixedBatcher` — a constant target of ``batch_size`` lanes.
* :class:`AdaptiveBatcher` — grows/shrinks the target from the observed
  pointer multiplicity M of recent batches.  FOL's round count equals M
  (Theorem 5), and every round pays the fixed vector start-up for its
  whole instruction sequence, so M is *the* cost driver: too much
  sharing per batch burns rounds, too little wastes start-up
  amortisation.  The policy holds an EMA of M inside a target band.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ReproError

#: Policy names accepted by :func:`make_batcher` and the CLI.
BATCH_POLICIES = ("fixed", "adaptive")


class BatchPolicy:
    """Interface shared by all batch-sizing policies."""

    name = "base"

    def target_size(self) -> int:
        """Desired lane count for the next micro-batch."""
        raise NotImplementedError

    def observe(
        self,
        batch_size: int,
        rounds: int,
        multiplicity: int,
        filtered: int,
        carried: int = 0,
    ) -> None:
        """Feedback after a batch executes (``carried`` = how many of
        the batch's lanes were recirculated carryover, not fresh
        admissions); default policies ignore it."""


class FixedBatcher(BatchPolicy):
    """Constant target size."""

    name = "fixed"

    def __init__(self, batch_size: int = 256) -> None:
        if batch_size <= 0:
            raise ReproError(f"batch size must be positive, got {batch_size}")
        self.batch_size = batch_size

    def target_size(self) -> int:
        return self.batch_size


class AdaptiveBatcher(BatchPolicy):
    """Multiplicity-tracking batch sizing.

    Keeps an exponential moving average of each batch's observed FOL
    round count — in retry mode that *is* the pointer multiplicity M
    (Theorem 5); under carryover each batch issues a single round and
    the EMA sits below the band, which is equally informative.  When the
    EMA leaves the ``[m_low, m_high]`` band the target size is scaled
    geometrically: high sharing -> halve (fewer duplicates per batch,
    fewer filtering rounds), low sharing -> grow (longer vectors, better
    start-up amortisation; under carryover this drives the size toward
    ``max_size``, which is optimal because recirculation makes the
    per-batch round cost flat).
    """

    name = "adaptive"

    def __init__(
        self,
        initial: int = 256,
        min_size: int = 16,
        max_size: int = 2048,
        m_low: float = 3.0,
        m_high: float = 8.0,
        grow: float = 1.5,
        shrink: float = 0.5,
        smoothing: float = 0.5,
    ) -> None:
        if not (0 < min_size <= initial <= max_size):
            raise ReproError(
                f"need 0 < min_size <= initial <= max_size, "
                f"got {min_size}/{initial}/{max_size}"
            )
        if m_low >= m_high:
            raise ReproError(f"m_low must be below m_high, got {m_low}/{m_high}")
        if not 0 < smoothing <= 1:
            raise ReproError(f"smoothing must be in (0, 1], got {smoothing}")
        if grow <= 1:
            raise ReproError(
                f"grow factor must exceed 1, got {grow} "
                "(a non-growing policy would pin the size forever)"
            )
        if not 0 < shrink < 1:
            raise ReproError(
                f"shrink factor must be in (0, 1), got {shrink} "
                "(>= 1 could never reduce the size, <= 0 would zero it)"
            )
        self._size = initial
        self.min_size = min_size
        self.max_size = max_size
        self.m_low = m_low
        self.m_high = m_high
        self.grow = grow
        self.shrink = shrink
        self.smoothing = smoothing
        self.m_ema: Optional[float] = None

    def target_size(self) -> int:
        return self._size

    def observe(
        self,
        batch_size: int,
        rounds: int,
        multiplicity: int,
        filtered: int,
        carried: int = 0,
    ) -> None:
        # Rounds, not raw multiplicity: under carryover the recirculating
        # lanes keep M high even though each batch only pays one round,
        # and shrinking on that signal would destroy start-up
        # amortisation.  In retry mode rounds == M exactly.
        #
        # Batches made up purely of carried lanes say nothing about the
        # arrival stream's sharing (they are the *tail* of earlier
        # conflicts draining), so they are kept out of the EMA — feeding
        # them in made a drain phase of N conflicting lanes drive the
        # target to min_size just as fresh traffic resumed.
        if batch_size > 0 and carried >= batch_size:
            return
        m = float(max(rounds, 1))
        if self.m_ema is None:
            self.m_ema = m
        else:
            self.m_ema = self.smoothing * m + (1.0 - self.smoothing) * self.m_ema
        if self.m_ema > self.m_high:
            self._size = max(self.min_size, int(self._size * self.shrink))
        elif self.m_ema < self.m_low:
            self._size = min(self.max_size, max(self._size + 1, int(self._size * self.grow)))


def make_batcher(policy: str, **kwargs) -> BatchPolicy:
    """Construct a policy by name (the CLI/bench entry point)."""
    if policy == "fixed":
        return FixedBatcher(**kwargs)
    if policy == "adaptive":
        return AdaptiveBatcher(**kwargs)
    raise ReproError(
        f"unknown batch policy {policy!r}; expected one of {BATCH_POLICIES}"
    )
