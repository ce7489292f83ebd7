"""Pinned charged FOL rounds: every caller of the filtering round issues
the same instructions, audit hooks and rng draws.

The paper's method is one round — scatter unique labels, gather them
back, compare, keep the survivors (§3.2; §3.3 adds the scalar tail for
L-tuples).  This suite runs each caller of that round on a calibrated
``sim`` machine under fixed seeds and pins three things per case:

* a digest of the :class:`~repro.machine.trace.Tracer` event list (unit,
  category, cycles and lanes of every charged instruction, in order);
* the cycle counter's total;
* a digest of the machine's memory words, which depend on the
  ``"arbitrary"`` policy's rng draw order.

Each core case also runs with an :class:`~repro.audit.InvariantAuditor`
attached; its counters are pinned and the audited trace must equal the
unaudited one.  The stream cases run retry mode (``carryover=False``,
the paper's in-batch loop) and carryover mode over every kind,
including ``sort``, and also pin the simulated clock, the FOL round
total and the executor's state fingerprint.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.audit import InvariantAuditor
from repro.backend import get_backend
from repro.core.fol1 import fol1
from repro.core.fol_star import fol_star
from repro.core.labels import tuple_labels
from repro.machine.trace import Tracer
from repro.mem.arena import BumpAllocator
from repro.runtime import (
    FixedBatcher,
    StreamService,
    closed_loop_workload,
    fol_round,
    tuple_round,
)
from repro.sorting.address_calc import (
    AddressCalcWorkspace,
    vector_address_calc_sort,
)

KINDS = ("hash", "bst", "list", "xfer", "sort")
WORDS = 512
#: Audit counters pinned per core case, in ``AuditStats`` field order.
AUDIT_COUNTERS = (
    "scatters", "scatter_lanes", "conflicts", "rounds", "claims",
    "decompositions", "tuple_decompositions",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _machine(seed):
    return get_backend("sim").make_machine(WORDS, seed=seed)


def _observe(vm, body):
    """Run ``body()`` under a tracer; the pinned observables."""
    with Tracer(vm.counter) as tracer:
        body()
    events = [[e.unit, e.category, e.cycles, e.lanes] for e in tracer.events]
    return {
        "events": len(events),
        "trace": _sha(json.dumps(events).encode()),
        "total": vm.counter.total,
        "words": _sha(vm.mem.words.tobytes()),
    }


def _shared(seed, n, hi):
    """``n`` addresses in ``[1, hi)``: heavy sharing for small ``hi``."""
    return np.random.default_rng(seed).integers(1, hi, n).astype(np.int64)


def _tuples(seed, n, hi, arity, dups=0):
    """``arity`` address vectors whose tuples are internally distinct,
    except the first ``dups`` tuples, which repeat their first cell."""
    rng = np.random.default_rng(seed)
    first = rng.integers(1, hi, n).astype(np.int64)
    step = rng.integers(1, (hi - 1) // arity, n)
    vs = [(first - 1 + k * step) % (hi - 1) + 1 for k in range(arity)]
    for v in vs[1:]:
        v[:dups] = first[:dups]
    return vs


# ----------------------------------------------------------------------
# the core cases: body(vm) issues the round(s) under test
# ----------------------------------------------------------------------
def _fol1_default(vm):
    fol1(vm, _shared(1, 64, 24))


def _fol1_work_offset(vm):
    fol1(vm, _shared(2, 64, 24), work_offset=200)


def _fol1_stop_after(vm):
    fol1(vm, _shared(3, 64, 24), stop_after=1)


def _fol1_on_set_scatter(vm):
    addrs = _shared(4, 64, 24)

    def on_set(s, j):
        # A conflicting "arbitrary" scatter between rounds: its winners
        # depend on the rng draws the rounds themselves made.
        vm.scatter(vm.add(addrs[s] % 5, 300), vm.iota(s.size, start=100 * j),
                   policy="arbitrary")

    fol1(vm, addrs, on_set=on_set)


def _fol_star_l2(vm):
    fol_star(vm, _tuples(5, 48, 40, 2))


def _fol_star_l3(vm):
    fol_star(vm, _tuples(6, 48, 60, 3), work_offset=100)


def _fol_star_isolate(vm):
    fol_star(vm, _tuples(7, 48, 40, 2, dups=3), internal="isolate")


def _fol_round(vm):
    addrs = _shared(8, 64, 24)
    fol_round(vm, addrs, vm.iota(addrs.size), work_offset=200)


def _tuple_round(vm):
    vs = _tuples(9, 48, 40, 2)
    tuple_round(vm, vs, tuple_labels(vm, 48, 2))


def _address_calc_sort(vm):
    ws = AddressCalcWorkspace(BumpAllocator(vm.mem), 64)
    keys = np.random.default_rng(10).integers(0, 1000, 64)
    out = vector_address_calc_sort(vm, ws, keys, vmax=1000)
    assert out.tolist() == sorted(keys.tolist())


CORE = {
    "fol1_default": _fol1_default,
    "fol1_work_offset": _fol1_work_offset,
    "fol1_stop_after": _fol1_stop_after,
    "fol1_on_set_scatter": _fol1_on_set_scatter,
    "fol_star_l2": _fol_star_l2,
    "fol_star_l3": _fol_star_l3,
    "fol_star_isolate": _fol_star_isolate,
    "fol_round": _fol_round,
    "tuple_round": _tuple_round,
    "address_calc_sort": _address_calc_sort,
}


def observe_core(name):
    """(observables, audited observables, audit counters) of one case."""
    seed = sorted(CORE).index(name)
    vm = _machine(seed)
    plain = _observe(vm, lambda: CORE[name](vm))
    vm = _machine(seed)
    auditor = InvariantAuditor()
    vm.attach_audit(auditor)
    audited = _observe(vm, lambda: CORE[name](vm))
    return plain, audited, auditor.stats.as_dict()


def observe_stream(carryover):
    rng = np.random.default_rng(123)
    reqs = closed_loop_workload(
        rng, 300, kinds=KINDS, skew=1.1, key_space=512, n_cells=32
    )
    svc = StreamService.for_workload(
        reqs, batcher=FixedBatcher(batch_size=64),
        table_size=127, n_cells=32, key_space=512, carryover=carryover,
    )
    metrics = {}
    out = _observe(svc.executor.vm, lambda: metrics.update(m=svc.run(reqs)))
    out.update(
        now=round(svc.now, 6),
        rounds=metrics["m"].total_rounds,
        fingerprint=svc.executor.state_fingerprint(),
    )
    return out


# ----------------------------------------------------------------------
# pinned values
# ----------------------------------------------------------------------
CORE_PINS = {
    "address_calc_sort": {
        "events": 188,
        "trace": (
            "3390749430fafa63687cc9bacdd6735b92d0088fd59ec0c76ae68ce1d025d3df"
        ),
        "total": 12621.099999999991,
        "words": (
            "4450308045180d5f586419e6d47dddc281806024218d85a20cc60c24519096a6"
        ),
        "audit": [19, 184, 14, 0, 0, 0, 0],
        "conflict_fanout": {"2": 11, "3": 3},
    },
    "fol1_default": {
        "events": 51,
        "trace": (
            "ee81d26258e227de293bafba91427a06afc074aac1b6e993aca7313c60a1fbc2"
        ),
        "total": 3666.4,
        "words": (
            "dc93fa354c8df086ad6debce089c9a9b3252c428e794cd40d0239e2ffe06af06"
        ),
        "audit": [7, 153, 43, 0, 0, 1, 0],
        "conflict_fanout": {"2": 17, "3": 14, "4": 7, "5": 3, "6": 1, "7": 1},
    },
    "fol1_on_set_scatter": {
        "events": 62,
        "trace": (
            "46e25d3508dba41baca5a34a21a6d9a9c2f36a4c4aa5fa2dcce3f50f3e713b23"
        ),
        "total": 4554.800000000001,
        "words": (
            "7d4fd6d752e6201b28642f362f86c94cd44c3ce14d8976fbbf07a13c4ded5660"
        ),
        "audit": [12, 219, 60, 0, 0, 1, 0],
        "conflict_fanout": {"2": 24, "3": 14, "4": 13, "5": 7, "6": 2},
    },
    "fol1_stop_after": {
        "events": 6,
        "trace": (
            "97d34ad3b92f355b0b4a286606b85559533b728c45988d22dc5f6f28156c8eef"
        ),
        "total": 718.4,
        "words": (
            "149c37ec9c440ab9827f90cd140541e9cc29c47d8483e04b5b1d57c985e8f300"
        ),
        "audit": [1, 64, 21, 0, 0, 1, 0],
        "conflict_fanout": {"2": 5, "3": 12, "4": 3, "5": 1},
    },
    "fol1_work_offset": {
        "events": 45,
        "trace": (
            "09a2c7d3edb82afbaec3d5eb9520645f5b4bc851bd490efc6ca516b57e4c9c99"
        ),
        "total": 3333.6,
        "words": (
            "15f8fbd6166d9d06539655a5c9b6b95201c1a0b6273a78e5f0226c2d99542e7e"
        ),
        "audit": [6, 146, 41, 0, 0, 1, 0],
        "conflict_fanout": {"2": 17, "3": 12, "4": 8, "5": 3, "6": 1},
    },
    "fol_round": {
        "events": 9,
        "trace": (
            "0432f367ec5574b272a3a6bf089ad4af7d5017def2f229997f104646266bad6a"
        ),
        "total": 981.6,
        "words": (
            "00150fbcd7564c1e8166c7c7b996cd922d2a108980c6c39385892c37cf9ec185"
        ),
        "audit": [1, 64, 15, 1, 0, 0, 0],
        "conflict_fanout": {"2": 4, "3": 1, "4": 5, "5": 3, "6": 2},
    },
    "fol_star_isolate": {
        "events": 174,
        "trace": (
            "88dce72d2c4434b9223daeda59b475a10357507437c9b06a1cd21586b4b8e9dc"
        ),
        "total": 12025.599999999999,
        "words": (
            "06bf455c1d95d0942827b8206f689a8e5d14a8e300e07877e06516f99738ba6e"
        ),
        "audit": [26, 462, 113, 0, 0, 0, 1],
        "conflict_fanout": {"2": 84, "3": 29},
    },
    "fol_star_l2": {
        "events": 224,
        "trace": (
            "c8f9c0fff9609c66bd298daf7dd1292c89b4d74fe5a3a28159944f74071bbaf6"
        ),
        "total": 15532.0,
        "words": (
            "af4ce29ab662070ca12a3537ac3cf1fb9abbf6121738431044618321c2143640"
        ),
        "audit": [34, 622, 147, 0, 0, 0, 1],
        "conflict_fanout": {"2": 117, "3": 25, "4": 5},
    },
    "fol_star_l3": {
        "events": 403,
        "trace": (
            "c41bafc19d1bd8eff50abbff4e703b55f5bf87858187257cf5caece1fc538934"
        ),
        "total": 29947.59999999999,
        "words": (
            "fb30b60d1ff3047488c561a2925f94b092d22ac15c78cb72ad56e99b674c8e99"
        ),
        "audit": [66, 1491, 309, 0, 0, 0, 1],
        "conflict_fanout": {"2": 276, "3": 29, "4": 4},
    },
    "tuple_round": {
        "events": 15,
        "trace": (
            "fa7f5e46c4103bbe095c933a067bc1b35ae4e6e1fdd3ad1e2ae4119e656515e5"
        ),
        "total": 1417.9999999999998,
        "words": (
            "637ca907f268b54e8d014839eb2e9187d45d06499ca9770fc45f8ca5e46b5e5c"
        ),
        "audit": [2, 94, 27, 1, 0, 0, 0],
        "conflict_fanout": {"2": 19, "3": 5, "4": 3},
    },
}

STREAM_PINS = {
    "retry": {
        "events": 2761,
        "trace": (
            "e32c72a2189e387b4692390b033b4968c2fe544fc5f532d370fc8a99236622d6"
        ),
        "total": 163449.89999999967,
        "words": (
            "db3c17488628ff67258b0792f240d874af866a93a820c519d31d2c472a6074f9"
        ),
        "now": 163211.9,
        "rounds": 83,
        "fingerprint": (
            "db3c17488628ff67258b0792f240d874af866a93a820c519d31d2c472a6074f9"
        ),
    },
    "carryover": {
        "events": 2827,
        "trace": (
            "a37ba327366dfdef52a9b2f1d0841fe4aacf9d7e7bd8687037ab5bc45d12f3ad"
        ),
        "total": 170734.2999999981,
        "words": (
            "21387fcae88d15dd2a25d08f7fe5d395316079e2f66b1370d32ff98b58aae450"
        ),
        "now": 170496.3,
        "rounds": 83,
        "fingerprint": (
            "21387fcae88d15dd2a25d08f7fe5d395316079e2f66b1370d32ff98b58aae450"
        ),
    },
}


class TestChargedRoundPins:
    @pytest.mark.parametrize("name", sorted(CORE))
    def test_core_round(self, name):
        plain, audited, stats = observe_core(name)
        assert audited == plain  # auditing charges nothing
        counters = [stats.pop(key) for key in AUDIT_COUNTERS]
        assert {**plain, "audit": counters, **stats} == CORE_PINS[name]

    @pytest.mark.parametrize("mode", ["retry", "carryover"])
    def test_stream(self, mode):
        assert observe_stream(mode == "carryover") == STREAM_PINS[mode]
