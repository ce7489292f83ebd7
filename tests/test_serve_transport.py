"""Wire-format tests for the serve transport: row codec + shm blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.spec import EngineContext, registered_kinds, specs
from repro.errors import ReproError
from repro.runtime.queue import Request
from repro.serve import transport
from repro.serve.transport import ROW_COLS, ShmBlock


def _one_of_each_kind():
    """A representative request per registered kind (via the specs'
    own request factories, so arity-2 kinds get valid second keys)."""
    ctx = EngineContext(table_size=127, n_cells=16, key_space=256)
    return [
        spec.make_request(rid, 11 + rid, 3, 2, 0.5 * rid, ctx)
        for rid, spec in enumerate(specs())
    ]


class TestRowCodec:
    def test_roundtrip_every_kind(self):
        reqs = _one_of_each_kind()
        # dirty the mutable execution-state fields too
        for i, r in enumerate(reqs):
            r.attempts = i
            r.group = 1000 + i
        rows = np.zeros((len(reqs) + 2, ROW_COLS), dtype=np.int64)
        n = transport.encode_requests(reqs, rows)
        assert n == len(reqs)
        back = transport.decode_requests(rows, n)
        for a, b in zip(reqs, back):
            assert (a.rid, a.kind, a.key, a.key2, a.delta) == (
                b.rid, b.kind, b.key, b.key2, b.delta
            )
            assert (a.attempts, a.group) == (b.attempts, b.group)

    def test_kind_codes_follow_registry_order(self):
        assert transport.kind_codes() == registered_kinds()

    def test_apply_row_patches_only_mutable_state(self):
        reqs = _one_of_each_kind()
        rows = np.zeros((len(reqs), ROW_COLS), dtype=np.int64)
        transport.encode_requests(reqs, rows)
        rows[0][transport.COL_ATTEMPTS] = 7
        rows[0][transport.COL_GROUP] = 42
        req = reqs[0]
        arrival = req.arrival
        transport.apply_row(req, rows[0])
        assert (req.attempts, req.group) == (7, 42)
        assert req.arrival == arrival  # timestamps never cross the wire

    def test_overflow_is_a_hard_error(self):
        reqs = [Request(rid=i, kind="hash", key=i) for i in range(4)]
        rows = np.zeros((2, ROW_COLS), dtype=np.int64)
        with pytest.raises(ReproError, match="inbox"):
            transport.encode_requests(reqs, rows)


class TestShmBlock:
    def test_create_attach_roundtrip_and_unlink(self):
        block = ShmBlock.create((8, ROW_COLS))
        block.array[3, 4] = 77
        peer = ShmBlock.attach(block.name, (8, ROW_COLS))
        assert peer.array[3, 4] == 77
        peer.array[0, 0] = -5  # writes are shared both ways
        assert block.array[0, 0] == -5
        peer.close()
        block.close()
        block.unlink()
        block.unlink()  # idempotent

    def test_attacher_never_unlinks(self):
        block = ShmBlock.create((4,))
        peer = ShmBlock.attach(block.name, (4,))
        peer.close()
        peer.unlink()  # non-owner: must be a no-op
        again = ShmBlock.attach(block.name, (4,))  # still alive
        again.close()
        block.close()
        block.unlink()
