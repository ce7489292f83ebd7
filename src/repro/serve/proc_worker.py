"""The shard worker process: one OS process owning one shard's arena.

``worker_main`` is the child entry point (top-level so it pickles under
the ``spawn`` start method).  It rebuilds the exact
:class:`~repro.shard.worker.ShardWorker` the front-end's mirror was
built with — same table size, capacities and allocation order, hence
identical structural addresses (the invariant everything in
:mod:`repro.shard` rests on) — then moves the machine's words into the
shared segment the front-end created:

1. build the worker normally (its memory is a private ndarray);
2. copy the freshly initialised words into the shared segment;
3. rebind ``mem.words`` to the shared view.

Every executor access goes through the ``words`` attribute (including
the native backend's fused round, which re-fetches it per round), so
after the rebind the worker computes *in place* in shared memory: the
front-end's mirror reads end states and cross-shard cell values with
zero copies and zero messages.

The control loop is lockstep message-driven — run a batch, apply a
commit, stop — and the worker only touches its own arena.  Cross-shard
commits arrive as explicit ``(addr, value)`` word writes from the
front-end's claim/commit resolution, preserving the single-writer
discipline: nobody but the owner process ever writes a shard's arena.

Workers ignore SIGINT/SIGTERM; shutdown is always a ``stop`` message
from the front-end (so Ctrl-C drains cleanly instead of killing
children mid-batch).
"""

from __future__ import annotations

import os
import signal
import time
import traceback

from . import transport
from .transport import (
    MSG_BATCH,
    MSG_COMMIT,
    MSG_COMMITTED,
    MSG_DONE,
    MSG_ERROR,
    MSG_MIG_DONE,
    MSG_MIG_EXPORT,
    MSG_MIG_IMPORT,
    MSG_MIG_QUERY,
    MSG_MIG_ROOM,
    MSG_MIG_STATE,
    MSG_READY,
    MSG_STOP,
    MSG_STOPPED,
    ROW_COLS,
    ShmBlock,
    WorkerConfig,
)


def worker_main(cfg: WorkerConfig, cmd_q, res_q) -> None:
    """Child process entry point (see module docstring)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    blocks = []
    try:
        from ..shard.worker import ShardWorker

        worker = ShardWorker(
            cfg.shard_id,
            table_size=cfg.table_size,
            n_cells=cfg.n_cells,
            key_space=cfg.key_space,
            capacities=cfg.capacities,
            carryover=cfg.carryover,
            conflict_policy=cfg.conflict_policy,
            backend=cfg.backend,
            seed=cfg.seed,
        )
        mem = worker.vm.mem
        if mem.words.size != cfg.words:
            raise RuntimeError(
                f"shard {cfg.shard_id}: layout mismatch — worker built "
                f"{mem.words.size} words, front-end allocated {cfg.words}"
            )
        state = ShmBlock.attach(cfg.state_name, (cfg.words,))
        inbox = ShmBlock.attach(cfg.inbox_name, (cfg.inbox_rows, ROW_COLS))
        outbox = ShmBlock.attach(cfg.outbox_name, (cfg.inbox_rows, ROW_COLS))
        blocks = [state, inbox, outbox]
        state.array[:] = mem.words  # publish the initial layout ...
        mem.words = state.array  # ... then compute in shared memory

        res_q.put((MSG_READY, cfg.shard_id, os.getpid()))
        while True:
            msg = cmd_q.get()
            tag = msg[0]
            if tag == MSG_BATCH:
                _, batch_id, n = msg
                batch = transport.decode_requests(inbox.array, n)
                t0 = time.perf_counter()
                result = worker.execute(batch)
                exec_s = time.perf_counter() - t0
                n_done = transport.encode_requests(
                    result.completed + result.carried, outbox.array
                )
                assert n_done == len(result.completed) + len(result.carried)
                res_q.put(
                    (
                        MSG_DONE,
                        cfg.shard_id,
                        batch_id,
                        len(result.completed),
                        len(result.carried),
                        result.rounds,
                        result.multiplicity,
                        exec_s,
                    )
                )
            elif tag == MSG_COMMIT:
                _, batch_id, writes = msg
                for addr, value in writes:
                    mem.words[int(addr)] = int(value)
                res_q.put((MSG_COMMITTED, cfg.shard_id, batch_id))
            elif tag == MSG_MIG_QUERY:
                # Capacity must be answered here: the front-end mirror's
                # bump allocator never advances (allocations happen in
                # this process), so only this side knows the headroom.
                _, xfer_id, n_keys = msg
                res_q.put(
                    (
                        MSG_MIG_ROOM,
                        cfg.shard_id,
                        xfer_id,
                        bool(worker.can_import_chain(int(n_keys))),
                    )
                )
            elif tag == MSG_MIG_EXPORT:
                from ..engine.spec import MIGRATE_CHAIN

                _, xfer_id, style, index = msg
                if style == MIGRATE_CHAIN:
                    payload = worker.executor.table.chain(int(index))
                    worker.export_chain(int(index))
                else:  # MIGRATE_CELL
                    payload = worker.export_cell(int(index))
                res_q.put((MSG_MIG_STATE, cfg.shard_id, xfer_id, payload))
            elif tag == MSG_MIG_IMPORT:
                from ..engine.spec import MIGRATE_CHAIN

                _, xfer_id, style, index, payload = msg
                if style == MIGRATE_CHAIN:
                    worker.import_chain(int(index), payload)
                else:  # MIGRATE_CELL
                    worker.import_cell(int(index), int(payload))
                res_q.put((MSG_MIG_DONE, cfg.shard_id, xfer_id))
            elif tag == MSG_STOP:
                res_q.put(
                    (MSG_STOPPED, cfg.shard_id, worker.batches, worker.lanes)
                )
                break
    except BaseException:  # report, don't die silently
        res_q.put((MSG_ERROR, cfg.shard_id, traceback.format_exc()))
    finally:
        # Rebind off the shared view before dropping the mappings, so
        # close() never trips over an exported buffer.
        try:
            if blocks:
                worker.vm.mem.words = blocks[0].array.copy()
            for block in blocks:
                block.close()
        except Exception:  # pragma: no cover - exit-path best effort
            pass
