"""The shard worker process: one OS process owning one shard's arena.

``worker_main`` is the child entry point (top-level so it pickles under
the ``spawn`` start method).  It builds a
:class:`~repro.shard.worker.ShardWorker` with the exact layout the
front-end's :class:`~repro.serve.cluster.ProcessShard` was built with —
same table size, capacities and allocation order, hence
identical structural addresses (the invariant everything in
:mod:`repro.shard` rests on) — then moves the machine's words into the
shared segment the front-end created:

1. build the worker normally (its memory is a private ndarray);
2. copy the freshly initialised words into the shared segment;
3. rebind ``mem.words`` to the shared view.

Every executor access goes through the ``words`` attribute (including
the native backend's fused round, which re-fetches it per round), so
after the rebind the worker computes *in place* in shared memory: the
front-end's process shard, built with the same layout over the same
segment, reads end states, chains and cell values with zero copies and
zero messages.

The control loop is lockstep and message-driven: each command from
the front-end's process shard (:class:`~repro.serve.cluster.ProcessShard`)
is one call on this worker — run a batch, add commit words, a
migration query/export/import, stop — answered by one reply that
echoes the command's sequence number.  Only this process ever writes
its arena: cross-shard commits arrive as ``(addr, delta)`` word
additions that the coordinator computed from the claim phase, and
migrated state arrives as the payload the coordinator relayed from the
source shard.

Workers ignore SIGINT/SIGTERM; shutdown is always a ``stop`` message
from the front-end (so Ctrl-C drains cleanly instead of killing
children mid-batch).
"""

from __future__ import annotations

import os
import signal
import time
import traceback

from ..engine.spec import MIGRATE_CHAIN
from . import transport
from .transport import (
    MSG_BATCH,
    MSG_COMMIT,
    MSG_ERROR,
    MSG_MIG_EXPORT,
    MSG_MIG_IMPORT,
    MSG_MIG_QUERY,
    MSG_READY,
    MSG_STOP,
    REPLY_TO,
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

        res_q.put((MSG_READY, cfg.shard_id, 0, os.getpid()))
        while True:
            tag, seq, *args = cmd_q.get()
            payload = ()
            if tag == MSG_BATCH:
                batch = transport.decode_requests(inbox.array, args[0])
                t0 = time.perf_counter()
                result = worker.execute(batch)
                exec_s = time.perf_counter() - t0
                transport.encode_requests(
                    result.completed + result.carried, outbox.array
                )
                payload = (
                    len(result.completed),
                    len(result.carried),
                    result.rounds,
                    result.multiplicity,
                    exec_s,
                )
            elif tag == MSG_COMMIT:
                worker.add_words(args[0])
            elif tag == MSG_MIG_QUERY:
                # Capacity must be answered here: the front-end's shard
                # never allocates (allocations happen in this process),
                # so only this side knows the bump allocator's headroom.
                payload = (bool(worker.can_import_chain(args[0])),)
            elif tag == MSG_MIG_EXPORT:
                style, index = args
                chain = style == MIGRATE_CHAIN
                export = worker.export_chain if chain else worker.export_cell
                payload = (export(index),)
            elif tag == MSG_MIG_IMPORT:
                style, index, moved = args
                chain = style == MIGRATE_CHAIN
                (worker.import_chain if chain else worker.import_cell)(
                    index, moved
                )
            elif tag == MSG_STOP:
                payload = (worker.batches, worker.lanes)
            res_q.put((REPLY_TO[tag], cfg.shard_id, seq) + payload)
            if tag == MSG_STOP:
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
