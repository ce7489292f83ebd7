"""K shard processes behind the single-engine ``execute(batch)`` surface.

:class:`ProcessCluster` is a process transport under the one
:class:`~repro.shard.coordinator.ShardCoordinator`.  It spawns one OS
process per shard, creates the shared segments the workers compute in,
and hands the coordinator one :class:`ProcessShard` per worker.  The
coordinator then runs every exchange — split, shard-local run,
claim/commit and migration — exactly as it does over in-process
workers, except that the K workers compute concurrently in their own
shared-memory arenas instead of back to back.

A :class:`ProcessShard` is a :class:`~repro.shard.worker.ShardWorker`
built with the worker's identical layout and rebound onto the worker's
shared arena.  It inherits every read — cell addresses, chains, merged
state, fingerprints — zero-copy; reads happen only between exchanges,
when every worker is idle at its command queue.  Each call that
mutates the arena is one message to the owner process, so the arena
keeps its single writer:

* ``submit`` encodes the slice into the shared inbox (zero-copy rows)
  and posts a ``batch`` message; ``collect`` takes the ``done`` reply
  and folds the outbox rows back onto the front-end's authoritative
  request objects by rid;
* ``add_words`` sends the coordinator's cross-shard commit additions as
  one ``commit`` message;
* ``can_import_chain``, ``export_*`` and ``import_*`` each send one
  migration message (the capacity query goes to the owner, because
  only the owner knows its bump allocator's headroom).

Every reply must carry the expected tag and echo the command's
sequence number.  A reply is awaited in slices of at most
:data:`POLL_S` seconds, and the worker's exit code is checked between
slices, so a dead worker raises within one slice.  ``reply_timeout``
still bounds a worker that is alive but stops replying.

``shutdown`` is always safe to call (idempotent): it stops workers,
joins them, snapshots each arena into its shard (so merged state stays
inspectable post-mortem), and unlinks every shared segment.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import time
from typing import List, Optional, Sequence

from ..engine.spec import (
    MIGRATE_CELL,
    MIGRATE_CHAIN,
    EngineContext,
    machine_words,
)
from ..errors import ReproError
from ..runtime.executor import BatchResult
from ..runtime.queue import Request
from ..shard.coordinator import ShardCoordinator
from ..shard.worker import ShardWorker
from . import transport
from .proc_worker import worker_main
from .transport import (
    MSG_BATCH,
    MSG_COMMIT,
    MSG_DONE,
    MSG_ERROR,
    MSG_MIG_EXPORT,
    MSG_MIG_IMPORT,
    MSG_MIG_QUERY,
    MSG_READY,
    MSG_STOP,
    MSG_STOPPED,
    REPLY_TO,
    ROW_COLS,
    ShmBlock,
    WorkerConfig,
)

#: Default seconds to wait for a live worker's reply before giving up.
REPLY_TIMEOUT = 120.0
#: Longest single wait for a reply between checks that the worker lives.
POLL_S = 0.05


class ProcessShard(ShardWorker):
    """One shard whose arena is owned by a worker process (see the
    module docstring): reads are inherited, mutations are messages."""

    wall_clock = True

    def __init__(
        self, shard_id: int, *, proc, cmd, res, state, inbox, outbox,
        reply_timeout: float, **layout,
    ) -> None:
        super().__init__(shard_id, **layout)
        self.vm.mem.words = state.array
        self.proc = proc
        self.cmd = cmd
        self.res = res
        self.state = state
        self.inbox = inbox
        self.outbox = outbox
        self.reply_timeout = reply_timeout
        self._seq = 0  # the worker's ``ready`` answers sequence 0
        self._sub: Sequence[Request] = ()

    # -- messaging -----------------------------------------------------
    def _post(self, tag: str, *args) -> None:
        self._seq += 1
        self.cmd.put((tag, self._seq) + args)

    def _reply(self, tag: str, timeout: Optional[float] = None) -> tuple:
        """Payload of the next reply, which must be ``tag`` answering
        the last command; raises on worker errors, a dead worker, and
        timeouts."""
        msg = self._next(self.reply_timeout if timeout is None else timeout)
        if msg[0] == MSG_ERROR:
            raise ReproError(f"shard {self.shard_id} failed:\n{msg[2]}")
        if msg[0] != tag or msg[2] != self._seq:
            raise ReproError(
                f"shard {self.shard_id}: expected {tag!r} reply to "
                f"command {self._seq}, got {msg[0]!r} to {msg[2]}"
            )
        return msg[3:]

    def _next(self, timeout: float) -> tuple:
        deadline = time.monotonic() + timeout
        while True:
            # Read the exit code before waiting: a worker that was
            # already dead when a slice began has flushed all it sent.
            code = self.proc.exitcode
            left = max(0.0, deadline - time.monotonic())
            try:
                return self.res.get(timeout=min(POLL_S, left))
            except queue.Empty:
                pass
            if code is not None:
                raise ReproError(
                    f"shard {self.shard_id} worker died (exit code {code})"
                )
            if time.monotonic() >= deadline:
                raise ReproError(
                    f"shard {self.shard_id} did not reply within {timeout}s"
                )

    def _call(self, tag: str, *args) -> tuple:
        self._post(tag, *args)
        return self._reply(REPLY_TO[tag])

    # -- the mutating calls: one message each --------------------------
    def submit(self, batch: Sequence[Request]) -> None:
        self._post(MSG_BATCH, transport.encode_requests(batch, self.inbox.array))
        self._sub = batch

    def collect(self) -> BatchResult:
        n_done, n_carried, rounds, mult, exec_s = self._reply(MSG_DONE)
        result = BatchResult(
            rounds=rounds, multiplicity=mult, shard_exec_spans=(exec_s,)
        )
        out = self.outbox.array
        by_rid = {req.rid: req for req in self._sub}
        for i in range(n_done + n_carried):
            req = by_rid[int(out[i, transport.COL_RID])]
            transport.apply_row(req, out[i])
            (result.completed if i < n_done else result.carried).append(req)
        self._sub = ()
        return result

    def execute(self, batch: Sequence[Request]) -> BatchResult:
        self.submit(batch)
        return self.collect()

    def add_words(self, pairs) -> None:
        self._call(MSG_COMMIT, list(pairs))

    def can_import_chain(self, n_keys: int) -> bool:
        return self._call(MSG_MIG_QUERY, n_keys)[0]

    def export_chain(self, slot: int) -> List[int]:
        return self._call(MSG_MIG_EXPORT, MIGRATE_CHAIN, slot)[0]

    def import_chain(self, slot: int, keys: List[int]) -> None:
        self._call(MSG_MIG_IMPORT, MIGRATE_CHAIN, slot, keys)

    def export_cell(self, cell: int) -> int:
        return self._call(MSG_MIG_EXPORT, MIGRATE_CELL, cell)[0]

    def import_cell(self, cell: int, value: int) -> None:
        self._call(MSG_MIG_IMPORT, MIGRATE_CELL, cell, value)


class ProcessCluster:
    """K shard worker processes and their shared arenas, under one
    :class:`ShardCoordinator`."""

    def __init__(
        self,
        requests: Sequence[Request],
        *,
        shards: int,
        backend: str = "native",
        inbox_rows: int = 8192,
        reply_timeout: float = REPLY_TIMEOUT,
        **engine,
    ) -> None:
        self.shards = shards
        self.inbox_rows = inbox_rows
        self.reply_timeout = reply_timeout
        #: Shards spawned so far: shutdown releases them even when
        #: construction fails part way.
        self._spawned: List[ProcessShard] = []
        self._alive = True
        try:
            #: The one coordinator over the process shards: it runs every
            #: exchange, and its merged-state accessors and the scalar
            #: oracle read the live cluster state (after shutdown, the
            #: final snapshot).
            self.coordinator = ShardCoordinator.for_workload(
                requests, shards=shards, backend=backend,
                make_worker=self._spawn, **engine,
            )
            for shard in self._spawned:
                shard._reply(MSG_READY)
        except BaseException:
            self.shutdown()
            raise

    @classmethod
    def for_workload(
        cls,
        requests: Sequence[Request],
        *,
        inbox_rows: Optional[int] = None,
        **kwargs,
    ) -> "ProcessCluster":
        """A cluster sized for ``requests``: arenas as
        :meth:`ShardCoordinator.for_workload` sizes them (every other
        keyword goes there too), inboxes for the whole workload."""
        if inbox_rows is None:
            inbox_rows = max(4096, len(requests) + 1024)
        return cls(requests, inbox_rows=inbox_rows, **kwargs)

    def _spawn(self, shard_id: int, **layout) -> ProcessShard:
        """The coordinator's ``make_worker``: one shard's shared
        segments, its worker process, and the shard over them."""
        ctx = EngineContext(
            table_size=layout["table_size"],
            n_cells=layout["n_cells"],
            key_space=layout["key_space"],
        )
        words = machine_words(layout["capacities"], ctx)
        state = ShmBlock.create((words,))
        inbox = ShmBlock.create((self.inbox_rows, ROW_COLS))
        outbox = ShmBlock.create((self.inbox_rows, ROW_COLS))
        cfg = WorkerConfig(
            shard_id=shard_id,
            table_size=ctx.table_size,
            n_cells=ctx.n_cells,
            key_space=ctx.key_space,
            capacities=dict(layout["capacities"]),
            carryover=layout["carryover"],
            conflict_policy=layout["conflict_policy"],
            backend=layout["backend"].name,
            seed=layout["seed"],
            words=words,
            inbox_rows=self.inbox_rows,
            state_name=state.name,
            inbox_name=inbox.name,
            outbox_name=outbox.name,
        )
        mp_ctx = mp.get_context()
        cmd, res = mp_ctx.Queue(), mp_ctx.Queue()
        proc = mp_ctx.Process(
            target=worker_main,
            args=(cfg, cmd, res),
            name=f"repro-serve-shard-{shard_id}",
            daemon=True,
        )
        proc.start()
        shard = ProcessShard(
            shard_id, proc=proc, cmd=cmd, res=res, state=state,
            inbox=inbox, outbox=outbox, reply_timeout=self.reply_timeout,
            **layout,
        )
        self._spawned.append(shard)
        return shard

    # ------------------------------------------------------------------
    def execute(self, batch: Sequence[Request]) -> BatchResult:
        """One exchange, run by the coordinator over the worker
        processes; ``cycles`` stays 0.0 — this engine is measured in
        wall-clock seconds, not simulated cycles."""
        if batch and not self._alive:
            raise ReproError("cluster is shut down")
        return self.coordinator.execute(batch)

    # ------------------------------------------------------------------
    def shutdown(self, join_timeout: float = 10.0) -> None:
        """Stop workers, snapshot arenas into their shards, release
        every shared segment.  Idempotent; always leaves no segments
        behind."""
        if not self._alive:
            return
        self._alive = False
        stopping = [s for s in self._spawned if s.proc.is_alive()]
        for shard in stopping:
            shard._post(MSG_STOP)
        for shard in stopping:
            try:
                shard._reply(MSG_STOPPED, timeout=join_timeout)
            except ReproError:
                pass  # worker died or errored; join/kill below
        for shard in self._spawned:
            shard.proc.join(timeout=join_timeout)
            if shard.proc.is_alive():  # pragma: no cover - stuck worker
                shard.proc.kill()  # workers ignore SIGTERM
                shard.proc.join(timeout=join_timeout)
        for shard in self._spawned:
            # Keep merged state readable after the arenas are gone:
            # swap each shard onto a private copy of its final words.
            shard.vm.mem.words = shard.state.array.copy()
            for block in (shard.state, shard.inbox, shard.outbox):
                block.close()
                block.unlink()
            shard.cmd.close()
            shard.res.close()

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - backstop only
        try:
            self.shutdown()
        except Exception:
            pass
