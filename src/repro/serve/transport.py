"""Zero-copy transport between the serve front-end and shard processes.

Two channels connect the front-end to each worker process:

* **shared memory** (:class:`ShmBlock`) for the bulk payloads — the
  worker's entire machine state (its arena of int64 words) plus an
  *inbox* and *outbox* of fixed-width request rows.  Batches are
  written into the inbox as a dense ``(rows, RO_COLS)`` int64 matrix
  and read back from the outbox without serialising a single Python
  object;
* **message queues** (``multiprocessing.Queue``) for the small control
  plane — "run inbox rows 0..n", "add these commit words", the
  migration handoff, "stop" — mirroring the claim/commit RTTs the
  simulated coordinator charges explicitly (see docs/sharding.md §3).

The request row codec is the wire format: one request is the seven int64
columns below.  ``kind`` travels as its index into
:func:`~repro.engine.spec.registered_kinds` — both sides import the
same registry, so the mapping is identical in every process and no
strings cross the boundary.  Only the *mutable* execution-state fields
come back (a completed or carried row is applied onto the front-end's
authoritative :class:`~repro.runtime.queue.Request` object by rid);
wall-clock timestamps never leave the front-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..runtime.queue import Request

#: Request-row columns (one request = one int64 row of these fields).
COL_RID = 0
COL_KIND = 1
COL_KEY = 2
COL_KEY2 = 3
COL_DELTA = 4
COL_ATTEMPTS = 5
COL_GROUP = 6
ROW_COLS = 7

#: Control-plane message tags (front-end -> worker).
MSG_BATCH = "batch"
MSG_COMMIT = "commit"
MSG_STOP = "stop"
#: Live-migration handoff tags (front-end -> worker).  The coordinator
#: runs each index transfer as query-capacity (destination), export
#: (source), import (destination); only the owner processes ever write
#: the state, the parent just relays it.
MSG_MIG_QUERY = "mig_query"
MSG_MIG_EXPORT = "mig_export"
MSG_MIG_IMPORT = "mig_import"
#: Control-plane message tags (worker -> front-end).
MSG_READY = "ready"
MSG_DONE = "done"
MSG_COMMITTED = "committed"
MSG_STOPPED = "stopped"
MSG_ERROR = "error"
#: Live-migration reply tags (worker -> front-end).
MSG_MIG_ROOM = "mig_room"
MSG_MIG_STATE = "mig_state"
MSG_MIG_DONE = "mig_done"
#: The reply each command gets.  Every command is ``(tag, seq, *args)``
#: and every reply ``(tag, shard_id, seq, *payload)``, echoing the
#: command's sequence number (``ready`` answers sequence 0); an
#: ``error`` reply is ``(tag, shard_id, traceback)``.
REPLY_TO = {
    MSG_BATCH: MSG_DONE,
    MSG_COMMIT: MSG_COMMITTED,
    MSG_MIG_QUERY: MSG_MIG_ROOM,
    MSG_MIG_EXPORT: MSG_MIG_STATE,
    MSG_MIG_IMPORT: MSG_MIG_DONE,
    MSG_STOP: MSG_STOPPED,
}

_WORD = np.int64


def kind_codes() -> Tuple[str, ...]:
    """The kind-name table both codec ends index into (registration
    order; identical in every process importing the registry)."""
    from ..engine.spec import registered_kinds

    return registered_kinds()


def encode_requests(reqs: Sequence[Request], rows: np.ndarray) -> int:
    """Write ``reqs`` into the leading rows of ``rows`` (an inbox/outbox
    view); returns the row count.  Raises when the batch outgrows the
    shared segment — sizing is the cluster's job, this is the seatbelt."""
    if len(reqs) > rows.shape[0]:
        raise ReproError(
            f"batch of {len(reqs)} requests exceeds the shared inbox "
            f"({rows.shape[0]} rows); raise inbox_rows"
        )
    codes = {name: i for i, name in enumerate(kind_codes())}
    for i, r in enumerate(reqs):
        row = rows[i]
        row[COL_RID] = r.rid
        row[COL_KIND] = codes[r.kind]
        row[COL_KEY] = r.key
        row[COL_KEY2] = r.key2
        row[COL_DELTA] = r.delta
        row[COL_ATTEMPTS] = r.attempts
        row[COL_GROUP] = r.group
    return len(reqs)


def decode_requests(rows: np.ndarray, n: int) -> List[Request]:
    """Rebuild ``n`` requests from inbox rows (worker side).  The copies
    carry no timestamps — latency is stamped by the front-end on its
    authoritative objects."""
    names = kind_codes()
    out: List[Request] = []
    for i in range(n):
        row = rows[i]
        out.append(
            Request(
                rid=int(row[COL_RID]),
                kind=names[int(row[COL_KIND])],
                key=int(row[COL_KEY]),
                key2=int(row[COL_KEY2]),
                delta=int(row[COL_DELTA]),
                attempts=int(row[COL_ATTEMPTS]),
                group=int(row[COL_GROUP]),
            )
        )
    return out


def apply_row(req: Request, row: np.ndarray) -> None:
    """Fold one outbox row's mutable execution state back onto the
    front-end's request object (matched by rid upstream)."""
    req.attempts = int(row[COL_ATTEMPTS])
    req.group = int(row[COL_GROUP])


# ----------------------------------------------------------------------
# shared-memory segments
# ----------------------------------------------------------------------
@dataclass
class ShmBlock:
    """One named shared-memory segment viewed as an int64 ndarray.

    The creator (always the front-end) owns the segment's lifetime and
    must :meth:`unlink` it; attachers (worker processes) only map it.
    On 3.10–3.12 ``SharedMemory(name=...)`` re-registers the segment
    with the attaching process's resource tracker (the opt-out only
    landed in 3.13).  Under ``spawn`` the attacher has its *own*
    tracker, which would unlink the segment when the worker exits —
    before the front-end has read the final state — so :meth:`attach`
    undoes that registration.  Under ``fork`` the workers inherit the
    front-end's tracker: the re-registration is a harmless duplicate
    and must *not* be undone (the front-end's unlink still needs it).
    """

    shm: shared_memory.SharedMemory
    array: np.ndarray
    owner: bool

    @classmethod
    def create(cls, shape: Tuple[int, ...]) -> "ShmBlock":
        size = int(np.prod(shape)) * np.dtype(_WORD).itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(size, 8))
        array = np.ndarray(shape, dtype=_WORD, buffer=shm.buf)
        array.fill(0)
        return cls(shm=shm, array=array, owner=True)

    @classmethod
    def attach(cls, name: str, shape: Tuple[int, ...]) -> "ShmBlock":
        import multiprocessing as mp

        shm = shared_memory.SharedMemory(name=name)
        if mp.get_start_method(allow_none=True) == "spawn":
            try:  # pragma: no cover - spawn-only (see class docstring)
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        array = np.ndarray(shape, dtype=_WORD, buffer=shm.buf)
        return cls(shm=shm, array=array, owner=False)

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        """Drop the mapping (views must be released first; the caller
        rebinds or copies anything it still needs)."""
        self.array = None  # release the exported buffer
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a view leaked; leave mapped
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        if not self.owner:
            return
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


@dataclass
class WorkerConfig:
    """Everything a worker process needs to rebuild its shard (picklable
    and spawn-safe: the backend travels by registry name, shared
    segments by name, and the layout parameters by value — the worker
    builds a :class:`~repro.shard.worker.ShardWorker` with the exact
    layout of the front-end's process shard, which is what makes
    structural addresses identical on both sides)."""

    shard_id: int
    table_size: int
    n_cells: int
    key_space: int
    capacities: dict
    carryover: bool
    conflict_policy: str
    backend: str
    seed: int
    words: int
    inbox_rows: int
    state_name: str
    inbox_name: str
    outbox_name: str
