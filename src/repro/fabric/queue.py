"""Durable on-disk work queue of scenario hashes.

One SQLite file (``queue.sqlite3`` under the fabric root, WAL journal
mode) holds two tables:

``queue``
    The work items: one row per cold scenario-hash key, FIFO by
    insertion, with *lease/ack/retry* semantics.  A worker
    :meth:`~WorkQueue.lease`\\ s the oldest ready item (marking it
    leased until a deadline), runs it, and :meth:`~WorkQueue.ack`\\ s;
    a worker that dies mid-lease simply stops renewing — the next
    lease call expires the stale row, charges the item one
    ``worker-lost`` attempt (the accounting of
    :class:`repro.perf.PointFailure`) and re-readies it with the sweep
    driver's exponential backoff (``backoff * 2**k``, capped at 30 s).
    An item that exhausts ``max_attempts`` parks as ``failed`` with its
    last error; re-enqueueing it starts a fresh attempt budget (the
    sweep-layer contract: failures are never cached, the point
    recomputes on the next sweep).

``scenarios``
    The key ↔ scenario-JSON bindings the fabric has learned — what
    lets the result service answer ``GET /result/<cache_key>`` with a
    full lossless :class:`~repro.results.RunResult` (the store alone
    holds payload bytes; the scenario rides here).

Every mutation is one SQLite transaction, so any number of workers,
sweeps and service threads can share a queue file; per-thread
connections keep the threaded result service safe.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sqlite3
import threading
import time
import typing as _t

from .store import connect_wal

__all__ = ["Lease", "QueueStats", "WorkQueue", "QUEUE_FILENAME",
           "STATES"]

#: the queue database file, under the fabric root
QUEUE_FILENAME = "queue.sqlite3"

#: item lifecycle states
STATES: _t.Tuple[str, ...] = ("ready", "leased", "done", "failed")

#: upper bound on one retry-backoff delay, seconds (mirrors
#: ``repro.perf.sweep._MAX_BACKOFF``)
_MAX_BACKOFF = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS queue (
    key         TEXT PRIMARY KEY,
    state       TEXT NOT NULL,
    attempts    INTEGER NOT NULL DEFAULT 0,
    worker_lost INTEGER NOT NULL DEFAULT 0,
    enqueued_at REAL NOT NULL,
    ready_at    REAL NOT NULL,
    lease_until REAL,
    worker      TEXT,
    error       TEXT
);
CREATE TABLE IF NOT EXISTS scenarios (
    key           TEXT PRIMARY KEY,
    scenario_json TEXT NOT NULL
);
"""


@dataclasses.dataclass(frozen=True)
class Lease:
    """One leased work item: run the scenario, ``put`` the result
    bytes, then ``ack`` the key before ``deadline``."""

    key: str
    scenario_json: str
    attempts: int          #: attempts charged so far (this run not yet)
    deadline: float        #: wall-clock lease expiry


@dataclasses.dataclass(frozen=True)
class QueueStats:
    """Depth counters for ``cache``-CLI / ``/stats`` reporting."""

    ready: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0

    @property
    def depth(self) -> int:
        """Items still owed a result (ready + leased)."""
        return self.ready + self.leased

    def as_dict(self) -> _t.Dict[str, int]:
        return dict(dataclasses.asdict(self), depth=self.depth)


@dataclasses.dataclass(frozen=True)
class QueueItem:
    """One queue row, as reported by :meth:`WorkQueue.get`."""

    key: str
    state: str
    attempts: int
    worker_lost: int
    error: _t.Optional[str]


class WorkQueue:
    """The durable scenario-hash work queue (see the module docstring
    for the protocol)."""

    def __init__(self, path: _t.Union[str, pathlib.Path], *,
                 max_attempts: int = 3, backoff: float = 0.5) -> None:
        path = pathlib.Path(path)
        if path.suffix not in (".sqlite3", ".sqlite", ".db"):
            path = path / QUEUE_FILENAME
        self.path = path
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if backoff < 0:
            raise ValueError("backoff must be non-negative")
        self.max_attempts = max_attempts
        self.backoff = backoff
        self._local = threading.local()

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = connect_wal(self.path)
            conn.executescript(_SCHEMA)
            conn.commit()
            self._local.conn = conn
        return conn

    def _backoff_delay(self, attempts: int) -> float:
        # attempt k's retry waits backoff * 2**(k-1), capped — the
        # sweep driver's exact retry curve
        return min(self.backoff * (2 ** max(attempts - 1, 0)),
                   _MAX_BACKOFF)

    # ------------------------------------------------------------ write
    def record_scenario(self, key: str, scenario_json: str) -> None:
        """Bind ``key`` ↔ scenario JSON (idempotent) without queueing
        work — how warm hits become servable by ``/result/<key>``."""
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT OR IGNORE INTO scenarios (key, scenario_json) "
                "VALUES (?, ?)", (key, scenario_json))

    def enqueue(self, key: str, scenario_json: str,
                now: _t.Optional[float] = None) -> bool:
        """Queue one cold point; returns whether new work was created.

        Idempotent while the item is in flight (``ready``/``leased``
        rows are left untouched); a ``done`` or ``failed`` row is
        re-readied with a fresh attempt budget — the caller observed
        the store cold, so the previous outcome is stale.
        """
        now = time.time() if now is None else now
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT OR IGNORE INTO scenarios (key, scenario_json) "
                "VALUES (?, ?)", (key, scenario_json))
            cur = conn.execute(
                "INSERT OR IGNORE INTO queue "
                "(key, state, enqueued_at, ready_at) "
                "VALUES (?, 'ready', ?, ?)", (key, now, now))
            if cur.rowcount > 0:
                return True
            cur = conn.execute(
                "UPDATE queue SET state = 'ready', attempts = 0, "
                "worker_lost = 0, ready_at = ?, lease_until = NULL, "
                "worker = NULL, error = NULL "
                "WHERE key = ? AND state IN ('done', 'failed')",
                (now, key))
            return cur.rowcount > 0

    def _expire_stale_leases(self, conn: sqlite3.Connection,
                             now: float) -> None:
        """Charge every expired lease one ``worker-lost`` attempt and
        re-ready (with backoff) or fail the item — the queue-side twin
        of the sweep driver's dead-pool-worker accounting."""
        stale = conn.execute(
            "SELECT key, attempts, worker FROM queue "
            "WHERE state = 'leased' AND lease_until < ?",
            (now,)).fetchall()
        for key, attempts, worker in stale:
            attempts += 1
            error = (f"worker-lost: lease by {worker or '?'} expired "
                     f"(attempt {attempts})")
            if attempts >= self.max_attempts:
                conn.execute(
                    "UPDATE queue SET state = 'failed', attempts = ?, "
                    "worker_lost = worker_lost + 1, lease_until = NULL, "
                    "worker = NULL, error = ? WHERE key = ?",
                    (attempts, error, key))
            else:
                conn.execute(
                    "UPDATE queue SET state = 'ready', attempts = ?, "
                    "worker_lost = worker_lost + 1, lease_until = NULL, "
                    "worker = NULL, error = ?, ready_at = ? "
                    "WHERE key = ?",
                    (attempts, error, now + self._backoff_delay(attempts),
                     key))

    def lease(self, worker: str, lease_s: float = 60.0,
              now: _t.Optional[float] = None) -> _t.Optional[Lease]:
        """Claim the oldest ready item (expiring stale leases first);
        ``None`` when nothing is ready right now."""
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        now = time.time() if now is None else now
        conn = self._conn()
        with conn:
            self._expire_stale_leases(conn, now)
            row = conn.execute(
                "SELECT q.key, s.scenario_json, q.attempts "
                "FROM queue q JOIN scenarios s ON s.key = q.key "
                "WHERE q.state = 'ready' AND q.ready_at <= ? "
                "ORDER BY q.rowid LIMIT 1", (now,)).fetchone()
            if row is None:
                return None
            key, scenario_json, attempts = row
            deadline = now + lease_s
            conn.execute(
                "UPDATE queue SET state = 'leased', worker = ?, "
                "lease_until = ? WHERE key = ?",
                (worker, deadline, key))
        return Lease(key, scenario_json, attempts, deadline)

    def ack(self, key: str, worker: str) -> bool:
        """Mark a leased item done; returns whether the ack landed.

        Only the current leaseholder may ack: an orphaned worker whose
        lease already expired (and whose point was re-leased) gets
        ``False`` — its store ``put`` was byte-identical anyway, but
        the attempt accounting belongs to the live lease.
        """
        conn = self._conn()
        with conn:
            cur = conn.execute(
                "UPDATE queue SET state = 'done', "
                "attempts = attempts + 1, lease_until = NULL, "
                "error = NULL WHERE key = ? AND state = 'leased' "
                "AND worker = ?", (key, worker))
        return cur.rowcount > 0

    def fail(self, key: str, worker: str, error: str,
             now: _t.Optional[float] = None) -> bool:
        """Charge a leased item one failed attempt (the run raised);
        re-readies with backoff or parks it as ``failed`` once
        ``max_attempts`` is spent."""
        now = time.time() if now is None else now
        conn = self._conn()
        with conn:
            row = conn.execute(
                "SELECT attempts FROM queue WHERE key = ? "
                "AND state = 'leased' AND worker = ?",
                (key, worker)).fetchone()
            if row is None:
                return False
            attempts = row[0] + 1
            if attempts >= self.max_attempts:
                conn.execute(
                    "UPDATE queue SET state = 'failed', attempts = ?, "
                    "lease_until = NULL, worker = NULL, error = ? "
                    "WHERE key = ?", (attempts, error, key))
            else:
                conn.execute(
                    "UPDATE queue SET state = 'ready', attempts = ?, "
                    "lease_until = NULL, worker = NULL, error = ?, "
                    "ready_at = ? WHERE key = ?",
                    (attempts, error,
                     now + self._backoff_delay(attempts), key))
        return True

    # ------------------------------------------------------------- read
    def get(self, key: str) -> _t.Optional[QueueItem]:
        row = self._conn().execute(
            "SELECT key, state, attempts, worker_lost, error "
            "FROM queue WHERE key = ?", (key,)).fetchone()
        return None if row is None else QueueItem(*row)

    def scenario_for(self, key: str) -> _t.Optional[str]:
        """The recorded scenario JSON for ``key`` (``None`` when the
        fabric has never seen it)."""
        row = self._conn().execute(
            "SELECT scenario_json FROM scenarios WHERE key = ?",
            (key,)).fetchone()
        return None if row is None else row[0]

    def expire_stale(self, now: _t.Optional[float] = None) -> None:
        """Run the stale-lease sweep without claiming work — lets a
        workerless observer (a waiting sweep) see ``worker-lost``
        failures progress instead of hanging on a dead lease."""
        now = time.time() if now is None else now
        conn = self._conn()
        with conn:
            self._expire_stale_leases(conn, now)

    def stats(self) -> QueueStats:
        counts = dict(self._conn().execute(
            "SELECT state, COUNT(*) FROM queue GROUP BY state"))
        return QueueStats(**{s: counts.get(s, 0) for s in STATES})

    def clear(self) -> int:
        """Drop every queue row (the scenario bindings survive — they
        are provenance, not work); returns the number removed."""
        conn = self._conn()
        with conn:
            removed = conn.execute(
                "SELECT COUNT(*) FROM queue").fetchone()[0]
            conn.execute("DELETE FROM queue")
        return removed

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.close()
