"""ResultStore protocol: both backends, one contract.

Every assertion here runs against the ``file`` oracle layout *and* the
``sqlite`` backend — same keys, same bytes, same quarantine semantics;
only where the bytes live differs.
"""

import pickle
import sqlite3
import warnings

import pytest

from repro.fabric.store import (CACHE_BACKENDS, FileStore, SqliteStore,
                                SQLITE_FILENAME, get_cache_backend,
                                open_store, resolve_cache_backend,
                                set_cache_backend)

KEY_A = "aa" + "0" * 61
KEY_B = "bb" + "1" * 61


@pytest.fixture(params=CACHE_BACKENDS)
def store(request, tmp_path):
    s = open_store(tmp_path, request.param)
    yield s
    s.close()


# ------------------------------------------------------------- protocol
def test_get_miss_is_none(store):
    assert store.get(KEY_A) is None
    assert not store.has(KEY_A)


def test_put_get_roundtrip_bytes_exact(store):
    payload = pickle.dumps({"x": 1}, protocol=pickle.HIGHEST_PROTOCOL)
    store.put(KEY_A, payload)
    assert store.get(KEY_A) == payload
    assert store.has(KEY_A)


def test_put_replaces(store):
    store.put(KEY_A, b"one")
    store.put(KEY_A, b"two")
    assert store.get(KEY_A) == b"two"


def test_delete(store):
    store.put(KEY_A, b"x")
    assert store.delete(KEY_A) is True
    assert store.get(KEY_A) is None
    assert store.delete(KEY_A) is False


def test_iter_keys_sorted(store):
    store.put(KEY_B, b"b")
    store.put(KEY_A, b"a")
    assert list(store.iter_keys()) == sorted([KEY_A, KEY_B])


def test_stats_counts_entries_and_bytes(store):
    assert store.stats().entries == 0
    store.put(KEY_A, b"12345")
    st = store.stats()
    assert st.entries == 1
    assert st.total_bytes == 5
    assert st.backend == store.backend
    assert st.as_dict()["entries"] == 1


def test_clear_removes_results_and_reports_count(store):
    store.put(KEY_A, b"a")
    store.put(KEY_B, b"b")
    assert store.clear() == 2
    assert list(store.iter_keys()) == []


def test_quarantine_hides_entry_and_counts_in_stats(store):
    store.put(KEY_A, b"not a pickle")
    where = store.quarantine(KEY_A, "unit test")
    assert where  # human-readable destination
    assert store.get(KEY_A) is None     # ignored by loads
    assert store.stats().corrupt == 1   # kept for post-mortems
    assert store.quarantine(KEY_A, "again") is None  # nothing left


def test_prune_drops_quarantine_keeps_entries(store):
    store.put(KEY_A, b"healthy")
    store.put(KEY_B, b"junk")
    store.quarantine(KEY_B, "unit test")
    assert store.prune() >= 1
    assert store.stats().corrupt == 0
    assert store.get(KEY_A) == b"healthy"


def test_verify_clean_store_reports_nothing(store):
    store.put(KEY_A, pickle.dumps(42))
    assert store.verify() == []


# ------------------------------------------------------ backend details
def test_file_layout_is_the_pinned_shard_tree(tmp_path):
    s = FileStore(tmp_path)
    s.put(KEY_A, b"x")
    assert (tmp_path / KEY_A[:2] / f"{KEY_A}.pkl").read_bytes() == b"x"
    # no tmp droppings after a clean put
    assert not list(tmp_path.rglob("*.tmp*"))


def test_file_quarantine_renames_to_dot_corrupt(tmp_path):
    s = FileStore(tmp_path)
    s.put(KEY_A, b"junk")
    s.quarantine(KEY_A, "why")
    assert (tmp_path / KEY_A[:2] / f"{KEY_A}.corrupt").is_file()


def test_file_clear_leaves_no_residue(tmp_path):
    s = FileStore(tmp_path)
    s.put(KEY_A, b"junk")
    s.quarantine(KEY_A, "why")
    s.put(KEY_B, b"keep")
    assert s.clear() == 1
    assert list(tmp_path.rglob("*")) == []


def test_sqlite_single_db_file(tmp_path):
    s = SqliteStore(tmp_path)
    s.put(KEY_A, b"x")
    assert (tmp_path / SQLITE_FILENAME).is_file()
    # shares the root with the file layout without touching its shards
    assert not (tmp_path / KEY_A[:2]).exists()
    s.close()


def test_sqlite_read_ops_do_not_create_the_db(tmp_path):
    s = SqliteStore(tmp_path)
    assert s.get(KEY_A) is None
    assert s.stats().entries == 0
    assert not (tmp_path / SQLITE_FILENAME).exists()
    s.close()


def test_sqlite_quarantine_moves_row_to_corrupt_table(tmp_path):
    s = SqliteStore(tmp_path)
    s.put(KEY_A, b"junk")
    s.quarantine(KEY_A, "truncated write")
    rows = s.corrupt_rows()
    assert rows == [(KEY_A, "truncated write")]
    conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
    n, = conn.execute("SELECT COUNT(*) FROM results").fetchone()
    assert n == 0
    conn.close()
    s.close()


def test_sqlite_verify_rehashes_stored_bytes(tmp_path):
    s = SqliteStore(tmp_path)
    s.put(KEY_A, b"payload")
    # flip the stored bytes behind the digest's back
    conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
    conn.execute("UPDATE results SET payload = ? WHERE key = ?",
                 (b"bitrot", KEY_A))
    conn.commit()
    conn.close()
    problems = s.verify()
    assert len(problems) == 1
    assert problems[0][0] == KEY_A
    assert "mismatch" in problems[0][1]
    s.close()


# ----------------------------------------------------------- selection
def test_backend_seam_set_returns_previous():
    before = get_cache_backend()
    try:
        assert set_cache_backend("sqlite") == before
        assert get_cache_backend() == "sqlite"
    finally:
        set_cache_backend(before)


def test_backend_seam_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown cache backend"):
        set_cache_backend("redis")
    with pytest.raises(ValueError, match="unknown cache backend"):
        resolve_cache_backend("redis")


def test_env_garbage_warns_and_falls_back(monkeypatch):
    from repro.fabric.store import _env_backend
    monkeypatch.setenv("REPRO_CACHE_BACKEND", "postgres")
    with pytest.warns(RuntimeWarning):
        assert _env_backend() == "file"


def test_env_selects_sqlite(monkeypatch):
    from repro.fabric.store import _env_backend
    monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _env_backend() == "sqlite"


def test_open_store_resolves_default(tmp_path):
    before = get_cache_backend()
    try:
        set_cache_backend("sqlite")
        assert isinstance(open_store(tmp_path), SqliteStore)
        set_cache_backend("file")
        assert isinstance(open_store(tmp_path), FileStore)
    finally:
        set_cache_backend(before)


# ------------------------------------------------- concurrent opening
@pytest.mark.parametrize("kind", ["queue", "store"])
def test_open_waits_out_a_concurrent_writer(tmp_path, kind):
    """Switching a fresh database to WAL needs the write lock, and
    SQLite reports a held lock as "database is locked" at once instead
    of running the busy handler.  Opening must wait for the other
    connection (here: a write transaction released after ~0.2 s)
    instead of raising."""
    import threading

    from repro.fabric.queue import QUEUE_FILENAME, WorkQueue

    name = QUEUE_FILENAME if kind == "queue" else SQLITE_FILENAME
    holder = sqlite3.connect(tmp_path / name, isolation_level=None,
                             check_same_thread=False)
    holder.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.2, holder.execute, ("COMMIT",))
    release.start()
    try:
        if kind == "queue":
            handle = WorkQueue(tmp_path)
            assert handle.enqueue(KEY_A, "{}") is True
        else:
            handle = SqliteStore(tmp_path)
            handle.put(KEY_A, b"payload")
            assert handle.get(KEY_A) == b"payload"
        handle.close()
    finally:
        release.join()
        holder.close()
