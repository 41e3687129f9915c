"""Exchange checkpointing: resume a killed run where it stopped.

An :class:`ExchangeJournal` is an append-only acknowledgement log kept
by the executor while a program runs.  Two grain sizes:

* **whole writes** — every run acks a Write operation once its
  fragment is fully stored.  A resumed run skips the entire producer
  chain of an acked write (nothing is recomputed or re-shipped).
* **batches** — on a batched run (``batch_rows=N``), writes into
  endpoints that load incrementally (``incremental_writes = True``, e.g. the
  relational endpoint's per-batch bulk load) additionally ack each
  stored batch by sequence number.  A resumed run replays the stream
  but suppresses shipping and re-loading through the acknowledged
  high-water mark, so only unacknowledged batches cross the wire
  again.

The journal is JSON-lines on disk (or purely in memory with
``path=None``): one ``run`` record per attempt, one ``batch``/``write``
record per acknowledgement.  Records are flushed as written — a killed
process loses at most the batch in flight, which was by definition not
yet acknowledged and is re-shipped on resume.  ``resume_count`` (runs
beyond the first) surfaces in ``ExecutionReport``/``ExchangeOutcome``.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import IO


class ExchangeJournal:
    """Append-only acknowledgement log for one exchange.

    Thread-safe: concurrent sessions may share one journal.  Keys
    identify Write operations stably across runs (the executor uses
    ``"<op_id>:<fragment name>"``), so a fresh process replaying the
    same program resolves its acknowledgements.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._runs = 0
        self._batch_high: dict[str, int] = {}
        self._writes_done: set[str] = set()
        self._sync_version = 0
        self._file: IO[str] | None = None
        if self.path is not None and self.path.exists():
            self._load()
        if self.path is not None:
            self._file = self.path.open("a", encoding="utf-8")

    # -- persistence -------------------------------------------------------------

    def _load(self) -> None:
        assert self.path is not None
        raw = self.path.read_text(encoding="utf-8")
        good_end = 0
        offset = 0
        for line in raw.splitlines(keepends=True):
            stripped = line.strip()
            if stripped:
                try:
                    record = json.loads(stripped)
                except json.JSONDecodeError:
                    # A record torn mid-write by a kill — exactly the
                    # crash the journal exists to survive.  Only the
                    # final line can legally be torn: everything after
                    # a defect is unparseable territory, so stop here
                    # and truncate the tail before appending resumes.
                    break
                self._apply(record)
            offset += len(line)
            good_end = offset
        if good_end < len(raw):
            with self.path.open("r+", encoding="utf-8") as handle:
                handle.truncate(good_end)

    def _apply(self, record: dict[str, object]) -> None:
        event = record.get("event")
        if event == "run":
            self._runs += 1
        elif event == "batch":
            key = str(record["write"])
            seq = int(record["seq"])  # type: ignore[arg-type]
            if seq > self._batch_high.get(key, -1):
                self._batch_high[key] = seq
        elif event == "write":
            self._writes_done.add(str(record["write"]))
        elif event == "sync":
            version = int(record["version"])  # type: ignore[arg-type]
            if version > self._sync_version:
                self._sync_version = version
            # A sync closes the exchange: earlier acknowledgements
            # belong to the completed run and must not short-circuit
            # the next one.
            self._runs = 0
            self._batch_high.clear()
            self._writes_done.clear()

    def _append(self, record: dict[str, object]) -> None:
        if self._file is None:
            return
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def close(self) -> None:
        """Close the backing file (the journal stays readable)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "ExchangeJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- run lifecycle -----------------------------------------------------------

    def begin_run(self) -> int:
        """Record the start of one execution attempt.

        Returns the attempt's ``resume_count`` — 0 for a fresh journal,
        ``n`` when ``n`` earlier attempts are already on record.
        """
        with self._lock:
            resumes = self._runs
            self._runs += 1
            self._append({"event": "run"})
            return resumes

    @property
    def resume_count(self) -> int:
        """Attempts beyond the first recorded in this journal."""
        return max(0, self._runs - 1)

    # -- acknowledgements ---------------------------------------------------------

    def ack_batch(self, write_key: str, seq: int) -> None:
        """Acknowledge batch ``seq`` of ``write_key`` as durably
        stored."""
        with self._lock:
            if seq > self._batch_high.get(write_key, -1):
                self._batch_high[write_key] = seq
            self._append(
                {"event": "batch", "write": write_key, "seq": seq}
            )

    def acked_through(self, write_key: str) -> int:
        """Highest acknowledged batch seq for ``write_key`` (-1 when
        none)."""
        with self._lock:
            return self._batch_high.get(write_key, -1)

    def ack_write(self, write_key: str) -> None:
        """Acknowledge ``write_key`` as completely stored."""
        with self._lock:
            self._writes_done.add(write_key)
            self._append({"event": "write", "write": write_key})

    def write_done(self, write_key: str) -> bool:
        """Whether ``write_key`` finished in an earlier attempt."""
        with self._lock:
            return write_key in self._writes_done

    # -- delta high-water ---------------------------------------------------------

    def record_sync(self, version: int) -> None:
        """Record that the target is fully synchronized with the source
        as of source ``version``.

        Delta exchange writes this only **after** an exchange completes,
        so a killed run never advances the high-water mark: the resumed
        (or next delta) run re-covers everything since the last finished
        sync.
        """
        with self._lock:
            if version > self._sync_version:
                self._sync_version = version
            # Close the run: the next exchange through this journal
            # starts with a clean acknowledgement slate (and a fresh
            # resume count).
            self._runs = 0
            self._batch_high.clear()
            self._writes_done.clear()
            self._append({"event": "sync", "version": version})

    def last_sync_version(self) -> int:
        """Source version of the last *completed* exchange (0 when no
        sync is on record — the next delta run ships everything)."""
        with self._lock:
            return self._sync_version


def write_key(op_id: int, fragment_name: str) -> str:
    """Stable journal key for a Write operation."""
    return f"{op_id}:{fragment_name}"
