"""PersistSan: NVM persist-ordering detector.

Epoch/fence model over the PMFS journal: every metadata mutation opens
a journal record (epoch begin), the commit write is the fence, and the
mutation may only be *applied* — made visible in the extent trees and
block bitmap — after its record is durably committed.  Likewise no
file data may become visible through the VFS write path while the
inode has an open, uncommitted record: the journal commit must be
durable before dependent data is.

The dynamic checks here are cross-checked statically by the o1 lint
pass (:mod:`repro.lint.flow`) with two rules, each catching what the
other misses: ``persist-outside-txn`` flags an ``_apply_*`` call with
no journal commit earlier in its function, ``flow-persist-outside-txn``
one that some path from its protocol root reaches before any commit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

Report = Callable[[str, str, Dict[str, Any]], None]


class PersistSan:
    """Journal epoch tracking and apply/visibility ordering checks."""

    def __init__(self, report: Report) -> None:
        self._report = report
        #: ino -> count of open (begun, not committed/aborted) records.
        self._open: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------
    def on_begin(self, record: Any) -> None:
        """A journal record was appended (epoch opened)."""
        self._open[record.ino] = self._open.get(record.ino, 0) + 1

    def on_commit(self, record: Any) -> None:
        """The record's commit write completed (fence passed)."""
        self._close(record.ino)

    def on_abort(self, record: Any) -> None:
        """The transaction failed before commit (e.g. allocation failure)."""
        self._close(record.ino)

    def _close(self, ino: int) -> None:
        count = self._open.get(ino, 0)
        if count <= 1:
            self._open.pop(ino, None)
        else:
            self._open[ino] = count - 1

    def reset(self) -> None:
        """Power failure: open epochs die with the volatile state."""
        self._open.clear()

    # ------------------------------------------------------------------
    # Ordering checks
    # ------------------------------------------------------------------
    def check_apply(self, record: Any) -> None:
        """A journaled mutation is being applied: its fence must have passed."""
        if not record.committed or record.corrupted:
            state = "corrupted" if record.corrupted else "uncommitted"
            self._report(
                "apply-before-commit",
                f"journal record (op={record.op!r} ino={record.ino}) applied "
                f"while {state} — metadata became visible before its commit "
                "was durable",
                {"ino": record.ino, "op": record.op, "committed": record.committed},
            )

    def check_data_visible(self, inode: Any) -> None:
        """File data is being stored: the inode may hold no open epoch."""
        open_count = self._open.get(inode.ino, 0)
        if open_count:
            self._report(
                "data-before-commit",
                f"data written to ino {inode.ino} while {open_count} journal "
                "record(s) are still uncommitted — dependent data became "
                "visible before the journal fence",
                {"ino": inode.ino, "open_records": open_count},
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Open-epoch count for ``sanitize_report.json``."""
        return {"open_journal_records": sum(self._open.values())}
