"""Append-only row quarantine with bit-exact value preservation.

Mirrors the model store's quarantine philosophy (``repro.store``):
suspect data is *moved aside, never deleted*.  Each quarantined row
becomes one JSON line carrying the values twice -- human-readable
``repr`` floats and ``float.hex()`` strings -- so the original 64-bit
pattern round-trips exactly even through JSON, and an operator (or a
later re-ingest job) can recover the row bit-for-bit.

The file is opened in append mode and never truncated; re-opening an
existing quarantine continues its sequence numbers.  A last line torn
by a crash mid-append keeps its own line: the first write after
re-opening ends it with a newline before writing its records.  A batch
of rows (:meth:`RowQuarantine.extend`) lands with one write, in the
same bytes as one append per row.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Union

import numpy as np

__all__ = ["RowQuarantine"]


class RowQuarantine:
    """An append-only JSONL file of quarantined rows.

    Parameters
    ----------
    path:
        The quarantine file.  Parent directories are created; an
        existing file is appended to (its rows are counted so
        ``n_quarantined`` and sequence numbers continue).
    clock:
        Wall-clock source (overridable for deterministic tests).
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._seq = sum(1 for _ in self._iter_lines())
        self._mid_line = self._ends_mid_line()

    def _ends_mid_line(self) -> bool:
        """Whether the file's last byte is not a newline (a torn append)."""
        if not self.path.exists() or self.path.stat().st_size == 0:
            return False
        with open(self.path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"

    def _iter_lines(self) -> Iterator[str]:
        """Non-blank lines, read one at a time (a torn last line included)."""
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield line

    @property
    def n_quarantined(self) -> int:
        """Rows in the quarantine (including pre-existing ones)."""
        return self._seq

    @property
    def total_bytes(self) -> int:
        """Current quarantine file size."""
        return self.path.stat().st_size if self.path.exists() else 0

    def append(
        self,
        row: np.ndarray,
        *,
        residual: float,
        z_score: float,
        reason: str,
        model_version: int,
    ) -> Dict[str, Any]:
        """Quarantine one row; returns the record that was written."""
        return self.extend(
            np.asarray(row, dtype=np.float64).reshape(1, -1),
            residuals=[residual],
            z_scores=[z_score],
            reasons=[reason],
            model_version=model_version,
        )[0]

    def extend(
        self,
        rows: np.ndarray,
        *,
        residuals: Sequence[float],
        z_scores: Sequence[float],
        reasons: Sequence[str],
        model_version: int,
    ) -> List[Dict[str, Any]]:
        """Quarantine a batch of rows with one write; returns the records.

        The bytes, sequence numbers and clock readings (one per record,
        in row order) are those of one :meth:`append` per row.  An empty
        batch writes nothing.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-d, got ndim={rows.ndim}")
        n_rows = rows.shape[0]
        if not len(residuals) == len(z_scores) == len(reasons) == n_rows:
            raise ValueError(
                f"need one residual, z-score and reason per row: got "
                f"{len(residuals)}, {len(z_scores)} and {len(reasons)} "
                f"for {n_rows} rows"
            )
        records: List[Dict[str, Any]] = []
        lines: List[str] = []
        for offset, values in enumerate(rows.tolist()):
            record: Dict[str, Any] = {
                "seq": self._seq + offset,
                "unix_time": float(self._clock()),
                "reason": reasons[offset],
                "model_version": int(model_version),
                "residual": float(residuals[offset]),
                "z_score": float(z_scores[offset]),
                "values": values,
                "values_hex": [value.hex() for value in values],
            }
            records.append(record)
            lines.append(json.dumps(record, sort_keys=True) + "\n")
        if not records:
            return records
        if self._mid_line:
            # End the torn line first, or the first record would be glued
            # to it.
            lines.insert(0, "\n")
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("".join(lines))
            handle.flush()
        self._mid_line = False
        self._seq += n_rows
        return records

    def read_all(self) -> List[Dict[str, Any]]:
        """Every quarantined record, in append order."""
        return [json.loads(line) for line in self._iter_lines()]

    @staticmethod
    def decode_values(record: Dict[str, Any]) -> np.ndarray:
        """Bit-exact row recovery from a record's ``values_hex``."""
        return np.array(
            [float.fromhex(text) for text in record["values_hex"]],
            dtype=np.float64,
        )
