"""Append-only row quarantine with bit-exact value preservation.

Mirrors the model store's quarantine philosophy (``repro.store``):
suspect data is *moved aside, never deleted*.  Each quarantined row
becomes one JSON line carrying the values twice -- human-readable
``repr`` floats and ``float.hex()`` strings -- so the original 64-bit
pattern round-trips exactly even through JSON, and an operator (or a
later re-ingest job) can recover the row bit-for-bit.

The file is opened in append mode and never truncated; re-opening an
existing quarantine continues its sequence numbers.  A last line torn
by a crash mid-append keeps its own line: the first append after
re-opening ends it with a newline before writing its record.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Union

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
        values = np.asarray(row, dtype=np.float64).ravel()
        record: Dict[str, Any] = {
            "seq": self._seq,
            "unix_time": float(self._clock()),
            "reason": reason,
            "model_version": int(model_version),
            "residual": float(residual),
            "z_score": float(z_score),
            "values": [float(v) for v in values],
            "values_hex": [float(v).hex() for v in values],
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._mid_line:
            # End the torn line first, or this record would be glued to it.
            line = "\n" + line
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
        self._mid_line = False
        self._seq += 1
        return record

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
