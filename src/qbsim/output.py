"""Deterministic CSV/JSON artifact writers.

Every dataset is a CSV file whose body is byte-reproducible for a given
configuration, plus a ``<stem>.meta.json`` sidecar carrying the resolved
configuration and solver details (the sidecar holds the only timestamp).
"""

import json
import os
from datetime import datetime, timezone

import numpy as np

__all__ = ["format_float", "write_csv", "write_metadata", "csv_path", "meta_path"]


def format_float(x) -> str:
    """17-significant-digit decimal form, enough to round-trip a double;
    bools and integers as ``%d``."""
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return "%d" % x
    return "%.17g" % float(x)


def _cell_format(col: np.ndarray) -> tuple[str, list]:
    """A ``%`` conversion and the values it turns into ``format_float``'s
    text: ``%d`` or ``%.17g`` by dtype, else the text itself as ``%s``."""
    if col.dtype == np.bool_ or col.dtype.kind in "iu":
        return "%d", col.tolist()
    if col.dtype.kind == "f" and col.dtype.itemsize <= 8:
        return "%.17g", col.tolist()
    return "%s", [format_float(v) for v in col]


def _write_new(path, text: str) -> None:
    """Write ``text`` into a new file at ``path``, removing any file there.

    ext4 (default ``auto_da_alloc``) flushes a file that held data when it
    is truncated or renamed over, which cost 40-65 ms a file on a 2-core
    VM; a new file costs under 0.1 ms.  A link at ``path`` is replaced,
    not written through.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], columns: list) -> str:
    """Write named 1-D columns of equal length; returns the path.

    A bad header or column raises ValueError before any file is touched.
    """
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    if not header:
        raise ValueError("header names no column")
    if len(cols) != len(header):
        raise ValueError("header/column count mismatch")
    if any(c.ndim != 1 for c in cols):
        raise ValueError("columns must be one-dimensional")
    n = cols[0].shape[0]
    if any(c.shape[0] != n for c in cols):
        raise ValueError("columns must have equal length")
    formats, values = zip(*map(_cell_format, cols))
    row = ",".join(formats)
    lines = [",".join(header)] + [row % cells for cells in zip(*values)]
    _write_new(path, "\n".join(lines) + "\n")
    return path


def write_metadata(path: str, payload: dict) -> str:
    """JSON sidecar with a creation timestamp added on top of ``payload``.

    A non-finite number raises ValueError before any file is touched, since
    strict JSON cannot carry it.
    """
    record = dict(payload)
    record.setdefault("created_at", datetime.now(timezone.utc).isoformat())
    text = json.dumps(record, indent=2, sort_keys=True, default=_coerce,
                      allow_nan=False)
    _write_new(path, text + "\n")
    return path


def _coerce(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def csv_path(out_dir: str, stem: str) -> str:
    return os.path.join(out_dir, stem + ".csv")


def meta_path(out_dir: str, stem: str) -> str:
    return os.path.join(out_dir, stem + ".meta.json")
