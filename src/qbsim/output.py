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
    """17-significant-digit decimal form, enough to round-trip a double."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _format_column(col: np.ndarray) -> list[str]:
    """``format_float`` of every entry, with one formatter per column dtype."""
    values = col.tolist()
    if col.dtype == np.bool_:
        return ["1" if v else "0" for v in values]
    if col.dtype.kind in "iu":
        return list(map(str, values))
    if col.dtype.kind == "f" and col.dtype.itemsize <= 8:
        return list(map("{:.17g}".format, values))
    return [format_float(v) for v in col]


def write_csv(path: str, header: list[str], columns: list) -> str:
    """Write named columns of equal length; returns the path."""
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(cols) != len(header):
        raise ValueError("header/column count mismatch")
    n = cols[0].shape[0]
    if any(c.shape[0] != n for c in cols):
        raise ValueError("columns must have equal length")
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*map(_format_column, cols))))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_metadata(path: str, payload: dict) -> str:
    """JSON sidecar with a creation timestamp added on top of ``payload``.

    A non-finite number raises ValueError before the file is opened, since
    strict JSON cannot carry it.
    """
    record = dict(payload)
    record.setdefault("created_at", datetime.now(timezone.utc).isoformat())
    text = json.dumps(record, indent=2, sort_keys=True, default=_coerce,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
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
