"""Dataset and document file formats used by the command-line tools.

Datasets are plain delimiter-separated text with a ``t,u,y`` header, one
sample per row.  Truth/result/summary documents are indented JSON trees,
one value per line, with every float written as Python's shortest string
that reads back as the same double, so identical inputs produce
byte-identical, diff-able files that round-trip bit-faithfully.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import Dataset

__all__ = [
    "SCHEMA_VERSION",
    "read_dataset",
    "write_dataset",
    "dump_document",
    "write_document",
    "read_document",
    "write_runs_csv",
]

SCHEMA_VERSION = 1


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ConfigError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def write_dataset(path, u, y) -> None:
    """Write a t,u,y dataset file (t = 1..N)."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != y.shape or u.ndim != 1:
        raise ConfigError(f"u and y must be equal-length vectors, got {u.shape}, {y.shape}")
    if not (np.isfinite(u).all() and np.isfinite(y).all()):
        for x in np.column_stack([u, y]).flat:  # raises at the first, in file order
            _format_float(x)
    rows = zip(range(1, u.size + 1), u.tolist(), y.tolist())
    Path(path).write_text("".join(["t,u,y\n", *(f"{t},{a:.17g},{b:.17g}\n" for t, a, b in rows)]))


def read_dataset(path) -> Dataset:
    """Parse a t,u,y dataset file; malformed rows report their line number."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"input file not found: {p}")
    u, y = [], []
    with p.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{p}:1: empty dataset file") from None
        expected = ["t", "u", "y"]
        if [c.strip().lower() for c in header] != expected:
            raise ConfigError(
                f"{p}:1: expected header 't,u,y', got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ConfigError(
                    f"{p}:{lineno}: expected 3 columns, got {len(row)}"
                )
            try:
                u.append(float(row[1]))
                y.append(float(row[2]))
            except ValueError as exc:
                raise ConfigError(f"{p}:{lineno}: {exc}") from None
    if not u:
        raise ConfigError(f"{p}: dataset contains no samples")
    try:
        return Dataset(np.array(u), np.array(y))
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None


def _json_value(x):
    """numpy arrays and scalars as the Python values ``json`` writes."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"cannot serialize value of type {type(x).__name__}")


def dump_document(obj) -> str:
    """Serialize a document tree to indented JSON text; a non-finite number or a
    value JSON cannot hold is a ConfigError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_json_value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot serialize document: {exc}") from None


def write_document(path, doc: dict) -> None:
    Path(path).write_text(dump_document(doc) + "\n")


def read_document(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}:{exc.lineno}: invalid document: {exc.msg}") from None


def write_runs_csv(path, results) -> None:
    """One row per benchmark run: run, fit_ssml, fit_ssgs, beta_hat, sigma2,
    warnings.  A run's warnings are joined by ';', which no warning of the
    library contains, so the column splits back into them."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "fit_ssml", "fit_ssgs", "beta_hat", "sigma2", "warnings"])
        for r in results:
            writer.writerow(
                [
                    r.run_index,
                    _format_float(r.fit_ssml),
                    _format_float(r.fit_ssgs),
                    _format_float(r.beta_hat),
                    _format_float(r.sigma2),
                    ";".join(r.warnings),
                ]
            )
