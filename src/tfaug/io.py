"""Signal-set and domain serialization.

Binary format: little-endian, magic "QHA1", u32 d, u32 N, then N*d
complex samples as (f64 real, f64 imag) pairs, which is the memory of the
dataset's (N, d) complex128 matrix; it is written and read as one block.
CSV alternative: one signal per row with 2d interleaved re,im columns and a
header row "# d=<d> n=<N>"; each value's text is `repr`, written for the
whole matrix in one pass by `floattext.float_rows`.  Round trips are bit
exact.  The readers reject a file that holds a NaN or an inf, or an empty
signal.
"""

import json
import struct
from pathlib import Path

import numpy as np

from .augmentation import Domain, full_domain, make_cells_domain, make_rect_domain
from .datasets import DataSet
from .floattext import float_rows
from .tf_core import PhaseGrid

MAGIC = b"QHA1"


def _check_finite(path, values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: holds a non-finite sample (NaN or inf)")
    return values


def write_signals_binary(path, dataset: DataSet) -> None:
    # complex128 memory is already the file's interleaved f64 re/im pairs
    X = np.ascontiguousarray(dataset.signals, dtype="<c16")
    N, d = X.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", d, N))
        fh.write(X)


def read_signals_binary(path) -> DataSet:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a signal file (bad magic)")
    d, N = struct.unpack("<II", raw[4:12])
    expect = 12 + N * d * 16
    if len(raw) != expect:
        raise ValueError(f"{path}: truncated, expected {expect} bytes, got {len(raw)}")
    # a view of the bytes; re + 1j*im would turn a -0.0 real part into +0.0
    X = np.frombuffer(raw, dtype="<c16", count=N * d, offset=12).reshape(N, d)
    return DataSet(_check_finite(path, X), label=f"file({Path(path).name})")


def write_signals_csv(path, dataset: DataSet) -> None:
    N, d = dataset.signals.shape
    # the C-ordered complex128 rows viewed as re0, im0, re1, im1, ... floats
    text = float_rows(dataset.signals.view(np.float64))
    with open(path, "w", newline="") as fh:
        fh.write(f"# d={d} n={N}\n{text}\n")


def read_signals_csv(path) -> DataSet:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing '# d=... n=...' header")
    header = dict(tok.split("=") for tok in lines[0].lstrip("# ").split())
    d, N = int(header["d"]), int(header["n"])
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != N:
        raise ValueError(f"{path}: header says {N} signals, found {len(rows)} rows")
    X = np.empty((N, 2 * d))
    for i, ln in enumerate(rows):
        vals = [float(tok) for tok in ln.split(",")]
        if len(vals) != 2 * d:
            raise ValueError(f"{path}: row has {len(vals)} columns, expected {2 * d}")
        X[i] = vals
    return DataSet(_check_finite(path, X).view(np.complex128), label=f"file({Path(path).name})")


def write_signals(path, dataset: DataSet) -> None:
    """Dispatch on extension: .csv is text, anything else binary."""
    if str(path).endswith(".csv"):
        write_signals_csv(path, dataset)
    else:
        write_signals_binary(path, dataset)


def read_signals(path) -> DataSet:
    if str(path).endswith(".csv"):
        return read_signals_csv(path)
    return read_signals_binary(path)


def domain_to_json(domain: Domain) -> str:
    return json.dumps(domain.to_json_dict(), sort_keys=True)


def domain_from_json(text: str) -> Domain:
    spec = json.loads(text)
    d = spec["d"]
    shape = spec.get("shape", "rect")
    if shape == "rect":
        return make_rect_domain(
            PhaseGrid(d),
            spec["width"],
            spec["height"],
            tuple(spec.get("center", (0.0, 0.0))),
        )
    if shape == "full":
        return full_domain(d)
    if shape == "cells":
        return make_cells_domain(PhaseGrid(d), spec["cells"])
    raise ValueError(f"unknown domain shape {shape!r}")
