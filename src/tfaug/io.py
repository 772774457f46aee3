"""Signal-set and domain serialization.

Binary format: little-endian, magic "QHA1", u32 d, u32 N, then N*d
complex samples as (f64 real, f64 imag) pairs.  CSV alternative: one
signal per row with 2d interleaved re,im columns and a header row
"# d=<d> n=<N>".  Round trips are bit exact.  The readers reject a file
that holds a NaN or an inf.
"""

import json
import struct
from pathlib import Path

import numpy as np

from .augmentation import Domain, make_cells_domain, make_rect_domain
from .datasets import DataSet
from .tf_core import PhaseGrid

MAGIC = b"QHA1"


def _check_finite(path, values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: holds a non-finite sample (NaN or inf)")
    return values


def float_row(values) -> str:
    """Comma-joined `repr` of Python floats: the shortest text that reads back
    bit exactly, the same as `repr(float(v))` per value (-0.0, nan, inf too)."""
    return ",".join(map(repr, values))


def _interleaved(X: np.ndarray) -> np.ndarray:
    """(N, 2d) float rows re0, im0, re1, im1, ... of the (N, d) complex X."""
    out = np.empty((X.shape[0], 2 * X.shape[1]))
    out[:, 0::2] = X.real
    out[:, 1::2] = X.imag
    return out


def write_signals_binary(path, dataset: DataSet) -> None:
    X = dataset.as_matrix().astype(np.complex128)
    N, d = X.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", d, N))
        fh.write(_interleaved(X).astype("<f8").tobytes())


def read_signals_binary(path) -> DataSet:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a signal file (bad magic)")
    d, N = struct.unpack("<II", raw[4:12])
    expect = 12 + N * d * 16
    if len(raw) != expect:
        raise ValueError(f"{path}: truncated, expected {expect} bytes, got {len(raw)}")
    # a view, not re + 1j*im, which would turn a -0.0 real part into +0.0
    flat = _check_finite(path, np.frombuffer(raw[12:], dtype="<f8").astype(np.float64))
    X = flat.view(np.complex128).reshape(N, d)
    return DataSet(tuple(X), label=f"file({Path(path).name})")


def write_signals_csv(path, dataset: DataSet) -> None:
    X = dataset.as_matrix()
    N, d = X.shape
    with open(path, "w", newline="") as fh:
        fh.write(f"# d={d} n={N}\n")
        fh.writelines(float_row(row) + "\n" for row in _interleaved(X).tolist())


def read_signals_csv(path) -> DataSet:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing '# d=... n=...' header")
    header = dict(tok.split("=") for tok in lines[0].lstrip("# ").split())
    d, N = int(header["d"]), int(header["n"])
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != N:
        raise ValueError(f"{path}: header says {N} signals, found {len(rows)} rows")
    signals = []
    for ln in rows:
        vals = np.array([float(tok) for tok in ln.split(",")])
        if len(vals) != 2 * d:
            raise ValueError(f"{path}: row has {len(vals)} columns, expected {2 * d}")
        signals.append(_check_finite(path, vals).view(np.complex128))
    return DataSet(tuple(signals), label=f"file({Path(path).name})")


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
        from .augmentation import full_domain

        return full_domain(d)
    if shape == "cells":
        return make_cells_domain(PhaseGrid(d), spec["cells"])
    raise ValueError(f"unknown domain shape {shape!r}")
