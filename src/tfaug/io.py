"""Signal-set and domain serialization.

Binary format: little-endian, magic "QHA1", u32 d, u32 N, then N*d
complex samples as (f64 real, f64 imag) pairs, which is the memory of the
dataset's (N, d) complex128 matrix; it is written and read as one block.
CSV alternative: one signal per row with 2d interleaved re,im columns and a
header row "# d=<d> n=<N>"; each value's text is `repr`, formatted by
`floattext.float_chunks` and written chunk by chunk, so the writer never
holds the whole text.  Round trips are bit exact.  The readers reject a
file that holds a NaN or an inf, or an empty signal.
"""

import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np

from .augmentation import Domain, full_domain, make_cells_domain, make_rect_domain
from .datasets import DataSet
from .floattext import float_chunks

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
    return DataSet._kept(_check_finite(path, X))


def write_signals_csv(path, dataset: DataSet) -> None:
    N, d = dataset.signals.shape
    # the C-ordered complex128 rows viewed as re0, im0, re1, im1, ... floats
    values = dataset.signals.view(np.float64)
    with open(path, "wb") as fh:
        fh.write(f"# d={d} n={N}\n".encode())
        fh.writelines(float_chunks(values))
        fh.write(b"\n")


def read_signals_csv(path) -> DataSet:
    with open(path) as fh:
        head = fh.readline().rstrip("\n")
        if not head.startswith("#"):
            raise ValueError(f"{path}: missing '# d=... n=...' header")
        header = dict(tok.partition("=")[::2] for tok in head.lstrip("# ").split())
        for key in ("d", "n"):
            if not header.get(key, "").isdecimal():
                raise ValueError(f"{path}: header {head!r} lacks a '{key}=<count>' field")
        d, N = int(header["d"]), int(header["n"])
        first = next((ln for ln in fh if ln.strip()), "")  # loadtxt warns when it finds no row
        try:
            # numpy's C parser, with no comment or quote handling: every token
            # must be a whole float literal, and only empty lines are skipped
            rows = itertools.chain([first], fh)
            X = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if first else np.empty((0, 2 * d))
        except ValueError:  # a malformed row, or a line of blanks
            X = None
    if X is None or X.shape != (N, 2 * d):
        X = _csv_rows(path, d, N)
    X.setflags(write=False)
    X = _check_finite(path, X).view(np.complex128)
    return DataSet._kept(X)


def _csv_rows(path, d: int, N: int) -> np.ndarray:
    """The data rows of the CSV file at path, for a file the one-pass read
    rejects: blank lines skipped, the row count and each row's column count
    checked before parsing, so the ValueError names what is wrong."""
    rows = [ln for ln in Path(path).read_text().splitlines()[1:] if ln.strip()]
    if len(rows) != N:
        raise ValueError(f"{path}: header says {N} signals, found {len(rows)} rows")
    for ln in rows:
        if ln.count(",") + 1 != 2 * d:
            raise ValueError(f"{path}: row has {ln.count(',') + 1} columns, expected {2 * d}")
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows else np.empty((0, 2 * d))


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
    """The JSON object that `domain_from_json` reads back to the same mask."""
    if domain.rect is not None:
        width, height, center = domain.rect
        spec = {"shape": "rect", "width": width, "height": height, "center": list(center)}
    elif domain.mask.all():
        spec = {"shape": "full"}
    else:
        spec = {"shape": "cells", "cells": domain.cells().tolist()}
    return json.dumps({"d": domain.d, **spec}, sort_keys=True)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_pair(value, item_ok) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(item_ok, value))


def domain_from_json(text: str, d: int | None = None) -> Domain:
    """The domain a `domain_to_json` object describes.

    The object needs an integer d >= 1 and a shape ("rect", the default,
    "full" or "cells"); a rectangle needs finite numeric width and height
    and takes an optional [x, y] center, a cell set a list of [m, n]
    integer pairs.  Given d, the object's d must equal it; that is checked
    before any d x d grid is built.  Anything else raises ValueError naming
    the field.
    """
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError(f"domain must be a JSON object, got {type(spec).__name__}")
    expected, d = d, spec.get("d")
    if not (_is_int(d) and d >= 1):
        raise ValueError(f"domain field 'd' must be an integer >= 1, got {d!r}")
    if expected is not None and d != expected:
        raise ValueError(f"domain field 'd' is {d}, but the signals have d = {expected}")
    shape = spec.get("shape", "rect")
    if shape == "rect":
        for key in ("width", "height"):
            value = spec.get(key)
            if not _is_number(value):
                raise ValueError(f"domain field {key!r} must be a finite number, got {value!r}")
        center = spec.get("center", [0.0, 0.0])
        if not _is_pair(center, _is_number):
            raise ValueError(f"domain field 'center' must be two finite numbers, got {center!r}")
        return make_rect_domain(d, spec["width"], spec["height"], tuple(center))
    if shape == "full":
        return full_domain(d)
    if shape == "cells":
        cells = spec.get("cells")
        bad = [c for c in cells if not _is_pair(c, _is_int)] if isinstance(cells, list) else [cells]
        if bad:
            raise ValueError(
                f"domain field 'cells' must be a list of [m, n] integer pairs, got {bad[0]!r}"
            )
        return make_cells_domain(d, cells)
    raise ValueError(f"unknown domain shape {shape!r}")
