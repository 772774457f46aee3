"""Minimal hand-emitted SVG output: polylines and heatmaps.

CSV is the canonical experiment output; these plots are best-effort visual
aids with no charting dependency.  Line plots are vector; a heatmap holds
one grayscale PNG (stdlib zlib/struct/base64) with one pixel per cell.
"""

import base64
import struct
import zlib
from xml.sax.saxutils import escape

import numpy as np

_W, _H, _PAD = 640, 420, 50

_COLORS = ["#1f6fb2", "#d1495b", "#2e8b57", "#8c5fb2", "#c98a1b", "#444444"]


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [(out_lo + (v - lo) / span * (out_hi - out_lo)) for v in vals]


def polyline_svg(series: dict, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """series maps a label to a list of (x, y) pairs; the title, the axis
    labels and the series labels are written as escaped XML text."""
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">'
        f"{escape(title)}</text>",
        f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" height="{_H - 2 * _PAD}" '
        'fill="none" stroke="#999"/>',
        f'<text x="{_W / 2:.0f}" y="{_H - 8}" text-anchor="middle" font-size="12">'
        f"{escape(xlabel)}</text>",
        f'<text x="14" y="{_H / 2:.0f}" font-size="12" '
        f'transform="rotate(-90 14 {_H / 2:.0f})" text-anchor="middle">{escape(ylabel)}</text>',
    ]
    for i, (label, pts) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        px = _scale([p[0] for p in pts], x0, x1, _PAD, _W - _PAD)
        py = _scale([p[1] for p in pts], y0, y1, _H - _PAD, _PAD)
        coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _PAD + 4}" y="{_PAD + 16 * i + 10}" font-size="11" '
            f'fill="{color}">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _png_gray(pixels: np.ndarray) -> bytes:
    """8-bit grayscale PNG of a (rows, cols) uint8 array, top row first."""
    h, w = pixels.shape
    # each scanline starts with filter type 0 (none)
    raw = np.hstack([np.zeros((h, 1), np.uint8), pixels]).tobytes()

    def chunk(tag, data):
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data)))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw))
            + chunk(b"IEND", b""))


def heatmap_svg(F: np.ndarray, title: str = "") -> str:
    """Grayscale cell heatmap of a real grid function (origin centered).

    The cells are one embedded PNG, one pixel per cell with shade
    int(255 * (1 - v)) for v = (F - min) / (max - min), first row at the
    bottom, scaled up with nearest-neighbour rendering; the title is escaped
    XML text.  Raises ValueError for a grid holding NaN or inf, or whose
    range overflows.
    """
    F = np.asarray(F, dtype=float)
    if not np.isfinite(F).all():
        raise ValueError("heat map grid holds a non-finite value (NaN or inf)")
    d = F.shape[0]
    # put the origin in the middle for readability
    F = np.roll(F, (d // 2, d // 2), axis=(0, 1))
    lo, hi = float(F.min()), float(F.max())
    span = hi - lo if hi > lo else 1.0
    if not np.isfinite(span):
        raise ValueError(f"heat map range [{lo!r}, {hi!r}] overflows")
    # 0 <= 255 * (1 - v) <= 255, so the cast truncates like int()
    shades = (255 * (1.0 - (F - lo) / span)).astype(np.uint8)
    png = base64.b64encode(_png_gray(shades[::-1])).decode("ascii")
    size = max(2, 560 // d)
    w = d * size
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{w + 30}" '
        f'viewBox="0 0 {w} {w + 30}">',
        f'<text x="{w / 2:.0f}" y="18" text-anchor="middle" font-size="14">'
        f"{escape(title)}</text>",
        f'<image x="0" y="30" width="{w}" height="{w}" preserveAspectRatio="none" '
        'image-rendering="optimizeSpeed" style="image-rendering:pixelated" '
        f'href="data:image/png;base64,{png}"/>',
        "</svg>",
    ])
