import base64
import struct
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest

from tfaug.svg import heatmap_svg, polyline_svg

SVG = "{http://www.w3.org/2000/svg}"


def _decode_png(data: bytes) -> np.ndarray:
    """Pixels of an 8-bit grayscale, unfiltered PNG, top row first."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = {}, 8
    while pos < len(data):
        (n,) = struct.unpack(">I", data[pos:pos + 4])
        tag, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + n]
        (crc,) = struct.unpack(">I", data[pos + 8 + n:pos + 12 + n])
        assert crc == zlib.crc32(tag + body)
        chunks[tag] = chunks.get(tag, b"") + body
        pos += 12 + n
    assert pos == len(data) and chunks[b"IEND"] == b""
    w, h, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", chunks[b"IHDR"])
    assert (depth, color, comp, filt, interlace) == (8, 0, 0, 0, 0)
    raw = np.frombuffer(zlib.decompress(chunks[b"IDAT"]), np.uint8).reshape(h, w + 1)
    assert not raw[:, 0].any()  # filter type 0 on every scanline
    return raw[:, 1:]


def _parse(doc: str):
    root = ET.fromstring(doc)
    (image,) = root.findall(f"{SVG}image")
    head, payload = image.get("href").split(",", 1)
    assert head == "data:image/png;base64"
    return root, image, _decode_png(base64.b64decode(payload))


def _expected_shades(F: np.ndarray) -> np.ndarray:
    """The per-cell shades int(255 * (1 - v)) of the rolled grid, bottom row first."""
    d = F.shape[0]
    F = np.roll(F, (d // 2, d // 2), axis=(0, 1))
    lo, hi = float(F.min()), float(F.max())
    span = hi - lo if hi > lo else 1.0
    shades = [[int(255 * (1.0 - (F[i, j] - lo) / span)) for j in range(d)] for i in range(d)]
    return np.array(shades[::-1])


@pytest.mark.parametrize("d", [1, 2, 7, 9, 16])
def test_pixels_match_cell_shades(d):
    F = np.random.default_rng(d).standard_normal((d, d))
    F[0, 0] = -0.0
    root, image, pixels = _parse(heatmap_svg(F, "grid"))
    assert pixels.shape == (d, d)
    assert np.array_equal(pixels, _expected_shades(F))
    assert d == 1 or (pixels.min(), pixels.max()) == (0, 255)
    size = max(2, 560 // d)
    w = d * size
    assert (root.get("width"), root.get("height"), root.get("viewBox")) == (
        str(w), str(w + 30), f"0 0 {w} {w + 30}")
    assert root.find(f"{SVG}text").text == "grid"
    assert [image.get(k) for k in ("x", "y", "width", "height")] == ["0", "30", str(w), str(w)]
    assert "image-rendering:pixelated" in image.get("style")


def test_rows_bottom_up_and_origin_centred():
    # grid cell (1, 2) rolls to (5, 6); image rows count from the bottom
    F = np.zeros((9, 9))
    F[1, 2] = 1.0
    _, _, pixels = _parse(heatmap_svg(F))
    ys, xs = np.nonzero(pixels == 0)
    assert (ys.tolist(), xs.tolist()) == ([9 - 1 - 5], [6])
    assert (pixels == 255).sum() == 80


def test_constant_grid_is_white():
    _, _, pixels = _parse(heatmap_svg(np.full((7, 7), 3.5)))
    assert pixels.shape == (7, 7) and (pixels == 255).all()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_grid_rejected(value):
    F = np.zeros((8, 8))
    F[2, 5] = value
    with pytest.raises(ValueError, match="non-finite"):
        heatmap_svg(F)


def test_overflowing_range_rejected():
    F = np.zeros((4, 4))
    F[0, 0], F[1, 1] = -1e308, 1e308
    with pytest.raises(ValueError, match="overflows"):
        heatmap_svg(F)


def test_text_is_escaped():
    title = 'a<b & "c"'
    root = ET.fromstring(heatmap_svg(np.eye(3), title))
    assert root.find(f"{SVG}text").text == title
    doc = polyline_svg({"x<y & z": [(0.0, 1.0), (1.0, 2.0)]}, title, "t > 0", "&amp;")
    texts = [t.text for t in ET.fromstring(doc).iter(f"{SVG}text")]
    assert texts == [title, "t > 0", "&amp;", "x<y & z"]
