"""SVG writers: format tag, determinism, NaN handling, escaping, decimation."""

import numpy as np
import pytest

from gemdiff.svgplot import heatmap, line_plot


def _series():
    x = np.linspace(0.0, 1.0, 11)
    return [
        ("signal", x, np.exp(-x), "line"),
        ("fit", x, np.exp(-x) * 1.01, "dashed"),
        ("data", x[::2], np.exp(-x[::2]), "markers"),
    ]


def test_line_plot_is_tagged_and_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    line_plot(a, "decay", "time (us)", "efficiency", _series())
    line_plot(b, "decay", "time (us)", "efficiency", _series())
    text = a.read_text()
    assert text.startswith("<svg")
    assert "<!-- format: gem-svg/1 -->" in text
    assert "</svg>" in text
    assert a.read_bytes() == b.read_bytes()


def test_line_plot_breaks_at_nans(tmp_path):
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([1.0, np.nan, 2.0, 3.0])
    path = tmp_path / "gap.svg"
    line_plot(path, "gap", "x", "y", [("s", x, y, "line")])
    text = path.read_text()
    # the NaN sample must not appear as a drawn point
    assert "nan" not in text.lower().replace("sans", "")
    polys = [ln for ln in text.splitlines() if "<polyline" in ln]
    assert len(polys) == 1
    assert polys[0].count(",") == 3  # three finite points survive


def test_labels_are_xml_escaped(tmp_path):
    path = tmp_path / "esc.svg"
    line_plot(
        path,
        "k < 0 & eta > 0",
        "tau_W = 2 D <k^2>",
        "eff",
        [("a & b", [0, 1], [0, 1], "line")],
    )
    text = path.read_text()
    assert "k &lt; 0 &amp; eta &gt; 0" in text
    assert "a &amp; b" in text
    assert "k < 0" not in text


def test_heatmap_decimates_large_grids(tmp_path):
    z = np.random.default_rng(7).random((300, 500))
    path = tmp_path / "map.svg"
    heatmap(path, "phase", "z (m)", "r (m)", np.arange(500), np.arange(300), z)
    text = path.read_text()
    assert "<!-- format: gem-svg/1 -->" in text
    cells = text.count('<rect x="')
    assert cells <= 96 * 96 + 2  # frame rects aside, capped by decimation
    assert cells > 96  # still a real image


def test_heatmap_is_deterministic(tmp_path):
    z = np.outer(np.linspace(0, 1, 20), np.linspace(0, 2, 30))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        heatmap(path, "t", "x", "y", np.arange(30), np.arange(20), z)
    assert a.read_bytes() == b.read_bytes()
