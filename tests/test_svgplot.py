import pytest

from swan_aircomp.svgplot import render_line_chart


def two_series():
    return [
        ("alpha", [1.0, 2.0, 3.0], [5.0, 4.0, 2.0]),
        ("beta", [1.0, 2.0, 3.0], [1.0, 1.5, 1.2]),
    ]


def test_rejects_bad_series():
    with pytest.raises(ValueError):
        render_line_chart([])
    with pytest.raises(ValueError):
        render_line_chart([("a", [1, 2], [1.0])])
    with pytest.raises(ValueError):
        render_line_chart([("a", [], [])])
    with pytest.raises(ValueError):
        render_line_chart([("a", [1.0], [0.0])], log_y=True)
    with pytest.raises(ValueError):
        render_line_chart([("a", [1.0], [-2.0])], log_y=True)


def test_document_structure():
    text = render_line_chart(two_series(), x_label="x", y_label="y")
    assert text.startswith("<svg xmlns=")
    assert text.endswith("</svg>\n")
    assert ">x</text>" in text
    assert ">y</text>" in text
    assert "alpha" in text and "beta" in text


def test_marker_and_line_counts():
    text = render_line_chart(two_series())
    assert text.count("<polyline") == 2
    assert text.count("<circle") == 6


def test_identical_inputs_identical_bytes():
    a = render_line_chart(two_series(), x_label="n", y_label="mse", log_y=True)
    b = render_line_chart(two_series(), x_label="n", y_label="mse", log_y=True)
    assert a == b


def test_log_scale_uses_decade_ticks():
    text = render_line_chart(
        [("a", [0.0, 1.0, 2.0, 3.0, 4.0], [0.01, 0.1, 1.0, 10.0, 100.0])],
        log_y=True,
    )
    for label in (">0.01</text>", ">0.1</text>", ">1</text>", ">10</text>", ">100</text>"):
        assert label in text


def test_degenerate_ranges_still_render():
    text = render_line_chart([("a", [1.0], [2.0])])
    assert text.count("<circle") == 1
    flat = render_line_chart([("a", [0.0, 1.0], [0.0, 0.0])])
    assert flat.count("<polyline") == 1
