import numpy as np
import pytest

from promptscan.errors import ContractError, DimensionError, ParseError
from promptscan.pgm import read_pgm, write_pgm


def test_read_literal_bytes(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img, meta = read_pgm(p)
    np.testing.assert_array_equal(img, [[0, 128], [255, 64]])
    assert img.dtype == np.float64
    assert meta == {"width": 2, "height": 2, "maxval": 255}


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = np.floor(rng.uniform(0, 256, (7, 11))).clip(0, 255)
    p = tmp_path / "a.pgm"
    write_pgm(p, img)
    back, meta = read_pgm(p)
    np.testing.assert_array_equal(back, img)
    assert meta["width"] == 11 and meta["height"] == 7


def test_sixteen_bit_rescales_to_255(tmp_path):
    p = tmp_path / "w.pgm"
    samples = np.array([0, 32768, 65535], dtype=">u2")
    p.write_bytes(b"P5\n3 1\n65535\n" + samples.tobytes())
    img, meta = read_pgm(p)
    assert meta["maxval"] == 65535
    assert img[0, 0] == 0.0
    assert img[0, 2] == 255.0
    assert abs(img[0, 1] - 32768 * 255.0 / 65535) < 1e-12


def test_odd_maxval_rescales(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n1 1\n100\n" + bytes([50]))
    img, _ = read_pgm(p)
    assert img[0, 0] == pytest.approx(127.5, abs=1e-12)


@pytest.mark.parametrize(
    "header, raster, at",
    [
        pytest.param(b"P5\n3 1\n100\n", bytes([50, 200, 255]), 12, id="8-bit"),
        pytest.param(
            b"P5\n3 1\n1000\n", np.array([5, 1000, 1001], ">u2").tobytes(), 16, id="16-bit"
        ),
    ],
)
def test_sample_above_maxval_names_its_byte_offset(tmp_path, header, raster, at):
    p = tmp_path / "over.pgm"
    p.write_bytes(header + raster)
    with pytest.raises(ParseError, match=f"at byte {at} exceeds maxval"):
        read_pgm(p)


def test_writer_rounds_half_away_from_zero(tmp_path):
    p = tmp_path / "r.pgm"
    write_pgm(p, np.array([[254.5, 0.5, 1.49, -3.0]]))
    img, _ = read_pgm(p)
    np.testing.assert_array_equal(img, [[255, 1, 1, 0]])


def test_writer_clamps_out_of_range(tmp_path):
    p = tmp_path / "c.pgm"
    write_pgm(p, np.array([[300.0, -40.0, 255.0]]))
    img, _ = read_pgm(p)
    np.testing.assert_array_equal(img, [[255, 0, 255]])


def test_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "h.pgm"
    p.write_bytes(b"P5 # magic\n# width next\n  2\t1 # h\n# maxval\n255\n" + bytes([9, 7]))
    img, meta = read_pgm(p)
    np.testing.assert_array_equal(img, [[9, 7]])
    assert meta == {"width": 2, "height": 1, "maxval": 255}


def test_comment_right_after_maxval_names_its_byte_offset(tmp_path):
    # the one byte after maxval must be whitespace, so a comment there
    # is not read as samples
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n2 2\n255#x\n" + bytes([1, 2, 3, 4]))
    with pytest.raises(ParseError, match="whitespace after maxval at byte 10"):
        read_pgm(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "b.pgm"
    p.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ParseError, match="bad magic at byte 0"):
        read_pgm(p)


def test_truncated_raster_reports_need(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
    with pytest.raises(ParseError, match="raster needs 16 bytes"):
        read_pgm(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4")
    with pytest.raises(ParseError, match="header ended early"):
        read_pgm(p)


def test_non_numeric_header_field(tmp_path):
    p = tmp_path / "n.pgm"
    p.write_bytes(b"P5\nwide 2\n255\n" + bytes(4))
    with pytest.raises(ParseError, match="non-numeric width"):
        read_pgm(p)


def test_maxval_out_of_range(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n1 1\n70000\n" + bytes(2))
    with pytest.raises(ParseError, match="maxval 70000"):
        read_pgm(p)
    p.write_bytes(b"P5\n1 1\n0\n" + bytes(1))
    with pytest.raises(ParseError, match="maxval 0"):
        read_pgm(p)


def test_zero_extent_rejected(tmp_path):
    p = tmp_path / "z.pgm"
    p.write_bytes(b"P5\n0 3\n255\n")
    with pytest.raises(ParseError, match="non-positive extents"):
        read_pgm(p)


def test_writer_rejects_non_2d():
    with pytest.raises(DimensionError, match="2-d"):
        write_pgm("/tmp/x.pgm", np.zeros((1, 2, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_writer_rejects_non_finite_values(tmp_path, value):
    p = tmp_path / "f.pgm"
    with pytest.raises(ContractError, match="1 non-finite value"):
        write_pgm(p, np.array([[1.0, value, 3.0]]))
    assert not p.exists()
