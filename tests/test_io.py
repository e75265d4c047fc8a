import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe import forest, io
from signpipe.landmarks import N_FEATURES, unflatten

from conftest import random_images


def test_pgm_roundtrip(tmp_path):
    img = random_images(1, 13, seed=1)[0]
    path = tmp_path / "x.pgm"
    io.write_pgm(path, img)
    back = io.read_pgm(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, img)


def test_pgm_deterministic_bytes(tmp_path):
    img = random_images(1, 8, seed=2)[0]
    io.write_pgm(tmp_path / "a.pgm", img)
    io.write_pgm(tmp_path / "b.pgm", img)
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        io.read_pgm(path)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    img = io.read_pgm(path)
    assert np.array_equal(img, np.array([[1, 2], [3, 4]], dtype=np.uint8))


@pytest.mark.parametrize("header", [b"P5\n0 0\n255\n", b"P5\n3 0\n255\n", b"P5\n-2 2\n255\n"])
def test_pgm_rejects_sizes_without_pixels(tmp_path, header):
    path = tmp_path / "empty.pgm"
    path.write_bytes(header + bytes(4))
    with pytest.raises(ValueError, match="empty.pgm"):
        io.read_pgm(path)


@st.composite
def mutated_pgms(draw):
    """A valid 3x2 PGM with bytes overwritten, inserted or cut off."""
    data = bytearray(b"P5\n# c\n3 2\n255\n" + bytes(range(10, 16)))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b" \n#-+0123456789P5xA\xff"))
        if draw(st.booleans()) and pos < len(data):
            data[pos] = byte
        else:
            data.insert(pos, byte)
    return bytes(data[: draw(st.integers(0, len(data)))])


@settings(max_examples=300, deadline=None)
@given(mutated_pgms())
@example(b"P5\n0 0\n255\n")
@example(b"P5\n-1 2\n255\nAA")
@example(b"P5\n3 2\n25x\n")
def test_pgm_mutated_bytes_raise_only_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pgm") / "m.pgm"
    path.write_bytes(data)
    try:
        img = io.read_pgm(path)
    except ValueError as exc:
        assert "m.pgm" in str(exc)
    else:
        assert img.dtype == np.uint8 and img.ndim == 2 and img.size >= 1


def reference_read_pgm(path):
    """The byte-by-byte header tokenizer read_pgm replaced, kept as its oracle."""
    data = path.read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (missing P5 magic)")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        try:
            fields.append(int(data[start:pos]))
        except ValueError:
            raise ValueError(f"{path}: bad PGM header field {data[start:pos][:16]!r}") from None
    pos += 1
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PGM size {w}x{h} has no pixels")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (expected 255)")
    pixels = data[pos : pos + w * h]
    if len(pixels) != w * h:
        raise ValueError(f"{path}: expected {w * h} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).copy()


def _read_or_error(reader, path):
    try:
        img = reader(path)
    except ValueError as exc:
        return str(exc)
    return img.shape, img.tobytes()


@settings(max_examples=300, deadline=None)
@given(mutated_pgms())
@example(b"P5#c\n3 2 255 ABCDEF")  # comment right after the magic
@example(b"P5\n3#x 2\n255\n")  # '#' inside a field is part of it
@example(b"P5\n3 2\n255 # c")  # comment where the pixels start
@example(b"P5\n# c")  # comment up to the end of the data
@example(b"P5\x0b3\x0c2\r255\tABCDEF")  # every ASCII whitespace byte
def test_read_pgm_equals_reference_tokenizer(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pgm") / "m.pgm"
    path.write_bytes(data)
    assert _read_or_error(io.read_pgm, path) == _read_or_error(reference_read_pgm, path)


def test_landmark_csv_roundtrip(tmp_path, rng):
    frames = [
        unflatten(rng.uniform(0, 1, N_FEATURES), "A"),
        unflatten(rng.uniform(0, 1, N_FEATURES), "SPACE"),
    ]
    path = tmp_path / "lm.csv"
    io.write_landmark_csv(path, frames)
    back = io.read_landmark_csv(path)
    assert [f.label for f in back] == ["A", "SPACE"]
    for orig, loaded in zip(frames, back):
        assert np.array_equal(orig.values, loaded.values)  # repr round-trip is exact


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
landmark_rows = st.lists(
    st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=N_FEATURES, max_size=N_FEATURES,
)
landmark_labels = st.one_of(
    st.sampled_from(("A", "Z", "NA", "SPACE", "DELETE", "BLANK")),
    st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789", min_size=1, max_size=8),
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(landmark_rows, landmark_labels), max_size=4))
@example(rows=[([-0.0] * N_FEATURES, "NA"), (list(EDGE_FLOATS) * (N_FEATURES // 6), "SPACE")])
def test_landmark_csv_roundtrip_is_bit_exact(tmp_path_factory, rows):
    frames = [unflatten(np.array(values), label) for values, label in rows]
    path = tmp_path_factory.mktemp("csv") / "rt.csv"
    io.write_landmark_csv(path, frames)
    back = io.read_landmark_csv(path)
    assert [f.label for f in back] == [f.label for f in frames]
    assert [f.values.tobytes() for f in back] == [f.values.tobytes() for f in frames]


def test_landmark_csv_header_line():
    header = io.LANDMARK_CSV_HEADER
    cols = header.split(",")
    assert len(cols) == 127
    assert cols[0] == "label"
    assert cols[1:4] == ["x1", "y1", "z1"]
    assert cols[-3:] == ["x42", "y42", "z42"]


def test_landmark_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,x1\n", encoding="ascii")
    with pytest.raises(ValueError, match=r":1"):
        io.read_landmark_csv(path)


def test_landmark_csv_short_row_cites_line_2(tmp_path, rng):
    frame = unflatten(rng.uniform(0, 1, N_FEATURES), "A")
    path = tmp_path / "short.csv"
    io.write_landmark_csv(path, [frame])
    lines = path.read_text(encoding="ascii").splitlines()
    row = lines[1].rsplit(",", 1)[0]  # drop one value -> 126 data columns
    path.write_text(lines[0] + "\n" + row + "\n", encoding="ascii")
    with pytest.raises(ValueError, match=r":2"):
        io.read_landmark_csv(path)


def test_landmark_csv_non_numeric_cites_line(tmp_path, rng):
    frames = [unflatten(rng.uniform(0, 1, N_FEATURES), "A") for _ in range(2)]
    path = tmp_path / "nn.csv"
    io.write_landmark_csv(path, frames)
    lines = path.read_text(encoding="ascii").splitlines()
    parts = lines[2].split(",")
    parts[5] = "oops"
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match=r":3"):
        io.read_landmark_csv(path)


@pytest.mark.parametrize("data, line", [
    (b"label,f0\nA,1\xff\n", 2),
    (b"\xe9label\n", 1),
    (io.LANDMARK_CSV_HEADER.encode() + b"\r\nA,0.5\r\n\r\nB,\x80\n", 4),
], ids=["data-row", "header", "crlf"])
def test_landmark_csv_non_ascii_byte_cites_line(tmp_path, data, line):
    path = tmp_path / "na.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: non-ASCII byte"):
        io.read_landmark_csv(path)


def test_blocks_roundtrip(tmp_path, rng):
    arrays = {
        "weights": rng.normal(0, 1, (4, 5)),
        "counts": rng.integers(0, 9, 7),
        "empty": np.zeros((0, 3), dtype=np.int32),
    }
    meta = {"schema": "test/1", "n": 3}
    path = tmp_path / "m.blk"
    io.write_blocks(path, meta, arrays)
    meta2, arrays2 = io.read_blocks(path)
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for name in arrays:
        assert arrays2[name].dtype == arrays[name].dtype
        assert np.array_equal(arrays2[name], arrays[name])


def test_blocks_deterministic_bytes(tmp_path, rng):
    arrays = {"b": rng.normal(0, 1, 3), "a": rng.normal(0, 1, 3)}
    io.write_blocks(tmp_path / "1.blk", {"k": 1}, arrays)
    io.write_blocks(tmp_path / "2.blk", {"k": 1}, dict(reversed(list(arrays.items()))))
    assert (tmp_path / "1.blk").read_bytes() == (tmp_path / "2.blk").read_bytes()


def test_blocks_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.blk"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        io.read_blocks(path)


@pytest.fixture(scope="module")
def forest_file_bytes(tiny_landmarks, tmp_path_factory):
    """A small real forest file: two shallow trees, so its JSON blocks make
    up much of the file."""
    X, y = tiny_landmarks
    model = forest.train_forest(X, y, forest.ForestHyperparams(n_estimators=2, max_depth=2), seed=0)
    path = tmp_path_factory.mktemp("forest") / "f.blk"
    forest.save_forest(path, model)
    return path.read_bytes()


def _replace_block(data: bytes, index: int, new: bytes) -> bytes:
    """data with its meta block (index 0) or first array header (index 1)
    replaced by new, length prefix included."""
    pos = len(io.BLOCK_MAGIC)
    n = int.from_bytes(data[pos : pos + 8], "little")
    if index == 1:  # past the meta block and the array count
        pos += 8 + n + 8
        n = int.from_bytes(data[pos : pos + 8], "little")
    return data[:pos] + len(new).to_bytes(8, "little") + new + data[pos + 8 + n :]


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.replace(b'"dtype":"<i8"', b'"dtype":"<q8"', 1), "cannot be decoded"),
    (lambda d: d.replace(b'"dtype":"<f8"', b'"dtype":"<i0"', 1), "cannot be decoded"),
    (lambda d: d.replace(b'"dtype":"<i8"', b'"dtype":"|O1"', 1), "cannot be decoded"),
    (lambda d: d.replace(b'"dtype":"<i8"', b'"dtype":"<04"', 1), "cannot be decoded"),
    (lambda d: _replace_block(d, 1, b'{"dtype":"04","name":"x","shape":[1]}'), "cannot be decoded"),
    (lambda d: _replace_block(d, 1, b'{"dtype":"<f8","name":"x","shape":[1.5]}'), "cannot be decoded"),
    (lambda d: _replace_block(d, 0, b"[1]"), "meta block"),
    (lambda d: _replace_block(d, 1, b"[1]"), "array header"),
    (lambda d: _replace_block(d, 1, b'{"dtype":"<f8","shape":[0]}'), "array header"),
    (lambda d: _replace_block(d, 1, b'{"name":3,"dtype":"<f8","shape":[0]}'), "array header"),
    (lambda d: _replace_block(d, 0, b'{"a":\xff}'), "not UTF-8 JSON"),
], ids=["unknown-dtype", "zero-size-dtype", "object-dtype", "leading-zero-count",
        "bare-leading-zero-count", "float-shape", "meta-list",
        "header-list", "header-without-name", "header-int-name", "meta-not-utf8"])
def test_blocks_malformed_json_raise_value_error_naming_the_file(
    tmp_path, forest_file_bytes, mutate, message
):
    bad = mutate(forest_file_bytes)
    assert bad != forest_file_bytes
    path = tmp_path / "bad.blk"
    path.write_bytes(bad)
    with pytest.raises(ValueError, match=message) as exc:
        io.read_blocks(path)
    assert "bad.blk" in str(exc.value)


@st.composite
def mutated(draw, data: bytes, alphabet: bytes):
    """data with one to four bytes overwritten, inserted or deleted, the new
    ones drawn from alphabet, then possibly cut off."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(buf) - 1))
        byte = draw(st.sampled_from(alphabet))
        action = draw(st.sampled_from(["set", "insert", "delete"]))
        if action == "set":
            buf[pos] = byte
        elif action == "insert":
            buf.insert(pos, byte)
        else:
            del buf[pos]
    return bytes(buf[: draw(st.integers(0, len(buf)))] if draw(st.booleans()) else buf)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_forest_mutated_bytes_raise_only_value_error(tmp_path_factory, forest_file_bytes, data):
    path = tmp_path_factory.mktemp("blk") / "m.blk"
    # replacement bytes favour JSON syntax, digits and dtype letters
    path.write_bytes(data.draw(mutated(forest_file_bytes, b'[]{}":,-.0123456789eEfiuOV<|\x00\x7f\xff')))
    try:
        io.read_blocks(path)
    except ValueError as exc:
        assert "m.blk" in str(exc)
    try:
        forest.load_forest(path)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def stream_csv_bytes(tmp_path_factory):
    rng = np.random.default_rng(4)
    frames = [unflatten(rng.uniform(0, 1, N_FEATURES), lab) for lab in ("A", "NA", "SPACE")]
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    io.write_landmark_csv(path, frames)
    return path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_landmark_csv_mutated_bytes_raise_only_value_error(tmp_path_factory, stream_csv_bytes, data):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_bytes(data.draw(mutated(stream_csv_bytes, b",\n\r .-+eE0123456789naifANIF_x\x00\xff")))
    try:
        frames = io.read_landmark_csv(path)
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc))
        return
    assert all(f.values.shape == (N_FEATURES,) and np.all(np.isfinite(f.values)) for f in frames)


def test_json_report_stable_bytes(tmp_path):
    payload = {"b": 2, "a": [1, 2], "nested": {"y": 0.5, "x": 1}}
    io.write_json_report(tmp_path / "r1.json", payload)
    io.write_json_report(tmp_path / "r2.json", {"nested": {"x": 1, "y": 0.5}, "a": [1, 2], "b": 2})
    b1 = (tmp_path / "r1.json").read_bytes()
    assert b1 == (tmp_path / "r2.json").read_bytes()
    assert b1.endswith(b"\n")


def test_json_report_rejects_non_finite_numbers(tmp_path):
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            io.write_json_report(tmp_path / "r.json", {"history": [0.5, value]})
        assert not (tmp_path / "r.json").exists()


def test_read_text_names_the_file_and_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"ok\n\nab\xffc\n")
    for encoding, name in (("ascii", "ASCII"), ("utf-8", "UTF-8")):
        with pytest.raises(ValueError) as exc:
            io.read_text(path, encoding)
        assert str(exc.value) == f"{path}:3: non-{name} byte 0xff"
    path.write_bytes(b"caf\xc3\xa9\n")
    assert io.read_text(path, "utf-8") == "caf\u00e9\n"


def test_sha256_helpers():
    data = b"hello"
    # pinned: sha256 of "hello"
    assert io.sha256_bytes(data) == (
        "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
    )
