import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statseg import data
from statseg.data import (Sample, SynthConfig, generate_synthetic,
                          load_dataset, load_mask_stack, read_image_pgm,
                          read_mask_pgm, save_sample, select_largest_roi_slice,
                          standard_benchmark_config,
                          zero_contrast_benchmark_config)
from statseg.errors import (AllSlicesEmptyError, EmptyMaskError,
                            EmptyStackError, InfeasibleROIError,
                            InvalidConfigError, MalformedFileError,
                            MissingPairError, ShapeMismatchError)
from statseg.grid import GridShape, Mask, foreground_count, summary_stat
from statseg.pgm import read_pgm, write_pgm


def small_config(**kwargs):
    base = dict(shape=GridShape(32, 32), n_samples=5, seed=1)
    base.update(kwargs)
    return SynthConfig(**base)


def count_mask(counts, shape=(4, 4)):
    stack = np.zeros((len(counts),) + shape, dtype=bool)
    for k, c in enumerate(counts):
        stack[k].flat[:c] = True
    return stack


def test_synth_config_validation():
    with pytest.raises(InvalidConfigError):
        small_config(roi_fraction_range=(0.3, 0.2))
    with pytest.raises(InvalidConfigError):
        small_config(roi_fraction_range=(0.1, 0.6))
    with pytest.raises(InvalidConfigError):
        small_config(n_samples=0)
    with pytest.raises(InvalidConfigError):
        small_config(noise_std=-0.1)


def test_generate_deterministic():
    a = generate_synthetic(small_config())
    b = generate_synthetic(small_config())
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image.values, sb.image.values)
        assert np.array_equal(sa.gt.values, sb.gt.values)


def test_generate_fraction_bounds():
    cfg = small_config(n_samples=20)
    lo, hi = cfg.roi_fraction_range
    for s in generate_synthetic(cfg):
        assert lo <= summary_stat(s.gt) <= hi
        assert s.stat == summary_stat(s.gt)


def test_generate_zero_contrast_zero_noise_constant_image():
    cfg = small_config(contrast=0.0, noise_std=0.0)
    for s in generate_synthetic(cfg):
        assert np.all(s.image.values == cfg.background_level)
        assert foreground_count(s.gt) > 0


def test_generate_contrast_gap_exact_without_noise():
    cfg = small_config(contrast=0.4, noise_std=0.0, background_level=0.3)
    for s in generate_synthetic(cfg):
        fg = s.image.values[s.gt.values == 1.0]
        bg = s.image.values[s.gt.values == 0.0]
        assert np.all(fg == pytest.approx(0.7))
        assert np.all(bg == pytest.approx(0.3))


def test_generate_infeasible_roi():
    cfg = SynthConfig(shape=GridShape(4, 4), n_samples=1,
                      roi_fraction_range=(0.01, 0.02), seed=0)
    with pytest.raises(InfeasibleROIError):
        generate_synthetic(cfg)


def test_sample_invariants_enforced():
    s = generate_synthetic(small_config(n_samples=1))[0]
    with pytest.raises(ValueError):
        Sample(image=s.image, gt=s.gt, weak=s.weak, stat=0.999)
    ones = Mask(np.ones((32, 32)))
    with pytest.raises(ValueError):
        Sample(image=s.image, gt=s.gt, weak=ones, stat=s.stat)


def test_select_largest_roi_slice():
    assert select_largest_roi_slice(count_mask([5, 9, 2])) == 1
    assert select_largest_roi_slice(count_mask([7, 7])) == 0
    assert select_largest_roi_slice(count_mask([3])) == 0
    with pytest.raises(AllSlicesEmptyError):
        select_largest_roi_slice(count_mask([0, 0]))
    with pytest.raises(EmptyStackError):
        select_largest_roi_slice(count_mask([]))


def test_pgm_roundtrip(tmp_path):
    arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "x.pgm"
    write_pgm(path, arr)
    back, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(back, arr)


def test_pgm_reader_handles_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
    arr, maxval = read_pgm(path)
    assert np.array_equal(arr, [[0, 1], [2, 3]])


def test_pgm_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3")
    with pytest.raises(MalformedFileError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(MalformedFileError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 1\n1\n\x00\x02")  # a pixel above maxval
    with pytest.raises(MalformedFileError):
        read_pgm(path)


def retired_read_pgm(data: bytes):
    """The byte-at-a-time header scanner that read_pgm's one pattern replaced, kept as
    the reference that read_pgm must agree with: (array, maxval) or MalformedFileError."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise MalformedFileError("truncated PGM header")
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    pos += 1  # the single whitespace after maxval
    if tokens[0] != b"P5":
        raise MalformedFileError(f"not a binary PGM (magic {tokens[0]!r})")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise MalformedFileError("non-numeric PGM header") from exc
    if w < 1 or h < 1:
        raise MalformedFileError(f"bad dimensions {w}x{h}")
    if not 1 <= maxval <= 255:
        raise MalformedFileError(f"unsupported maxval {maxval}")
    raster = data[pos:pos + w * h]
    if len(raster) != w * h:
        raise MalformedFileError(f"expected {w * h} pixels, found {len(raster)}")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()
    if arr.max() > maxval:
        raise MalformedFileError(f"pixel value {arr.max()} above maxval {maxval}")
    return arr, maxval


def pgm_outcome(read, *args):
    """(shape, pixel bytes, maxval) of what read(*args) returns, or None for
    MalformedFileError; any other exception propagates."""
    try:
        arr, maxval = read(*args)
    except MalformedFileError:
        return None
    return arr.shape, arr.tobytes(), maxval


def assert_same_outcome_as_retired_scanner(path, raw: bytes):
    """read_pgm agrees with the retired scanner on raw, except that the scanner's int()
    also took a number written with '+' or '_' ("+2", "2_0"), which read_pgm rejects."""
    path.write_bytes(raw)
    expected = pgm_outcome(retired_read_pgm, raw)
    actual = pgm_outcome(read_pgm, path)
    if actual != expected:
        assert actual is None and (b"+" in raw or b"_" in raw), raw[:40]
    return actual


VALID_PGMS = [
    b"P5\n3 2\n255\n" + bytes([0, 17, 255, 128, 127, 3]),
    b"P5 # comment\n2 2 1\n" + bytes([0, 1, 1, 0]),
    b"P5\n1 4\n\n200\n" + bytes([200, 0, 100, 9]),
]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(VALID_PGMS).flatmap(lambda raw: st.tuples(
    st.just(raw), st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, len(raw) - 1)),
        st.tuples(st.just("flip"), st.lists(st.integers(0, 8 * len(raw) - 1),
                                            min_size=1, max_size=3))))))
def test_pgm_corruption_parses_or_raises_malformed(tmp_path, case):
    raw, (kind, where) = case
    raw = bytearray(raw)
    if kind == "truncate":
        raw = raw[:where]
    else:
        for k in where:
            raw[k // 8] ^= 1 << (k % 8)
    path = tmp_path / "x.pgm"
    if assert_same_outcome_as_retired_scanner(path, bytes(raw)) is None:
        return
    arr, maxval = read_pgm(path)
    assert arr.dtype == np.uint8 and arr.ndim == 2 and 1 <= maxval <= 255
    # what parses is a valid image and mask
    read_image_pgm(path)
    read_mask_pgm(path)


SPACES = [bytes([b]) for b in range(256) if bytes([b]).isspace()]


def header_variant(lead=b"", seps=(b"\n", b" ", b"\n", b"\n"), numbers=(b"2", b"2", b"3")):
    """A 2x2 maxval-3 P5 file (given the default numbers) with `lead` before the magic
    and seps[k] after the k-th header token."""
    tokens = (b"P5", *numbers)
    return lead + b"".join(t + sep for t, sep in zip(tokens, seps)) + bytes([0, 1, 2, 3])


def test_read_pgm_accepts_each_whitespace_byte_as_a_separator(tmp_path):
    assert SPACES == [b"\t", b"\n", b"\x0b", b"\x0c", b"\r", b" "]
    for b in range(256):
        sep = bytes([b])
        for k in range(4):
            seps = [b"\n"] * 4
            seps[k] = sep
            outcome = assert_same_outcome_as_retired_scanner(tmp_path / "s.pgm",
                                                              header_variant(seps=seps))
            assert (outcome is not None) == (sep in SPACES), (b, k)
        # a run of separators, and a byte before the magic
        assert_same_outcome_as_retired_scanner(tmp_path / "r.pgm", header_variant(
            seps=(sep + b" ", b" " + sep, sep * 3, b"\n")))
        assert_same_outcome_as_retired_scanner(tmp_path / "l.pgm", header_variant(lead=sep))


@pytest.mark.parametrize("lead,seps", [
    (b"\n\t ", None),
    (b"# before the magic\n", None),
    (b"#\n#\n", None),
    (b"  # indented comment\r\n", None),
    (b"#", None),                                        # a comment that never ends
    (b"# a\r9 9 9\n", None),                               # only a newline ends one
    (b"", (b"\n# one\n# two\n", b" ", b"\n", b"\n")),
    (b"", (b" #no space\n\n", b"\t#x\r\n", b"\n#\n", b"\n")),
    (b"", (b"#glued to P5\n", b" ", b"\n", b"\n")),    # a '#' inside a token
    (b"", (b"\n", b"#glued to the width\n", b"\n", b"\n")),
    (b"", (b"\n", b" ", b"\n", b"#comment after maxval\n")),
    (b"", (b"\n", b" ", b"\n", b"")),                    # no byte after maxval
])
def test_read_pgm_comments_and_leading_whitespace_match_the_retired_scanner(tmp_path, lead,
                                                                          seps):
    raw = header_variant(lead=lead, **({} if seps is None else {"seps": seps}))
    assert_same_outcome_as_retired_scanner(tmp_path / "c.pgm", raw)


@pytest.mark.parametrize("numbers,parses", [
    ((b"2", b"2", b"3"), True),
    ((b"02", b"0002", b"003"), True),
    ((b"0" * 4299 + b"2", b"2", b"3"), True),            # 4300 digits: int() takes them
    ((b"0" * 4300 + b"2", b"2", b"3"), False),           # 4301 digits
    ((b"9" * 5000, b"2", b"3"), False),
    ((b"2", b"2", b"9" * 5000), False),
    ((b"-2", b"2", b"3"), False),
    ((b"0x2", b"2", b"3"), False),
    ((b"2.0", b"2", b"3"), False),
    ((b"0", b"2", b"3"), False),
    ((b"2", b"2", b"0"), False),
    ((b"2", b"2", b"256"), False),
    ((b"2", b"2", b"2"), False),                          # pixel 3 above maxval 2
    ((b"\xd9\xa2", b"2", b"3"), False),                   # a non-ASCII digit
])
def test_read_pgm_numbers_match_the_retired_scanner(tmp_path, numbers, parses):
    outcome = assert_same_outcome_as_retired_scanner(tmp_path / "n.pgm",
                                                      header_variant(numbers=numbers))
    assert (outcome is not None) == parses


@pytest.mark.parametrize("numbers", [(b"+2", b"2", b"3"), (b"2", b"2", b"+3"),
                                     (b"2", b"2", b"0_3")])
def test_read_pgm_rejects_signs_and_underscores_that_int_took(tmp_path, numbers):
    raw = header_variant(numbers=numbers)
    assert pgm_outcome(retired_read_pgm, raw) is not None
    path = tmp_path / "p.pgm"
    path.write_bytes(raw)
    with pytest.raises(MalformedFileError):
        read_pgm(path)


def test_save_load_roundtrip(tmp_path):
    samples = generate_synthetic(small_config(n_samples=3))
    for k, s in enumerate(samples):
        save_sample(s, tmp_path, f"{k:04d}")
    loaded = load_dataset(tmp_path)
    assert len(loaded) == 3
    for orig, back in zip(samples, loaded):
        quantized = np.rint(orig.image.values * 255.0) / 255.0
        assert np.array_equal(back.image.values, quantized)
        assert np.array_equal(back.gt.values, orig.gt.values)


def test_load_empty_dir(tmp_path):
    (tmp_path / "notes.txt").write_text("no pairs here")
    with pytest.raises(MissingPairError, match=str(tmp_path)):
        load_dataset(tmp_path)


def test_load_missing_pair(tmp_path):
    write_pgm(tmp_path / "a.img.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(MissingPairError):
        load_dataset(tmp_path)


def test_load_orphan_mask(tmp_path):
    write_pgm(tmp_path / "a.mask.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(MissingPairError):
        load_dataset(tmp_path)


def test_load_unpaired_file_raises_before_any_read(tmp_path, monkeypatch):
    write_pgm(tmp_path / "a.img.pgm", np.full((2, 2), 100, dtype=np.uint8))
    write_pgm(tmp_path / "a.mask.pgm", np.zeros((2, 2), dtype=np.uint8))  # would raise
    write_pgm(tmp_path / "b.img.pgm", np.full((2, 2), 100, dtype=np.uint8))
    write_pgm(tmp_path / "c.mask.pgm", np.full((2, 2), 255, dtype=np.uint8))

    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(data, "read_pgm", no_read)
    with pytest.raises(MissingPairError, match=r"b\.img\.pgm has no pair \(2 unpaired"):
        load_dataset(tmp_path)


def test_load_order_is_image_file_name_order(tmp_path):
    """`a.b.img.pgm` sorts before `a.img.pgm`, though stem `a` sorts before `a.b`."""
    for stem, level in [("a", 10), ("a.b", 20), ("b", 30)]:
        write_pgm(tmp_path / f"{stem}.img.pgm", np.full((2, 2), level, dtype=np.uint8))
        write_pgm(tmp_path / f"{stem}.mask.pgm", np.full((2, 2), 255, dtype=np.uint8))
    levels = [s.image.values[0, 0] * 255 for s in load_dataset(tmp_path)]
    assert np.allclose(levels, [20, 10, 30])


def test_load_all_zero_mask_rejected(tmp_path):
    write_pgm(tmp_path / "a.img.pgm", np.full((2, 2), 100, dtype=np.uint8))
    write_pgm(tmp_path / "a.mask.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(EmptyMaskError, match=r"a\.mask\.pgm"):
        load_dataset(tmp_path)


def test_load_shape_mismatch(tmp_path):
    write_pgm(tmp_path / "a.img.pgm", np.full((2, 2), 100, dtype=np.uint8))
    write_pgm(tmp_path / "a.mask.pgm", np.full((2, 3), 255, dtype=np.uint8))
    with pytest.raises(ShapeMismatchError):
        load_dataset(tmp_path)


def test_load_mask_stack(tmp_path):
    for k, c in enumerate([5, 9, 2]):
        arr = np.zeros((4, 4), dtype=np.uint8)
        arr.flat[:c] = 255
        write_pgm(tmp_path / f"vol.slice{k}.mask.pgm", arr)
    stack = load_mask_stack(tmp_path)
    assert stack.dtype == bool and stack.shape == (3, 4, 4)
    assert select_largest_roi_slice(stack) == 1


def test_load_mask_stack_gap_rejected(tmp_path):
    for k in (0, 2):
        write_pgm(tmp_path / f"vol.slice{k}.mask.pgm",
                  np.full((2, 2), 255, dtype=np.uint8))
    with pytest.raises(MissingPairError):
        load_mask_stack(tmp_path)


def test_load_mask_stack_empty_dir(tmp_path):
    with pytest.raises(EmptyStackError):
        load_mask_stack(tmp_path)


def test_benchmark_presets():
    std = standard_benchmark_config(seed=5)
    assert std.shape == GridShape(64, 64) and std.contrast == 0.5 and std.seed == 5
    zc = zero_contrast_benchmark_config()
    assert zc.contrast == 0.0 and zc.noise_std == 0.0
