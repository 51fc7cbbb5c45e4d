import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statseg.data import (MaskStack, Sample, SynthConfig, generate_synthetic,
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
    masks = []
    for c in counts:
        arr = np.zeros(shape)
        arr.flat[:c] = 1.0
        masks.append(Mask(arr))
    return MaskStack(tuple(masks))


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
        MaskStack(())


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
    path.write_bytes(bytes(raw))
    try:
        arr, maxval = read_pgm(path)
    except MalformedFileError:
        return
    assert arr.dtype == np.uint8 and arr.ndim == 2 and 1 <= maxval <= 255
    # what parses is a valid image and mask
    read_image_pgm(path)
    read_mask_pgm(path)


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
    assert load_dataset(tmp_path) == []


def test_load_missing_pair(tmp_path):
    write_pgm(tmp_path / "a.img.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(MissingPairError):
        load_dataset(tmp_path)


def test_load_orphan_mask(tmp_path):
    write_pgm(tmp_path / "a.mask.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(MissingPairError):
        load_dataset(tmp_path)


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
    assert len(stack.masks) == 3
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
