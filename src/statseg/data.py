"""Synthetic dataset generation, PGM dataset ingestion, volume slice selection.

On-disk convention: paired `<stem>.img.pgm` / `<stem>.mask.pgm` files;
volumes are directories of `<stem>.slice<k>.mask.pgm` with contiguous k.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (AllSlicesEmptyError, EmptyMaskError, EmptyStackError,
                     InfeasibleROIError, InvalidConfigError, MissingPairError,
                     ShapeMismatchError)
from .grid import GridShape, Image, Mask, foreground_count, summary_stat
# not called here: train() derives weak masks; perfbench's tracer wraps data.weak_mask
from .morphology import weak_mask  # noqa: F401
from .pgm import read_pgm, write_pgm

_SLICE_RE = re.compile(r"^(?P<stem>.+)\.slice(?P<k>\d+)\.mask\.pgm$")


@dataclass(frozen=True)
class SynthConfig:
    shape: GridShape
    n_samples: int
    roi_fraction_range: tuple = (0.05, 0.2)
    contrast: float = 0.5
    noise_std: float = 0.05
    background_level: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if len(self.roi_fraction_range) != 2:
            raise InvalidConfigError(
                f"roi_fraction_range must hold two numbers, got {self.roi_fraction_range}")
        lo, hi = self.roi_fraction_range
        if not (0.0 < lo < hi < 0.5):
            raise InvalidConfigError(f"roi_fraction_range must satisfy 0 < lo < hi < 0.5, got {(lo, hi)}")
        if self.n_samples < 1:
            raise InvalidConfigError("n_samples must be positive")
        if not 0.0 <= self.contrast <= 1.0:
            raise InvalidConfigError("contrast must be in [0, 1]")
        if not 0.0 <= self.noise_std < float("inf"):
            raise InvalidConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not 0.0 < self.background_level < 1.0:
            raise InvalidConfigError("background_level must be in (0, 1)")
        if self.seed < 0:
            raise InvalidConfigError(f"synth seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Sample:
    """An image, its ground truth and summary statistic.

    `weak` is an optional weak mask, checked to be a non-empty subset of gt.
    statseg never sets it: train() derives a run's weak masks as one stack.
    Samples built by hand may carry one, as perfbench's gradcheck8 workload does.
    """

    image: Image
    gt: Mask
    stat: float
    weak: Mask = None

    def __post_init__(self):
        if self.image.shape != self.gt.shape:
            raise ShapeMismatchError("sample grids must share one shape")
        if self.stat != summary_stat(self.gt):
            raise ValueError("stat must equal the ground-truth summary statistic")
        if self.weak is None:
            return
        if self.weak.shape != self.gt.shape:
            raise ShapeMismatchError("sample grids must share one shape")
        if foreground_count(self.weak) < 1:
            raise ValueError("weak mask must be non-empty")
        if np.any(self.weak.values > self.gt.values):
            raise ValueError("weak mask must be a subset of the ground truth")


_MAX_ATTEMPTS = 500


def _random_ellipse(rng, shape: GridShape, lo: float, hi: float) -> np.ndarray:
    """Rasterized axis-aligned ellipse whose pixel fraction lands in [lo, hi]."""
    h, w = shape.height, shape.width
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    for _ in range(_MAX_ATTEMPTS):
        frac = rng.uniform(lo, hi)
        aspect = rng.uniform(0.6, 1.6)
        ra = math.sqrt(frac * h * w * aspect / math.pi)
        rb = ra / aspect
        if ra < 1.0 or rb < 1.0 or 2 * ra > h - 2 or 2 * rb > w - 2:
            continue
        cy = rng.uniform(ra, h - 1 - ra)
        cx = rng.uniform(rb, w - 1 - rb)
        mask = (((yy - cy) / ra) ** 2 + ((xx - cx) / rb) ** 2) <= 1.0
        actual = mask.mean()
        if lo <= actual <= hi and mask.any():
            return mask.astype(np.float64)
    raise InfeasibleROIError(
        f"no ellipse with pixel fraction in [{lo}, {hi}] fits a {h}x{w} grid")


def generate_synthetic(config: SynthConfig) -> list:
    """Ellipse-on-flat-background samples, fully determined by config.seed."""
    rng = np.random.default_rng(config.seed)
    lo, hi = config.roi_fraction_range
    samples = []
    for _ in range(config.n_samples):
        gt_arr = _random_ellipse(rng, config.shape, lo, hi)
        img = config.background_level + config.contrast * gt_arr
        img = img + config.noise_std * rng.standard_normal(gt_arr.shape)
        img = np.clip(img, 0.0, 1.0)
        gt = Mask(gt_arr)
        samples.append(Sample(image=Image(img), gt=gt, stat=summary_stat(gt)))
    return samples


def select_largest_roi_slice(stack) -> int:
    """Index of the slice of a boolean (N, H, W) stack with the most foreground.

    Ties go to the lowest index.
    """
    if len(stack) == 0:
        raise EmptyStackError("mask stack must contain at least one slice")
    counts = np.count_nonzero(stack, axis=(1, 2))
    if counts.max() == 0:
        raise AllSlicesEmptyError("every slice has zero foreground")
    return int(np.argmax(counts))


def save_sample(sample: Sample, dir_path, stem: str):
    """Write `<stem>.img.pgm` / `<stem>.mask.pgm`; image quantized to maxval 255."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    write_pgm(dir_path / f"{stem}.img.pgm",
              np.rint(sample.image.values * 255.0).astype(np.uint8))
    write_pgm(dir_path / f"{stem}.mask.pgm",
              (sample.gt.values * 255.0).astype(np.uint8))


def read_image_pgm(path) -> Image:
    arr, maxval = read_pgm(path)
    return Image(arr.astype(np.float64) / maxval)


def read_mask_pgm(path) -> Mask:
    arr, maxval = read_pgm(path)
    return Mask((arr.astype(np.float64) >= 0.5 * maxval).astype(np.float64))


def load_dataset(dir_path) -> list:
    """Load all `<stem>.img.pgm` / `<stem>.mask.pgm` pairs, in image file-name order.

    A file without its pair, or a directory with no pair, raises MissingPairError
    before any file is read; an all-zero mask raises EmptyMaskError, not a skip.
    """
    dir_path = Path(dir_path)
    imgs = {p.name[:-len(".img.pgm")]: p for p in sorted(dir_path.glob("*.img.pgm"))}
    masks = {p.name[:-len(".mask.pgm")]: p for p in dir_path.glob("*.mask.pgm")}
    unpaired = sorted((imgs | masks)[stem].name for stem in imgs.keys() ^ masks.keys())
    if unpaired:
        raise MissingPairError(f"{dir_path / unpaired[0]} has no pair "
                               f"({len(unpaired)} unpaired files)")
    if not imgs:
        raise MissingPairError(f"{dir_path}: no .img.pgm / .mask.pgm pairs found")
    samples = []
    for stem, img_path in imgs.items():
        image = read_image_pgm(img_path)
        gt = read_mask_pgm(masks[stem])
        if image.shape != gt.shape:
            raise ShapeMismatchError(
                f"{stem}: image is {image.shape}, mask is {gt.shape}")
        if foreground_count(gt) == 0:
            raise EmptyMaskError(f"{masks[stem]}: mask has no foreground")
        samples.append(Sample(image=image, gt=gt, stat=summary_stat(gt)))
    return samples


def load_mask_stack(dir_path) -> np.ndarray:
    """Read a volume directory of `<stem>.slice<k>.mask.pgm`, k contiguous from 0,
    as a boolean (N, H, W) stack."""
    dir_path = Path(dir_path)
    found = {}
    for p in sorted(dir_path.iterdir()) if dir_path.is_dir() else []:
        m = _SLICE_RE.match(p.name)
        if m:
            found[int(m.group("k"))] = p
    if not found:
        raise EmptyStackError(f"{dir_path}: no slice masks found")
    n = len(found)
    if sorted(found) != list(range(n)):
        raise MissingPairError(f"{dir_path}: slice indices not contiguous from 0")
    masks = [read_mask_pgm(found[k]).values == 1.0 for k in range(n)]
    if any(m.shape != masks[0].shape for m in masks):
        raise ShapeMismatchError("all slices in a stack must share one shape")
    return np.stack(masks)


# Benchmark presets used by the acceptance suite and the experiment scripts.

def standard_benchmark_config(seed: int = 0, n_samples: int = 200) -> SynthConfig:
    """High-contrast ellipses: the regime where weak + statistics supervision works."""
    return SynthConfig(shape=GridShape(64, 64), n_samples=n_samples,
                       roi_fraction_range=(0.05, 0.2), contrast=0.5,
                       noise_std=0.05, background_level=0.25, seed=seed)


def zero_contrast_benchmark_config(seed: int = 0, n_samples: int = 200) -> SynthConfig:
    """Invisible ROIs: nothing anchors location, so statistics-only training degenerates."""
    return SynthConfig(shape=GridShape(64, 64), n_samples=n_samples,
                       roi_fraction_range=(0.05, 0.2), contrast=0.0,
                       noise_std=0.0, background_level=0.25, seed=seed)
