"""Command-line entry point: synth / weakmask / slice-select / train / ablate / score.

All experiment configuration lives in a JSON file (plus --seed/--out
overrides), so the config file is the complete record of a run.
Exit codes: 0 success, else the `exit_code` of the error's type (see errors.py),
2 for an OS error, 1 for any other value error or a config too large to allocate
(over MAX_CONFIG_BYTES, or out of memory).
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import InvalidConfigError, StatsegError
from .evaluation import SUMMARY_CSV_HEADER, emit_report, iou, summary_csv_row
from .grid import GridShape, foreground_count
from .model import ModelConfig, ModelParams, forward_bytes, param_shapes, save_checkpoint
from .morphology import weak_mask
from .pgm import write_pgm
from .training import (EVAL_BATCH_SIZE, AblationConfig, default_grid, grid_workers,
                       run_ablation_grid, run_name)


# Largest dataset (16 bytes per pixel: float64 image and mask), parameter vector
# (8 bytes per parameter) or forward pass (model.forward_bytes) that a config may ask
# for, checked before anything is allocated.
MAX_CONFIG_BYTES = 4 * 2**30

# An ablate config's options for the default grid, which an explicit "grid" rejects.
DEFAULT_GRID_OPTIONS = ("coverages", "epochs", "batch_size", "learning_rate")


def _check_size(context: str, keys: str, nbytes: int):
    if nbytes > MAX_CONFIG_BYTES:
        raise InvalidConfigError(f"{context}: {keys} needs {nbytes / 2**30:.3g} GiB, over "
                                 f"the {MAX_CONFIG_BYTES / 2**30:g} GiB ceiling")


def _take(d: dict, allowed: dict, context: str) -> dict:
    """Reject non-objects and unknown keys; apply per-key converters from `allowed`."""
    if not isinstance(d, dict):
        raise InvalidConfigError(f"{context}: expected a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise InvalidConfigError(f"{context}: unknown keys {sorted(unknown)}")
    out = {}
    for k, v in d.items():
        try:
            out[k] = allowed[k](v)
        except (TypeError, ValueError, LookupError, OverflowError) as exc:
            raise InvalidConfigError(f"{context}: bad value for {k!r}: {exc}") from exc
    return out


def _as_is(v):
    """Converter for a section that its own parser checks."""
    return v


def _integer(v):
    """Converter for a JSON integer: no float, bool or string."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected a JSON integer, got {type(v).__name__}")
    return v


def _number(v):
    """Converter for a JSON number, as a float: no bool or string."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a JSON number, got {type(v).__name__}")
    return float(v)


def _list_of(convert):
    def convert_list(v):
        if not isinstance(v, list):
            raise TypeError(f"expected a JSON list, got {type(v).__name__}")
        return [convert(x) for x in v]
    return convert_list


def _load_json(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise InvalidConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    # JSONDecodeError, UnicodeDecodeError, int()'s digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InvalidConfigError(f"{path}: invalid JSON ({exc})") from exc


def _section(d, context: str, keys: dict, required=(), seed=None) -> dict:
    """_take(d, keys, context), then the required keys, the --seed override,
    and "height"/"width" folded into one GridShape under "shape"."""
    fields = _take(d, keys, context)
    missing = [k for k in required if k not in fields]
    if missing:
        raise InvalidConfigError(f"{context}: missing keys {missing}")
    if seed is not None:
        fields["seed"] = seed
    if "height" in fields:
        fields["shape"] = GridShape(fields.pop("height"), fields.pop("width"))
    return fields


def _parse_synth(d, seed) -> data_mod.SynthConfig:
    cfg = data_mod.SynthConfig(**_section(d, "synth", {
        "height": _integer, "width": _integer, "n_samples": _integer,
        "roi_fraction_range": lambda v: tuple(_list_of(_number)(v)),
        "contrast": _number, "noise_std": _number, "background_level": _number,
        "seed": _integer,
    }, required=("height", "width", "n_samples"), seed=seed))
    _check_size("synth", f"'height' x 'width' x 'n_samples' = {cfg.shape.height} x "
                f"{cfg.shape.width} x {cfg.n_samples}",
                16 * cfg.shape.height * cfg.shape.width * cfg.n_samples)
    return cfg


def _parse_model(d, seed) -> ModelConfig:
    fields = _section(d, "model", {"height": _integer, "width": _integer,
                                   "base_channels": _integer, "seed": _integer},
                      required=("height", "width"), seed=seed)
    cfg = ModelConfig(input_size=fields.pop("shape"), **fields)
    _check_size("model", f"'base_channels' = {cfg.base_channels}",
                8 * sum(math.prod(shape) for _, shape in param_shapes(cfg.base_channels)))
    return cfg


def _parse_ablation(d, seed) -> AblationConfig:
    return AblationConfig(**_section(d, "ablation", {
        "mode": str, "weak_coverage": _number, "epochs": _integer, "batch_size": _integer,
        "learning_rate": _number, "seed": _integer}, required=("mode",), seed=seed))


def _out_dir(doc: dict, args) -> Path:
    """--out, else out_dir; not created here, but rejected if it or its nearest existing
    ancestor is not a directory, so that no run trains only to fail at writing."""
    if args.out is not None:
        out = Path(args.out)
    elif "out_dir" in doc:
        out = doc["out_dir"]
    else:
        raise InvalidConfigError("out_dir missing from config (or pass --out)")
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise NotADirectoryError(f"output path {out}: {existing} is not a directory")
    return out


def cmd_synth(args) -> int:
    doc = _section(_load_json(args.config), "synth config",
                   {"synth": _as_is, "out_dir": Path}, required=("synth",))
    cfg = _parse_synth(doc["synth"], args.seed)
    out = _out_dir(doc, args)
    samples = data_mod.generate_synthetic(cfg)
    for k, sample in enumerate(samples):
        data_mod.save_sample(sample, out, f"{k:04d}")
    mean_frac = float(np.mean([s.stat for s in samples]))
    print(f"wrote {len(samples)} samples ({2 * len(samples)} PGM files) to {out}")
    print(f"mean ROI fraction {mean_frac:.4f}")
    return 0


def cmd_weakmask(args) -> int:
    gt = data_mod.read_mask_pgm(args.mask)
    weak = weak_mask(gt, args.coverage)
    stem = re.sub(r"(\.mask)?\.pgm\Z", "", args.mask.name)
    out = Path(args.out) if args.out else args.mask.parent / f"{stem}.weak.pgm"
    write_pgm(out, (weak.values * 255.0).astype(np.uint8))
    n_weak, n_gt = foreground_count(weak), foreground_count(gt)
    print(f"achieved coverage {n_weak}/{n_gt} = {n_weak / n_gt:.4f}")
    print(f"wrote {out}")
    return 0


def cmd_slice_select(args) -> int:
    stack = data_mod.load_mask_stack(args.volume_dir)
    print(data_mod.select_largest_roi_slice(stack))
    return 0


def _run(doc: dict, args, grid: list, jobs: int) -> tuple:
    """Train each config of grid on the config's dataset; write the report and checkpoints.

    Every section, the grid's run names, the forward pass's memory and the
    output path are checked before the dataset is built or loaded. Returns
    the records, a description of the data source and its sample count.
    """
    workers = grid_workers(jobs, len(grid))  # raises on jobs < 1 before anything else
    if ("synth" in doc) == ("dataset_dir" in doc):
        raise InvalidConfigError("exactly one of 'synth' or 'dataset_dir' is required")
    synth = _parse_synth(doc["synth"], args.seed) if "synth" in doc else None
    model_config = _parse_model(doc["model"], args.seed)
    if not grid:
        raise InvalidConfigError("the grid has no runs")
    seen = set()
    for name in map(run_name, grid):
        if name in seen:
            raise InvalidConfigError(f"the grid holds run {name} twice; "
                                     "the second would overwrite the first's outputs")
        seen.add(name)
    # One forward pass in each worker. Training batches hold at most the grid's largest
    # batch_size samples and eval batches EVAL_BATCH_SIZE, and neither more than the
    # dataset: a synth section's n_samples, or a dataset_dir's image files, counted
    # before any is read.
    batch = max(EVAL_BATCH_SIZE, *(cfg.batch_size for cfg in grid))
    if synth is not None:
        batch = min(batch, synth.n_samples)
    elif doc["dataset_dir"].is_dir():
        batch = min(batch, sum(1 for _ in doc["dataset_dir"].glob("*.img.pgm")))
    size = model_config.input_size
    _check_size("run", f"'base_channels' x 'batch_size' x 'height' x 'width' x workers = "
                f"{model_config.base_channels} x {batch} x {size.height} x {size.width} "
                f"x {workers}", workers * forward_bytes(model_config, batch))
    out = _out_dir(doc, args)
    if synth is not None:
        dataset, source = data_mod.generate_synthetic(synth), f"synthetic(seed={synth.seed})"
    elif doc["dataset_dir"].is_dir():
        dataset, source = data_mod.load_dataset(doc["dataset_dir"]), str(doc["dataset_dir"])
    elif doc["dataset_dir"].exists():
        raise NotADirectoryError(f"dataset_dir {doc['dataset_dir']} is not a directory")
    else:
        raise InvalidConfigError(f"dataset_dir does not exist: {doc['dataset_dir']}")

    records = run_ablation_grid(dataset, model_config, grid, jobs=jobs)
    emit_report(records, out)
    for record in records:
        params = ModelParams.from_flat(model_config, record.final_params_flat)
        save_checkpoint(params, out / record.name / "model.ckpt")
    return records, source, len(dataset)


def cmd_train(args) -> int:
    doc = _section(_load_json(args.config), "train config", {
        "synth": _as_is, "dataset_dir": Path, "model": _as_is, "ablation": _as_is,
        "out_dir": Path}, required=("model", "ablation"))
    (record,), source, _ = _run(doc, args, [_parse_ablation(doc["ablation"], args.seed)],
                                jobs=1)
    print(f"trained {record.name} on {source}: "
          f"final IoU {record.final_iou:.4f}, degenerate={record.degenerate}")
    return 0


def cmd_ablate(args) -> int:
    doc = _section(_load_json(args.config), "ablate config", {
        "synth": _as_is, "dataset_dir": Path, "model": _as_is, "grid": _as_is,
        "grid_seeds": _list_of(_integer), "epochs": _integer, "batch_size": _integer,
        "learning_rate": _number, "coverages": _list_of(_number), "out_dir": Path},
        required=("model",))
    grid_spec = doc.get("grid", "default")
    if grid_spec == "default":
        options = {k: doc[k] for k in DEFAULT_GRID_OPTIONS if k in doc}
        seeds = doc.get("grid_seeds", [0]) if args.seed is None else [args.seed]
        grid = [cfg for seed in seeds for cfg in default_grid(seed=seed, **options)]
    elif isinstance(grid_spec, list):
        ignored = sorted(set(doc) & {"grid_seeds", *DEFAULT_GRID_OPTIONS})
        if ignored:
            raise InvalidConfigError(f"ablate config: {ignored} apply only to the "
                                     "default grid, not to an explicit 'grid'")
        grid = [_parse_ablation(entry, args.seed) for entry in grid_spec]
    else:
        raise InvalidConfigError("grid must be \"default\" or a list of ablation configs")

    records, source, n_samples = _run(doc, args, grid, args.jobs)
    print(f"dataset: {source} ({n_samples} samples)")
    print(SUMMARY_CSV_HEADER)
    for record in records:
        print(summary_csv_row(record))
    return 0


def cmd_score(args) -> int:
    pred = data_mod.read_mask_pgm(args.pred)
    gt = data_mod.read_mask_pgm(args.gt)
    print(f"{iou(pred, gt):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="statseg")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("synth", cmd_synth, help="generate a synthetic PGM dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("weakmask", cmd_weakmask, help="erode a mask down to a weak mask")
    p.add_argument("mask", type=Path)
    p.add_argument("--coverage", type=float, required=True)
    p.add_argument("--out", default=None)

    p = add("slice-select", cmd_slice_select,
            help="pick the volume slice with the largest ROI")
    p.add_argument("volume_dir", type=Path)

    p = add("train", cmd_train, help="run a single training configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("ablate", cmd_ablate, help="run the ablation grid and emit the table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = add("score", cmd_score, help="print IoU between two mask PGMs")
    p.add_argument("pred", type=Path)
    p.add_argument("gt", type=Path)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (StatsegError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2 if isinstance(exc, OSError) else 1)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
