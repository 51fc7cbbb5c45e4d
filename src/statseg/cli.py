"""Command-line entry point: synth / weakmask / slice-select / train / ablate / score.

All experiment configuration lives in a JSON file (plus --seed/--out
overrides), so the config file is the complete record of a run.
Exit codes: 0 success, 1 usage/config error (also a config too large to
allocate), 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import (AllSlicesEmptyError, ConfigFileError, EmptyMaskError,
                     EmptyStackError, InfeasibleROIError, InvalidConfigError,
                     MalformedFileError, MissingPairError,
                     NonFiniteGradientError, NonFiniteLossError,
                     ShapeMismatchError)
from .evaluation import SUMMARY_CSV_HEADER, emit_report, iou, summary_csv_row
from .grid import GridShape, foreground_count
from .model import ModelConfig, ModelParams, save_checkpoint
from .morphology import weak_mask
from .pgm import write_pgm
from .training import (AblationConfig, default_grid, run_ablation_grid,
                       run_name, train)

_USAGE_ERRORS = (ConfigFileError, InvalidConfigError, ValueError)
_DATA_ERRORS = (EmptyMaskError, ShapeMismatchError, MissingPairError,
                MalformedFileError, InfeasibleROIError, EmptyStackError,
                AllSlicesEmptyError, FileNotFoundError, OSError)
_NUMERIC_ERRORS = (NonFiniteGradientError, NonFiniteLossError)


def _take(d: dict, allowed: dict, context: str) -> dict:
    """Reject non-objects and unknown keys; apply per-key converters from `allowed`."""
    if not isinstance(d, dict):
        raise ConfigFileError(f"{context}: expected a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigFileError(f"{context}: unknown keys {sorted(unknown)}")
    out = {}
    for k, v in d.items():
        try:
            out[k] = allowed[k](v)
        except (TypeError, ValueError, LookupError, OverflowError) as exc:
            raise ConfigFileError(f"{context}: bad value for {k!r}: {exc}") from exc
    return out


def _as_is(v):
    """Converter for a section that its own parser checks."""
    return v


def _list_of(convert):
    def convert_list(v):
        if not isinstance(v, list):
            raise TypeError(f"expected a JSON list, got {type(v).__name__}")
        return [convert(x) for x in v]
    return convert_list


def _load_json(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigFileError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigFileError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigFileError(f"{path}: top-level JSON object required")
    return doc


def _parse_synth(doc: dict, seed_override) -> data_mod.SynthConfig:
    fields = _take(doc, {
        "height": int, "width": int, "n_samples": int,
        "roi_fraction_range": lambda v: (float(v[0]), float(v[1])),
        "contrast": float, "noise_std": float, "background_level": float,
        "seed": int,
    }, "synth")
    if "height" not in fields or "width" not in fields or "n_samples" not in fields:
        raise ConfigFileError("synth: height, width and n_samples are required")
    shape = GridShape(fields.pop("height"), fields.pop("width"))
    if seed_override is not None:
        fields["seed"] = seed_override
    return data_mod.SynthConfig(shape=shape, **fields)


def _parse_model(doc: dict, seed_override) -> ModelConfig:
    fields = _take(doc, {"height": int, "width": int,
                         "base_channels": int, "seed": int}, "model")
    if "height" not in fields or "width" not in fields:
        raise ConfigFileError("model: height and width are required")
    shape = GridShape(fields.pop("height"), fields.pop("width"))
    if seed_override is not None:
        fields["seed"] = seed_override
    return ModelConfig(input_size=shape, **fields)


def _parse_ablation(doc: dict, seed_override) -> AblationConfig:
    fields = _take(doc, {"mode": str, "weak_coverage": float, "epochs": int,
                         "batch_size": int, "learning_rate": float,
                         "seed": int}, "ablation")
    if "mode" not in fields:
        raise ConfigFileError("ablation: mode is required")
    if seed_override is not None:
        fields["seed"] = seed_override
    return AblationConfig(**fields)


def _parse_dataset(doc: dict, seed_override):
    """Returns (samples, source description). Exactly one data source allowed."""
    has_synth = "synth" in doc
    has_dir = "dataset_dir" in doc
    if has_synth == has_dir:
        raise ConfigFileError("exactly one of 'synth' or 'dataset_dir' is required")
    if has_synth:
        cfg = _parse_synth(doc["synth"], seed_override)
        return data_mod.generate_synthetic(cfg), f"synthetic(seed={cfg.seed})"
    dir_path = doc["dataset_dir"]
    if not dir_path.is_dir():
        raise ConfigFileError(f"dataset_dir does not exist: {dir_path}")
    return data_mod.load_dataset(dir_path), str(dir_path)


def _out_dir(doc: dict, args) -> Path:
    if args.out is not None:
        return Path(args.out)
    if "out_dir" not in doc:
        raise ConfigFileError("out_dir missing from config (or pass --out)")
    return doc["out_dir"]


def cmd_synth(args) -> int:
    doc = _take(_load_json(args.config), {"synth": _as_is, "out_dir": Path}, "synth config")
    if "synth" not in doc:
        raise ConfigFileError("synth config: 'synth' section is required")
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
    stem = args.mask.name
    for suffix in (".mask.pgm", ".pgm"):
        if stem.endswith(suffix):
            stem = stem[:-len(suffix)]
            break
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


def cmd_train(args) -> int:
    doc = _take(_load_json(args.config), {
        "synth": _as_is, "dataset_dir": Path, "model": _as_is, "ablation": _as_is,
        "out_dir": Path}, "train config")
    for key in ("model", "ablation"):
        if key not in doc:
            raise ConfigFileError(f"train config: '{key}' section is required")
    dataset, source = _parse_dataset(doc, args.seed)
    model_config = _parse_model(doc["model"], args.seed)
    ablation = _parse_ablation(doc["ablation"], args.seed)
    out = _out_dir(doc, args)

    record = train(dataset, ablation, model_config)
    emit_report([record], out)
    params = ModelParams.from_flat(model_config, record.final_params_flat)
    save_checkpoint(params, out / record.name / "model.ckpt")
    print(f"trained {record.name} on {source}: "
          f"final IoU {record.final_iou:.4f}, degenerate={record.degenerate}")
    return 0


def cmd_ablate(args) -> int:
    if args.jobs < 1:  # before the dataset is built or loaded
        raise InvalidConfigError(f"jobs must be >= 1, got {args.jobs}")
    doc = _take(_load_json(args.config), {
        "synth": _as_is, "dataset_dir": Path, "model": _as_is, "grid": _as_is,
        "grid_seeds": _list_of(int), "epochs": int, "batch_size": int,
        "learning_rate": float, "coverages": _list_of(float), "out_dir": Path},
        "ablate config")
    if "model" not in doc:
        raise ConfigFileError("ablate config: 'model' section is required")
    dataset, source = _parse_dataset(doc, args.seed)
    model_config = _parse_model(doc["model"], args.seed)
    out = _out_dir(doc, args)

    grid_spec = doc.get("grid", "default")
    if grid_spec == "default":
        options = {k: doc[k] for k in ("coverages", "epochs", "batch_size", "learning_rate")
                   if k in doc}
        grid = [cfg for seed in doc.get("grid_seeds", [args.seed or 0])
                for cfg in default_grid(seed=seed, **options)]
    elif isinstance(grid_spec, list):
        ignored = sorted(set(doc) & {"grid_seeds", "coverages", "epochs",
                                     "batch_size", "learning_rate"})
        if ignored:
            raise ConfigFileError(f"ablate config: {ignored} apply only to the "
                                  "default grid, not to an explicit 'grid'")
        grid = [_parse_ablation(entry, args.seed) for entry in grid_spec]
    else:
        raise ConfigFileError("grid must be \"default\" or a list of ablation configs")

    records = run_ablation_grid(dataset, model_config, grid, jobs=args.jobs)
    emit_report(records, out)
    for record in records:
        params = ModelParams.from_flat(model_config, record.final_params_flat)
        save_checkpoint(params, out / record.name / "model.ckpt")

    print(f"dataset: {source} ({len(dataset)} samples)")
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
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
