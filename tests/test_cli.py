import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from statseg import cli, data, training
from statseg.cli import main
from statseg.errors import StatsegError
from statseg.grid import GridShape
from statseg.model import ModelConfig, forward_bytes
from statseg.pgm import write_pgm
from statseg.training import EVAL_BATCH_SIZE


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def synth_doc(out_dir, n_samples=4, **synth):
    base = {"height": 16, "width": 16, "n_samples": n_samples,
            "roi_fraction_range": [0.05, 0.25], "contrast": 0.6,
            "noise_std": 0.02, "background_level": 0.2, "seed": 0}
    base.update(synth)
    return {"synth": base, "out_dir": str(out_dir)}


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_synth_writes_pairs(tmp_path, capsys):
    out = tmp_path / "ds"
    cfg = write_config(tmp_path, synth_doc(out, n_samples=10))
    assert main(["synth", "--config", cfg]) == 0
    files = sorted(out.iterdir())
    assert len(files) == 20
    assert "10 samples" in capsys.readouterr().out


def test_synth_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_config(tmp_path, synth_doc(out1), "c1.json")
    cfg2 = write_config(tmp_path, synth_doc(out2), "c2.json")
    assert main(["synth", "--config", cfg1]) == 0
    assert main(["synth", "--config", cfg2]) == 0
    a, b = dir_bytes(out1), dir_bytes(out2)
    assert list(a.values()) == list(b.values())


def test_synth_infeasible_roi_exits_2(tmp_path, capsys):
    doc = synth_doc(tmp_path / "ds")
    doc["synth"].update({"height": 4, "width": 4,
                         "roi_fraction_range": [0.01, 0.02]})
    cfg = write_config(tmp_path, doc)
    assert main(["synth", "--config", cfg]) == 2
    assert "fraction" in capsys.readouterr().err


def test_synth_too_large_to_allocate_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(data, "generate_synthetic", no_dataset)
    cfg = write_config(tmp_path, synth_doc(tmp_path / "ds", height=1000000, width=1000000))
    assert main(["synth", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: synth:")
    assert "'height'" in err[0] and "ceiling" in err[0]


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_model_too_large_to_allocate_exits_1(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(data, "generate_synthetic", no_dataset)
    doc = {"synth": TINY_SYNTH, "model": dict(TINY_MODEL, base_channels=100_000_000),
           "ablation": {"mode": "combined"}, "out_dir": str(tmp_path / "out")}
    if command == "ablate":
        del doc["ablation"]
    assert main([command, "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: model:")
    assert "'base_channels'" in err[0] and "ceiling" in err[0]


def test_config_at_the_ceiling_is_accepted(monkeypatch):
    # four 8x8 samples at 16 bytes a pixel fill the ceiling exactly; a fifth is over it
    monkeypatch.setattr(cli, "MAX_CONFIG_BYTES", 16 * 8 * 8 * 4)
    assert cli._parse_synth(dict(TINY_SYNTH, n_samples=4), None).n_samples == 4
    with pytest.raises(StatsegError, match="n_samples"):
        cli._parse_synth(dict(TINY_SYNTH, n_samples=5), None)


def forward_pass_doc(tmp_path, command, batch_size, n_samples):
    doc = {"synth": dict(TINY_SYNTH, n_samples=n_samples), "model": TINY_MODEL,
           "ablation": {"mode": "combined", "batch_size": batch_size},
           "out_dir": str(tmp_path / "out")}
    if command == "ablate":
        doc["batch_size"] = doc.pop("ablation")["batch_size"]
    return write_config(tmp_path, doc)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_forward_pass_too_large_to_allocate_exits_1(tmp_path, monkeypatch, capsys, command):
    # a million 8x8 samples fit under the ceiling, one forward pass over all of them does not
    monkeypatch.setattr(data, "generate_synthetic", no_dataset)
    cfg = forward_pass_doc(tmp_path, command, 10**9, 10**6)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: run:") and "ceiling" in err[0]
    for key in ("'base_channels'", "'batch_size'", "'height'", "'width'"):
        assert key in err[0]


class DatasetReached(Exception):
    pass


def dataset_reached(*args):
    raise DatasetReached


@pytest.mark.parametrize("command,jobs,cpus,workers,batch_size,largest", [
    pytest.param("train", 1, 8, 1, 20, 20, id="train-1-20-20"),
    pytest.param("train", 1, 8, 1, 1, EVAL_BATCH_SIZE, id=f"train-1-1-{EVAL_BATCH_SIZE}"),
    # no batch holds more than the dataset's 50 samples
    pytest.param("train", 1, 8, 1, 10**9, 50, id="train-1-1000000000-50"),
    # three workers, one forward pass each
    pytest.param("ablate", 3, 8, 3, 20, 20, id="ablate-3-20-20"),
    # two CPUs: two workers run, not three
    pytest.param("ablate", 3, 2, 2, 20, 20, id="ablate-3-20-20-2cpus"),
])
def test_forward_pass_at_the_ceiling_is_accepted(tmp_path, monkeypatch, capsys, command,
                                                 jobs, cpus, workers, batch_size, largest):
    # the estimate is taken at the larger of the training and the eval batch, capped by
    # the dataset size, once per worker that runs; at the ceiling the run goes on to
    # build its dataset, one byte under it exits 1
    ceiling = workers * forward_bytes(ModelConfig(GridShape(8, 8)), largest)
    monkeypatch.setattr(training.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(data, "generate_synthetic", dataset_reached)
    argv = [command, "--config", forward_pass_doc(tmp_path, command, batch_size, 50)]
    if command == "ablate":
        argv += ["--jobs", str(jobs)]
    monkeypatch.setattr(cli, "MAX_CONFIG_BYTES", ceiling)
    with pytest.raises(DatasetReached):
        main(argv)
    monkeypatch.setattr(cli, "MAX_CONFIG_BYTES", ceiling - 1)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"= 8 x {largest} x 8 x 8 x {workers} needs" in err[0]


def test_synth_unknown_key_rejected(tmp_path):
    doc = synth_doc(tmp_path / "ds")
    doc["synth"]["typo_key"] = 1
    cfg = write_config(tmp_path, doc)
    assert main(["synth", "--config", cfg]) == 1


def test_missing_config_exits_1(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "none.json")]) == 1


@pytest.mark.parametrize("command", ["synth", "train", "ablate"])
@pytest.mark.parametrize("content", [
    pytest.param(b"[" * 100_000, id="nested-too-deeply"),
    pytest.param(b'{"epochs": ' + b"9" * 5000 + b"}", id="5000-digit-integer"),
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
])
def test_unparseable_config_exits_1_naming_the_file(tmp_path, capsys, command, content):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(cfg) in err[0]


def test_usage_error_exits_1():
    assert main(["not-a-command"]) == 1


def square_mask_pgm(path, grid=9, side=7):
    arr = np.zeros((grid, grid), dtype=np.uint8)
    off = (grid - side) // 2
    arr[off:off + side, off:off + side] = 255
    write_pgm(path, arr)


def test_weakmask_full_coverage_identity(tmp_path, capsys):
    mask = tmp_path / "m.mask.pgm"
    square_mask_pgm(mask)
    assert main(["weakmask", str(mask), "--coverage", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "49/49" in out
    from statseg.data import read_mask_pgm
    assert np.array_equal(read_mask_pgm(tmp_path / "m.weak.pgm").values,
                          read_mask_pgm(mask).values)


def test_weakmask_square_example(tmp_path, capsys):
    mask = tmp_path / "sq.mask.pgm"
    square_mask_pgm(mask)
    assert main(["weakmask", str(mask), "--coverage", "0.08"]) == 0
    assert "1/49" in capsys.readouterr().out
    from statseg.data import read_mask_pgm
    weak = read_mask_pgm(tmp_path / "sq.weak.pgm")
    assert weak.values[4, 4] == 1.0 and weak.values.sum() == 1.0


@pytest.mark.parametrize("name,out", [
    ("m.mask.pgm", "m.weak.pgm"), ("m.pgm", "m.weak.pgm"), (".mask.pgm", ".weak.pgm"),
    ("m.png", "m.png.weak.pgm"), ("m.mask.pgm.bak", "m.mask.pgm.bak.weak.pgm"),
    ("a.mask.b.pgm", "a.mask.b.weak.pgm"), ("m.pgm\n", "m.pgm\n.weak.pgm"),
])
def test_weakmask_names_its_output_after_the_mask(tmp_path, capsys, name, out):
    square_mask_pgm(tmp_path / name)
    assert main(["weakmask", str(tmp_path / name), "--coverage", "0.5"]) == 0
    assert (tmp_path / out).is_file()


def test_pgm_with_a_5000_digit_width_exits_2(tmp_path, capsys):
    pgm = tmp_path / "wide.pgm"
    pgm.write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00")
    assert main(["score", str(pgm), str(pgm)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(pgm) in err[0]


def test_weakmask_empty_mask_exits_2(tmp_path):
    mask = tmp_path / "z.mask.pgm"
    write_pgm(mask, np.zeros((4, 4), dtype=np.uint8))
    assert main(["weakmask", str(mask), "--coverage", "0.5"]) == 2


def test_slice_select(tmp_path, capsys):
    for k, c in enumerate([5, 9, 2]):
        arr = np.zeros((4, 4), dtype=np.uint8)
        arr.flat[:c] = 255
        write_pgm(tmp_path / f"v.slice{k}.mask.pgm", arr)
    assert main(["slice-select", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_slice_select_tie(tmp_path, capsys):
    for k in (0, 1):
        arr = np.zeros((4, 4), dtype=np.uint8)
        arr.flat[:7] = 255
        write_pgm(tmp_path / f"v.slice{k}.mask.pgm", arr)
    assert main(["slice-select", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_slice_select_empty_dir_exits_2(tmp_path):
    assert main(["slice-select", str(tmp_path)]) == 2


def test_slice_select_mixed_shapes_exits_2(tmp_path, capsys):
    write_pgm(tmp_path / "v.slice0.mask.pgm", np.full((4, 4), 255, dtype=np.uint8))
    write_pgm(tmp_path / "v.slice1.mask.pgm", np.full((4, 5), 255, dtype=np.uint8))
    assert main(["slice-select", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: all slices in a stack must share one shape"]


def test_score(tmp_path, capsys):
    a = np.zeros((2, 2), dtype=np.uint8)
    a[0, 0] = a[0, 1] = 255
    b = np.zeros((2, 2), dtype=np.uint8)
    b[0, 1] = b[1, 1] = 255
    write_pgm(tmp_path / "a.pgm", a)
    write_pgm(tmp_path / "b.pgm", b)
    assert main(["score", str(tmp_path / "a.pgm"), str(tmp_path / "a.pgm")]) == 0
    assert capsys.readouterr().out.strip() == "1.0000"
    assert main(["score", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")]) == 0
    assert capsys.readouterr().out.strip() == "0.3333"


def test_score_disjoint(tmp_path, capsys):
    a = np.zeros((2, 2), dtype=np.uint8)
    a[0, 0] = 255
    b = np.zeros((2, 2), dtype=np.uint8)
    b[1, 1] = 255
    write_pgm(tmp_path / "a.pgm", a)
    write_pgm(tmp_path / "b.pgm", b)
    assert main(["score", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")]) == 0
    assert capsys.readouterr().out.strip() == "0.0000"


def test_score_shape_mismatch_exits_2(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.full((2, 2), 255, dtype=np.uint8))
    write_pgm(tmp_path / "b.pgm", np.full((2, 3), 255, dtype=np.uint8))
    assert main(["score", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")]) == 2


def train_doc(tmp_path, out):
    doc = synth_doc(out, n_samples=8)
    doc["model"] = {"height": 16, "width": 16, "base_channels": 2, "seed": 0}
    doc["ablation"] = {"mode": "combined", "epochs": 1, "batch_size": 4, "seed": 0}
    return doc


def test_train_command(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, train_doc(tmp_path, out))
    assert main(["train", "--config", cfg]) == 0
    assert (out / "summary.csv").is_file()
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "model.ckpt").is_file()
    assert (run_dirs[0] / "epochs.csv").is_file()
    assert "final IoU" in capsys.readouterr().out


def test_ablate_explicit_grid_and_rerun_identical(tmp_path, capsys):
    doc = synth_doc(tmp_path / "unused", n_samples=8)
    del doc["out_dir"]
    doc["model"] = {"height": 16, "width": 16, "base_channels": 2, "seed": 0}
    doc["grid"] = [
        {"mode": "stats_only", "epochs": 1, "batch_size": 4, "seed": 0},
        {"mode": "combined", "epochs": 1, "batch_size": 4, "seed": 0},
    ]
    cfg = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["ablate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["ablate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    lines = (out1 / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 runs
    assert lines[0].startswith("mode,coverage,final_iou,degenerate")


def test_ablate_default_grid_row_count(tmp_path, capsys):
    doc = synth_doc(tmp_path / "unused", n_samples=8)
    del doc["out_dir"]
    doc["model"] = {"height": 16, "width": 16, "base_channels": 2, "seed": 0}
    doc["epochs"] = 1
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "grid"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 7  # header + 6-row table matching the default grid
    overlays = list(out.glob("*/sample0.pred.pgm"))
    assert len(overlays) == 6


def test_ablate_dataset_dir_must_exist(tmp_path):
    doc = {"dataset_dir": str(tmp_path / "missing"),
           "model": {"height": 16, "width": 16}, "out_dir": str(tmp_path / "o")}
    cfg = write_config(tmp_path, doc)
    assert main(["ablate", "--config", cfg]) == 1


def test_ablate_dataset_dir_that_is_a_file_exits_2(tmp_path, capsys):
    not_dir = tmp_path / "data.pgm"
    not_dir.write_bytes(b"")
    doc = {"dataset_dir": str(not_dir),
           "model": {"height": 16, "width": 16}, "out_dir": str(tmp_path / "o")}
    cfg = write_config(tmp_path, doc)
    assert main(["ablate", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(not_dir) in err[0] and "is not a directory" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,section", [
    ("train", {"ablation": {"mode": "combined", "epochs": 1}}),
    ("ablate", {"epochs": 1}),
])
def test_empty_dataset_dir_exits_2(tmp_path, capsys, command, section):
    empty = tmp_path / "empty"
    empty.mkdir()
    doc = {"dataset_dir": str(empty), "model": {"height": 16, "width": 16},
           "out_dir": str(tmp_path / "o"), **section}
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(empty) in err[0]
    assert not (tmp_path / "o").exists()


TINY_SYNTH = {"height": 8, "width": 8, "n_samples": 2}
TINY_MODEL = {"height": 8, "width": 8}


@pytest.mark.parametrize("command,doc", [
    ("synth", {"synth": dict(TINY_SYNTH, roi_fraction_range=5)}),
    ("synth", {"synth": dict(TINY_SYNTH, roi_fraction_range=[0.05, 0.2, 7])}),
    ("train", {"synth": [], "model": TINY_MODEL, "ablation": {"mode": "combined"}}),
    ("train", {"synth": TINY_SYNTH, "model": [], "ablation": {"mode": "combined"}}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid": [1]}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "epochs": [1]}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "epochs": float("inf")}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid_seeds": 5}),
    ("ablate", {"dataset_dir": 5, "model": TINY_MODEL}),
], ids=["roi_range_int", "roi_range_three", "synth_list", "model_list", "grid_entry_int",
        "epochs_list", "epochs_inf", "grid_seeds_int", "dataset_dir_int"])
def test_wrong_typed_value_exits_1(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, dict(doc, out_dir=str(tmp_path / "out")))
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_top_level_weak_coverage_rejected(tmp_path, capsys, command):
    doc = {"synth": TINY_SYNTH, "model": TINY_MODEL, "weak_coverage": 0.5,
           "out_dir": str(tmp_path / "out")}
    if command == "train":
        doc["ablation"] = {"mode": "combined", "epochs": 0}
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == 1
    assert "weak_coverage" in capsys.readouterr().err


def test_synth_weak_coverage_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, synth_doc(tmp_path / "ds", weak_coverage=0.08))
    assert main(["synth", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "weak_coverage" in err[0]
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("key,value", [
    ("epochs", 50), ("coverages", [0.5]), ("grid_seeds", [9]),
    ("batch_size", 2), ("learning_rate", 0.1)])
def test_default_grid_keys_rejected_next_to_explicit_grid(tmp_path, capsys, key, value):
    doc = {"synth": TINY_SYNTH, "model": TINY_MODEL, key: value,
           "grid": [{"mode": "combined", "epochs": 0}], "out_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert main(["ablate", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_ablate_jobs_below_one_exits_1(tmp_path, capsys, jobs):
    doc = {"synth": TINY_SYNTH, "model": TINY_MODEL,
           "grid": [{"mode": "combined", "epochs": 0}], "out_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert main(["ablate", "--config", cfg, "--jobs", jobs]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "jobs" in err[0]
    assert not (tmp_path / "out").exists()


def test_ablate_jobs_checked_before_the_dataset(tmp_path, capsys):
    doc = {"dataset_dir": str(tmp_path / "missing"), "model": TINY_MODEL,
           "out_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert main(["ablate", "--config", cfg, "--jobs", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "jobs" in err[0] and "missing" not in err[0]


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("lr", [float("inf"), float("nan"), -1.0])
def test_bad_learning_rate_exits_1(tmp_path, capsys, command, lr):
    doc = {"synth": TINY_SYNTH, "model": TINY_MODEL, "out_dir": str(tmp_path / "out")}
    if command == "train":
        doc["ablation"] = {"mode": "combined", "epochs": 1, "learning_rate": lr}
    else:
        doc.update(epochs=1, learning_rate=lr)
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "learning_rate" in err[0]


def test_train_model_of_another_grid_size_exits_2(tmp_path, capsys):
    doc = train_doc(tmp_path, tmp_path / "out")
    doc["model"].update(height=64, width=64)
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "16x16" in err[0] and "64x64" in err[0]
    assert not (tmp_path / "out").exists()


def test_ablate_seed_flag_overrides_grid_seeds(tmp_path):
    doc = {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid_seeds": [3], "epochs": 0,
           "coverages": [0.5], "out_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert main(["ablate", "--config", cfg, "--seed", "9"]) == 0
    run_dirs = sorted(p for p in (tmp_path / "out").iterdir() if p.is_dir())
    assert [p.name for p in run_dirs] == ["combined_cov0.5_seed9", "fully_supervised_cov0.08_seed9",
                                          "stats_only_cov0.08_seed9", "weak_only_cov0.08_seed9"]
    for run_dir in run_dirs:
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["seed"] == summary["config"]["seed"] == 9


def no_dataset(*args):
    pytest.fail("the dataset was built before every section was checked")


@pytest.mark.parametrize("command,doc", [
    ("train", {"model": TINY_MODEL, "ablation": {"mode": "nope"}, "out_dir": "out"}),
    ("train", {"model": dict(TINY_MODEL, base_channels=0), "ablation": {"mode": "combined"},
               "out_dir": "out"}),
    ("ablate", {"model": TINY_MODEL, "grid": [{"mode": "nope"}], "out_dir": "out"}),
    ("ablate", {"model": dict(TINY_MODEL, base_channels=0), "out_dir": "out"}),
    ("ablate", {"model": TINY_MODEL}),
    ("train", {"model": dict(TINY_MODEL, seed=2**32), "ablation": {"mode": "combined"},
               "out_dir": "out"}),
    ("ablate", {"model": dict(TINY_MODEL, seed=2**32), "out_dir": "out"}),
    ("train --seed 4294967296", {"model": TINY_MODEL, "ablation": {"mode": "combined"},
                                 "out_dir": "out"}),
    ("ablate --seed 4294967296", {"model": TINY_MODEL, "out_dir": "out"}),
    ("ablate", {"model": TINY_MODEL, "grid": [], "out_dir": "out"}),
    ("ablate", {"model": TINY_MODEL, "grid_seeds": [], "out_dir": "out"}),
], ids=["train_mode", "train_base_channels", "ablate_mode", "ablate_base_channels",
        "no_out_dir", "train_model_seed_2**32", "ablate_model_seed_2**32",
        "train_seed_flag_2**32", "ablate_seed_flag_2**32", "empty_grid", "empty_grid_seeds"])
def test_sections_checked_before_the_dataset(tmp_path, monkeypatch, capsys, command, doc):
    monkeypatch.setattr(data, "generate_synthetic", no_dataset)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, dict(doc, synth=TINY_SYNTH))
    assert main([*command.split(), "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command,doc,key", [
    ("synth", {"synth": dict(TINY_SYNTH, seed=-1)}, "seed"),
    ("synth --seed -1", {"synth": TINY_SYNTH}, "seed"),
    ("synth", {"synth": dict(TINY_SYNTH, noise_std=float("nan"))}, "noise_std"),
    ("synth", {"synth": dict(TINY_SYNTH, noise_std=float("inf"))}, "noise_std"),
    ("train", {"synth": dict(TINY_SYNTH, seed=-1), "model": TINY_MODEL,
               "ablation": {"mode": "combined"}}, "seed"),
    ("train", {"synth": TINY_SYNTH, "model": TINY_MODEL,
               "ablation": {"mode": "combined", "seed": -1}}, "seed"),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL,
                "grid": [{"mode": "combined", "seed": -1}]}, "seed"),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid_seeds": [0, -1]}, "seed"),
    # two runs of one name would write one run directory
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid": [
        {"mode": "combined", "seed": 3}, {"mode": "combined", "seed": 3, "learning_rate": 0.01}]},
     "combined_cov0.08_seed3"),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "coverages": [0.08, 0.08]},
     "combined_cov0.08_seed0"),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid_seeds": [3, 3]},
     "stats_only_cov0.08_seed3"),
    ("ablate --seed 5", {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid": [
        {"mode": "weak_only", "seed": 1}, {"mode": "weak_only", "seed": 2}]},
     "weak_only_cov0.08_seed5"),
    # integer keys take JSON integers and float keys JSON numbers, never bools or strings
    ("synth", {"synth": dict(TINY_SYNTH, height=8.0)}, "height"),
    ("synth", {"synth": dict(TINY_SYNTH, width="8")}, "width"),
    ("synth", {"synth": dict(TINY_SYNTH, n_samples=True)}, "n_samples"),
    ("synth", {"synth": dict(TINY_SYNTH, seed="3")}, "seed"),
    ("synth", {"synth": dict(TINY_SYNTH, contrast="0.5")}, "contrast"),
    ("synth", {"synth": dict(TINY_SYNTH, noise_std=False)}, "noise_std"),
    ("synth", {"synth": dict(TINY_SYNTH, background_level="0.2")}, "background_level"),
    ("synth", {"synth": dict(TINY_SYNTH, roi_fraction_range=[0.05, "0.2"])},
     "roi_fraction_range"),
    ("train", {"synth": TINY_SYNTH, "model": dict(TINY_MODEL, base_channels=True),
               "ablation": {"mode": "combined"}}, "base_channels"),
    ("train", {"synth": TINY_SYNTH, "model": dict(TINY_MODEL, seed="3"),
               "ablation": {"mode": "combined"}}, "seed"),
    ("train", {"synth": TINY_SYNTH, "model": TINY_MODEL,
               "ablation": {"mode": "combined", "epochs": 2.7}}, "epochs"),
    ("train", {"synth": TINY_SYNTH, "model": TINY_MODEL,
               "ablation": {"mode": "combined", "batch_size": 4.9}}, "batch_size"),
    ("train", {"synth": TINY_SYNTH, "model": TINY_MODEL,
               "ablation": {"mode": "combined", "learning_rate": "0.01"}}, "learning_rate"),
    ("train", {"synth": TINY_SYNTH, "model": TINY_MODEL,
               "ablation": {"mode": "combined", "weak_coverage": True}}, "weak_coverage"),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "epochs": 2.7}, "epochs"),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "batch_size": "8"}, "batch_size"),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "learning_rate": True},
     "learning_rate"),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid_seeds": ["3"]}, "grid_seeds"),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "coverages": [True]}, "coverages"),
], ids=["synth_seed", "synth_seed_flag", "noise_std_nan", "noise_std_inf", "train_synth_seed",
        "train_ablation_seed", "ablate_grid_entry_seed", "ablate_grid_seeds",
        "repeated_grid_entry", "repeated_coverage", "repeated_grid_seed",
        "grid_entries_differing_in_seed_under_seed_flag",
        "float_height", "string_width", "bool_n_samples", "string_synth_seed",
        "string_contrast", "bool_noise_std", "string_background_level",
        "string_roi_fraction", "bool_base_channels", "string_model_seed", "float_epochs",
        "float_batch_size", "string_learning_rate", "bool_weak_coverage",
        "ablate_float_epochs", "ablate_string_batch_size", "ablate_bool_learning_rate",
        "string_grid_seed", "bool_coverage"])
def test_out_of_range_value_exits_1_naming_the_key(tmp_path, monkeypatch, capsys,
                                                   command, doc, key):
    monkeypatch.setattr(data, "generate_synthetic", no_dataset)
    cfg = write_config(tmp_path, dict(doc, out_dir=str(tmp_path / "out")))
    assert main([*command.split(), "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_path_under_a_file_exits_2_before_the_dataset(tmp_path, monkeypatch, capsys,
                                                          command, out):
    monkeypatch.setattr(data, "generate_synthetic", no_dataset)
    (tmp_path / "file").write_text("kept")
    doc = {"synth": TINY_SYNTH, "model": TINY_MODEL}
    if command == "train":
        doc["ablation"] = {"mode": "combined"}
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not a directory" in err[0]
    assert (tmp_path / "file").read_text() == "kept"


def _error_types(cls=StatsegError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


@pytest.mark.parametrize("exc_type", [*_error_types(), OSError, ValueError],
                         ids=lambda t: t.__name__)
def test_every_error_type_exits_with_its_code(tmp_path, monkeypatch, capsys, exc_type):
    def failing_reader(path):
        raise exc_type("boom")

    monkeypatch.setattr(data, "read_mask_pgm", failing_reader)
    code = main(["score", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")])
    expected = {OSError: 2, ValueError: 1}.get(exc_type) or exc_type.exit_code
    assert code == expected and code in (1, 2, 3)
    assert capsys.readouterr().err.splitlines() == ["error: boom"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_nonfinite_loss_exits_3(tmp_path, capsys):
    doc = {"synth": dict(TINY_SYNTH, n_samples=6, seed=1),
           "model": dict(TINY_MODEL, base_channels=2, seed=1),
           "ablation": {"mode": "combined", "epochs": 1, "batch_size": 2,
                        "learning_rate": 1e300, "seed": 1},
           "out_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite loss")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_diverging_gradient_exits_3(tmp_path, capsys):
    doc = {"synth": dict(TINY_SYNTH, n_samples=4, seed=0),
           "model": dict(TINY_MODEL, base_channels=2, seed=0),
           "ablation": {"mode": "stats_only", "epochs": 4, "batch_size": 2,
                        "learning_rate": 1e62},
           "out_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: gradient contains NaN or infinity"]


# Tiny valid configs, one per config-reading command: each runs in well under
# a second, whatever one mutation does to it.
VALID_CONFIGS = [
    ("synth", {"synth": dict(TINY_SYNTH, roi_fraction_range=[0.05, 0.3], contrast=0.6,
                             seed=0)}),
    ("train", {"synth": TINY_SYNTH, "model": dict(TINY_MODEL, base_channels=2),
               "ablation": {"mode": "combined", "epochs": 1, "batch_size": 2}}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL,
                "grid": [{"mode": "weak_only", "epochs": 1, "weak_coverage": 0.5}]}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "epochs": 1,
                "coverages": [0.5], "grid_seeds": [0]}),
]


def _value_paths(doc, prefix=()):
    """Key paths of every value in a JSON document, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _value_paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _retyped(v):
    """Values of every other JSON type, built from v where that is natural."""
    alts = [None, True, 2, 2.5, str(v) if not isinstance(v, str) else "7", [v], {"v": v}]
    return [a for a in alts if type(a) is not type(v)]


@st.composite
def mutated_configs(draw):
    command, doc = draw(st.sampled_from(VALID_CONFIGS))
    doc = json.loads(json.dumps(dict(doc, out_dir="out")))
    paths = list(_value_paths(doc))
    kind = draw(st.sampled_from(["drop", "add", "retype"]))
    if kind == "add":
        parents = [()] + [p for p in paths if isinstance(_at(doc, p), dict)]
        _at(doc, draw(st.sampled_from(parents)))["unknown_key"] = 1
        return command, doc
    if kind == "drop":
        paths = [p for p in paths if isinstance(_at(doc, p[:-1]), dict)]
    path = draw(st.sampled_from(paths))
    parent = _at(doc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(_retyped(parent[path[-1]])))
    return command, doc


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_configs())
@example(("synth", {"synth": dict(VALID_CONFIGS[0][1]["synth"],
                                  roi_fraction_range={"v": [0.05, 0.3]}), "out_dir": "out"}))
def test_mutated_config_exits_0_to_3_with_at_most_one_error_line(tmp_path, monkeypatch,
                                                                 capsys, case):
    command, doc = case
    monkeypatch.chdir(tmp_path)  # out_dir is relative, and mutations may rename it
    cfg = write_config(tmp_path, doc)
    capsys.readouterr()
    code = main([command, "--config", cfg])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2, 3)
    assert sum(line.startswith("error:") for line in err) <= 1
    assert (code == 0) == (not err), err
