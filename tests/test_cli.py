import json

import numpy as np
import pytest

from statseg.cli import main
from statseg.pgm import write_pgm


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


def test_synth_unknown_key_rejected(tmp_path):
    doc = synth_doc(tmp_path / "ds")
    doc["synth"]["typo_key"] = 1
    cfg = write_config(tmp_path, doc)
    assert main(["synth", "--config", cfg]) == 1


def test_missing_config_exits_1(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "none.json")]) == 1


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


TINY_SYNTH = {"height": 8, "width": 8, "n_samples": 2}
TINY_MODEL = {"height": 8, "width": 8}


@pytest.mark.parametrize("command,doc", [
    ("synth", {"synth": dict(TINY_SYNTH, roi_fraction_range=5)}),
    ("train", {"synth": [], "model": TINY_MODEL, "ablation": {"mode": "combined"}}),
    ("train", {"synth": TINY_SYNTH, "model": [], "ablation": {"mode": "combined"}}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid": [1]}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "epochs": [1]}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "epochs": float("inf")}),
    ("ablate", {"synth": TINY_SYNTH, "model": TINY_MODEL, "grid_seeds": 5}),
    ("ablate", {"dataset_dir": 5, "model": TINY_MODEL}),
], ids=["roi_range_int", "synth_list", "model_list", "grid_entry_int",
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

