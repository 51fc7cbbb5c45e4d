"""The three workloads: train64, gradcheck8 and ablate_disk.

A workload has a set-up, timed on its own; a preparation, untimed, that
every run does once; and rounds. A round is the same operations every
time, so the share of failed operations is the same in every run. A
round returns timed samples (see clock.py) of its headline work and of
batch-1 inference. Every call into statseg goes
through a module attribute looked up at call time, so the tracer's
wrappers see it. The benchmark's own checks run inside
``tracer.quiet()`` and record no spans.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import clock
import oracles

INFER_CHUNK = 40     # images per timed inference sample


@dataclass
class Round:
    work: list = field(default_factory=list)    # clock samples of headline work
    infer: list = field(default_factory=list)   # clock samples of images predicted
    attempted: int = 0
    failed: int = 0


class Workload:
    name = ""
    trace_rounds = 1           # rounds in the traced phase of a --trace 1 run
    min_rounds = 1             # rounds every phase completes, whatever --seconds says
    memory_bound = False       # calibrate with the memory part too (clock.py)

    def __init__(self, S, seed: int, work_dir: Path, tracer):
        self.S = S
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.problems = []
        self.detail = {}
        self.prepared_ops = 0
        self.clock = clock.Clock(self.memory_bound)

    def fail(self, msg: str):
        if msg not in self.problems:
            self.problems.append(msg)

    def check_setup(self):
        """Untimed checks after each set-up."""

    def prepare(self):
        """Untimed work every run does once, after set-up."""

    def infer(self, params, samples, rnd: Round):
        """Batch-1 forward + evaluate_predictions in timed chunks, then the IoU recount."""
        S = self.S
        preds, ious = [], []
        for start in range(0, len(samples), INFER_CHUNK):
            chunk = samples[start:start + INFER_CHUNK]
            t = self.clock.start()
            chunk_preds = [S.model.forward(params, s.image).pred for s in chunk]
            report = S.evaluation.evaluate_predictions(chunk_preds, chunk)
            self.clock.stop(t, len(chunk), rnd.infer)
            preds += chunk_preds
            ious += report.ious
        rnd.attempted += len(samples)
        with self.tracer.quiet():
            p_arr = [p.values for p in preds]
            bad = oracles.iou_mismatches(p_arr, [s.gt.values for s in samples], ious)
            if bad:
                self.fail(f"IoU recount disagrees with evaluate_predictions on {len(bad)} images")
            self._self_check_iou(p_arr, samples)
        return p_arr, ious

    def _self_check_iou(self, p_arr, samples):
        """The recount must reject a prediction shifted by one pixel."""
        S = self.S
        k = next((i for i, (p, s) in enumerate(zip(p_arr, samples))
                  if oracles.recount_iou(p, s.gt.values) != oracles.recount_iou(
                      oracles.shifted_by_one_pixel(p), s.gt.values)), None)
        if k is None:  # no prediction whose IoU a shift changes: shift the gt instead
            k, p = 0, samples[0].gt.values
        else:
            p = p_arr[k]
        corrupted = S.grid.SoftMask(oracles.shifted_by_one_pixel(p))
        bad_report = S.evaluation.evaluate_predictions([corrupted], [samples[k]])
        if not oracles.iou_mismatches([p], [samples[k].gt.values], bad_report.ious):
            self.fail("self-check: IoU recount accepted a prediction shifted by one pixel")


# ---------------------------------------------------------------- train64

class Train64(Workload):
    name = "train64"
    DATA_SEED = 2        # the acceptance suite's benchmark seed; see README
    QUALITY_EPOCHS = 10  # past the all-background phase: IoU leaves 0 at epoch 8
    TIMED_EPOCHS = 2     # each timed train() call; short, so a run holds several
    MIN_IOU = 0.5
    memory_bound = True

    def __init__(self, S, seed, work_dir, tracer):
        super().__init__(S, seed, work_dir, tracer)
        self.model_config = S.model.ModelConfig(S.grid.GridShape(64, 64),
                                                base_channels=4, seed=self.DATA_SEED)
        self.dataset = None
        self.params = None
        self.ref = None

    def _ablation(self, epochs):
        return self.S.training.AblationConfig(mode="combined", epochs=epochs,
                                              batch_size=8, seed=self.DATA_SEED)

    def conv_shape(self):
        return (8, 64, 64, 4)

    def setup(self, i):
        S = self.S
        self._made = S.data.generate_synthetic(
            S.data.standard_benchmark_config(seed=self.DATA_SEED))

    def check_setup(self):
        dataset, self._made = self._made, None
        if self.dataset is None:
            self.dataset = dataset
            # the workload seed fixes the order in which images are predicted
            order = np.random.default_rng(self.seed).permutation(len(dataset))
            self.infer_samples = [dataset[j] for j in order]
        elif not all(np.array_equal(a.image.values, b.image.values)
                     and np.array_equal(a.gt.values, b.gt.values)
                     for a, b in zip(dataset, self.dataset)):
            self.fail("generate_synthetic is not deterministic")

    def prepare(self):
        """Train to past the all-background phase and check the outcome."""
        if self.params is not None:
            return
        S = self.S
        t0 = time.perf_counter()
        record = S.training.train(self.dataset, self._ablation(self.QUALITY_EPOCHS),
                                  self.model_config)
        self.detail["quality_train_s"] = time.perf_counter() - t0
        self.prepared_ops = 1
        if not record.final_train_loss < record.initial_train_loss:
            self.fail("final train loss is not below the initial train loss")
        if record.degenerate or record.final_iou < self.MIN_IOU:
            self.fail(f"{self.QUALITY_EPOCHS}-epoch training ended degenerate="
                      f"{record.degenerate} with IoU {record.final_iou:.3f} (< {self.MIN_IOU} fails)")
        if len(record.epoch_ious) != self.QUALITY_EPOCHS:
            self.fail("epoch IoU history has the wrong length")
        self.params = S.model.ModelParams.from_flat(self.model_config, record.final_params_flat)
        self.detail.update(final_iou=record.final_iou,
                           initial_train_loss=record.initial_train_loss,
                           final_train_loss=record.final_train_loss)

    def round(self, k):
        S = self.S
        rnd = Round(attempted=1)
        n_train = len(self.dataset) - max(1, round(0.2 * len(self.dataset)))
        t = self.clock.start()
        record = S.training.train(self.dataset, self._ablation(self.TIMED_EPOCHS),
                                  self.model_config)
        self.clock.stop(t, self.TIMED_EPOCHS * n_train, rnd.work)
        with self.tracer.quiet():
            if not record.final_train_loss < record.initial_train_loss:
                self.fail(f"{self.TIMED_EPOCHS}-epoch train loss did not decrease")
            if self.ref is None:
                self.ref = record
            elif not (np.array_equal(record.final_params_flat, self.ref.final_params_flat)
                      and record.epoch_ious == self.ref.epoch_ious):
                self.fail("two train() calls on the same inputs disagree")
        _, ious = self.infer(self.params, self.infer_samples, rnd)
        if np.mean(ious) < self.MIN_IOU:
            self.fail(f"IoU over all 200 images {np.mean(ious):.3f} < {self.MIN_IOU}")
        self.detail["all_images_iou"] = float(np.mean(ious))
        return rnd


# ---------------------------------------------------------------- gradcheck8

class GradCheck8(Workload):
    name = "gradcheck8"
    BASE_POINTS = 2
    # every candidate is scored, so set-up work does not depend on the seed;
    # about 15% of candidates are kink-free, so 96 all fail with p ~ 2e-7
    CANDIDATES = 96
    FD_CHUNK = 64        # parameters per timed sample (two loss evaluations each)
    INFER_N = 120
    trace_rounds = 2

    def __init__(self, S, seed, work_dir, tracer):
        super().__init__(S, seed, work_dir, tracer)
        self.cfg = S.model.ModelConfig(S.grid.GridShape(8, 8), base_channels=4, seed=0)
        self.points = None
        self.worst_rel_err = 0.0

    def conv_shape(self):
        return (1, 8, 8, 4)

    def _margin(self, params, image, gt_mean):
        """Distance to the nearest kink, scaled so that >= 1 is kink-free."""
        S = self.S
        t = params.tensors
        x = image[None, None]
        p_b, r_b, cache = S.model._forward_batch(params, x)
        z = S.model._conv2d(x, t["enc1.w"], t["enc1.b"])
        smallest = np.abs(z).min()
        for name, stride in (("enc2", 2), ("enc3", 2)):
            z = S.model._conv2d(np.maximum(z, 0.0), t[f"{name}.w"], t[f"{name}.b"], stride=stride)
            smallest = min(smallest, np.abs(z).min())
        for name in ("dec1", "dec2"):
            z = S.model._conv2d(S.model._upsample2(np.maximum(z, 0.0)),
                                t[f"{name}.w"], t[f"{name}.b"])
            smallest = min(smallest, np.abs(z).min())
        if not cache["a5"].max() > 0.0:
            return 0.0
        return min(np.abs(r_b[0, 0] - image).min() / 2e-3,
                   abs(p_b[0, 0].mean() - gt_mean) / 1e-3, smallest / 1e-3)

    def setup(self, i):
        S = self.S
        points = []
        for k in range(self.BASE_POINTS):
            rng = np.random.default_rng([self.seed, k])
            gt = (rng.uniform(size=(8, 8)) < 0.3).astype(float)
            gt[4, 4] = 1.0
            weak = gt * (rng.uniform(size=(8, 8)) < 0.5)
            weak[4, 4] = 1.0
            best = None
            for _ in range(self.CANDIDATES):
                image = rng.uniform(0.0, 1.0, (8, 8))
                model_seed = int(rng.integers(2 ** 31))
                params = S.model.init_params(S.model.ModelConfig(
                    S.grid.GridShape(8, 8), base_channels=4, seed=model_seed))
                margin = self._margin(params, image, gt.mean())
                if margin >= 1.0 and (best is None or margin > best[0]):
                    best = (margin, image, params.flatten())
            if best is None:
                self.fail(f"no kink-free base point among {self.CANDIDATES} candidates (k={k})")
                continue
            flat = best[2]
            points.append({"image": best[1], "gt": gt, "weak": weak, "flat": flat,
                           "params": S.model.ModelParams.from_flat(self.cfg, flat)})
        rng = np.random.default_rng([self.seed, 1000])
        samples = []
        for _ in range(self.INFER_N):
            gt = (rng.uniform(size=(8, 8)) < 0.3).astype(float)
            gt[4, 4] = 1.0
            weak = np.zeros_like(gt)
            weak[4, 4] = 1.0
            mask = S.grid.Mask(gt)
            samples.append(S.data.Sample(image=S.grid.Image(rng.uniform(0.0, 1.0, (8, 8))),
                                         gt=mask, weak=S.grid.Mask(weak),
                                         stat=S.grid.summary_stat(mask)))
        self._made = points, samples

    def check_setup(self):
        (points, samples), self._made = self._made, None
        if self.points is None:
            self.points, self.infer_samples = points, samples
        elif any(not np.array_equal(a["flat"], b["flat"]) for a, b in zip(points, self.points)):
            self.fail("base-point search is not deterministic")

    def round(self, k):
        S = self.S
        rnd = Round(attempted=1)
        if not self.points:
            rnd.failed = 1
            return rnd
        bp = self.points[k % len(self.points)]
        image, gt, weak, flat = bp["image"], bp["gt"], bp["weak"], bp["flat"]
        x_b = image[None, None]
        gt_mean = gt.mean()
        on = weak == 1.0
        cfg = self.cfg
        model = S.model

        def loss_of(vec):
            # value-only restatement of the default-weight total_loss, as in
            # criterion 2; checked below to equal total_loss at the base point
            p_b, r_b, _ = model._forward_batch(model.ModelParams.from_flat(cfg, vec), x_b)
            p, r = p_b[0, 0], r_b[0, 0]
            pc = np.clip(p, 1e-7, 1.0 - 1e-7)
            return (0.25 - np.mean((0.5 - p) ** 2) + np.mean(np.abs(image - r))
                    + abs(gt_mean - p.mean()) + np.where(on, -np.log(pc), 0.0).mean())

        params = bp["params"]
        p_b, r_b, cache = model._forward_batch(params, x_b)
        rep, d_pred, d_recon = S.losses.total_loss(image, gt, weak, p_b[0, 0], r_b[0, 0])
        analytic = model._backward_batch(params, cache, d_pred[None, None],
                                         d_recon[None, None]).flatten()
        numeric = np.empty_like(flat)
        vec = flat.copy()
        for start in range(0, flat.size, self.FD_CHUNK):
            stop = min(start + self.FD_CHUNK, flat.size)
            t = self.clock.start()
            for i in range(start, stop):
                vec[i] = flat[i] + oracles.STEP
                f_plus = loss_of(vec)
                vec[i] = flat[i] - oracles.STEP
                f_minus = loss_of(vec)
                vec[i] = flat[i]
                numeric[i] = (f_plus - f_minus) / (2.0 * oracles.STEP)
            self.clock.stop(t, 2 * (stop - start), rnd.work)

        with self.tracer.quiet():
            self._check_point(params, image, p_b, r_b, rep, loss_of(flat), analytic, numeric)
        self.infer(params, self.infer_samples, rnd)
        return rnd

    def _check_point(self, params, image, p_b, r_b, rep, restated, analytic, numeric):
        if abs(restated - rep.total) > 1e-12:
            self.fail("value-only loss restatement disagrees with total_loss")
        if analytic.size != oracles.param_count(4):
            self.fail(f"gradient has {analytic.size} entries, expected {oracles.param_count(4)}")
        err = oracles.max_rel_err(analytic, numeric)
        self.worst_rel_err = max(self.worst_rel_err, err)
        if not err < oracles.GRAD_TOL:
            self.fail(f"analytic gradient rel err {err:.2e} >= {oracles.GRAD_TOL}")
        if not oracles.max_rel_err(-analytic, numeric) >= oracles.GRAD_TOL:
            self.fail("self-check: gradient oracle accepted a sign-flipped gradient")
        tensors = params.tensors
        ref_pred, ref_recon, smallest = oracles.reference_forward(tensors, image)
        diff = max(np.abs(ref_pred - p_b[0, 0]).max(), np.abs(ref_recon - r_b[0, 0]).max())
        if not diff < oracles.REF_TOL:
            self.fail(f"_forward_batch differs from the loop reference by {diff:.2e}")
        if not smallest > 1e-3:
            self.fail(f"base point sits {smallest:.1e} from a ReLU kink")
        perturbed = dict(tensors)
        perturbed["seg.w"] = tensors["seg.w"] + 0.01
        if not oracles.reference_mismatch(perturbed, image, p_b[0, 0], r_b[0, 0]) > oracles.REF_TOL:
            self.fail("self-check: reference comparison accepted a perturbed conv weight")
        self.detail.update(worst_grad_rel_err=self.worst_rel_err,
                           reference_max_diff=float(diff))


# ---------------------------------------------------------------- ablate_disk

def _invoke(S, argv):
    """statseg main() in-process: (exit code or exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = S.cli.main([str(a) for a in argv])
        except Exception as exc:  # a traceback from main() is the fault being counted
            rc = exc
    return rc, out.getvalue(), err.getvalue()


def _read_tree(root: Path, pattern: str) -> dict:
    """{relative path: bytes} of the files under root matching pattern."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.glob(pattern))}


class AblateDisk(Workload):
    name = "ablate_disk"
    SIZE = 16
    N = 240
    EPOCHS = 2
    RUNS = 6                   # the default grid: stats, 3 x combined, weak, full
    INFER_N = 40               # images predicted with each run's checkpoint
    trace_rounds = 2
    min_rounds = 2             # the CSV rerun check needs two ablate calls

    def __init__(self, S, seed, work_dir, tracer):
        super().__init__(S, seed, work_dir, tracer)
        w = work_dir
        self.data_dir = w / "data"
        self.out_dir = w / "ablate"
        self._write(w / "synth.json", {"synth": {
            "height": self.SIZE, "width": self.SIZE, "n_samples": self.N, "seed": seed}})
        self._write(w / "ablate.json", {
            "dataset_dir": str(self.data_dir),
            "model": {"height": self.SIZE, "width": self.SIZE, "base_channels": 4, "seed": seed},
            "grid_seeds": [seed], "epochs": self.EPOCHS})
        # wrong-typed values that main() should turn into exit 1 + one error line
        tiny = {"height": 8, "width": 8, "n_samples": 2}
        self.bad = [
            ("synth", self._write(w / "bad_range.json", {"synth": dict(
                tiny, roi_fraction_range=5), "out_dir": str(w / "bad_out")})),
            ("train", self._write(w / "bad_synth.json", {
                "synth": [], "model": {"height": 8, "width": 8},
                "ablation": {"mode": "combined"}, "out_dir": str(w / "bad_out")})),
            ("ablate", self._write(w / "bad_grid.json", {
                "synth": tiny, "model": {"height": 8, "width": 8}, "grid": [1],
                "out_dir": str(w / "bad_out")})),
        ]
        self.samples = None
        self.dataset_bytes = None
        self.csv_bytes = None
        self.bad_outcomes = {}

    @staticmethod
    def _write(path, doc):
        path.write_text(json.dumps(doc))
        return path

    def conv_shape(self):
        return (8, self.SIZE, self.SIZE, 4)

    def setup(self, i):
        # every set-up after the first rewrites the same files, as a rerun of
        # synth into an existing directory does; creating fresh files costs
        # ~0.7 ms of kernel time each here, and that cost grew run after run
        self._rc = _invoke(self.S, ["synth", "--config", self.work_dir / "synth.json",
                                    "--out", self.data_dir])

    def check_setup(self):
        rc, _, err = self._rc
        if rc != 0:
            self.fail(f"statseg synth failed: {rc!r} {err.strip()}")
            return
        files = _read_tree(self.data_dir, "*.pgm")
        if self.dataset_bytes is None:
            self.dataset_bytes = files
        elif files != self.dataset_bytes:
            self.fail("statseg synth wrote different files on a rerun")

    def prepare(self):
        if self.samples is None:
            self.samples = self.S.data.load_dataset(self.data_dir)[:self.INFER_N]

    def round(self, k):
        S = self.S
        rnd = Round(attempted=1)
        out = self.out_dir
        n_train = self.N - max(1, round(0.2 * self.N))
        t = self.clock.start()
        rc, _, err = _invoke(S, ["ablate", "--config", self.work_dir / "ablate.json",
                                 "--out", out, "--jobs", "1"])
        if rc != 0:
            rnd.failed += 1
            self.detail["ablate_error"] = f"{rc!r} {err.strip()}"
        else:
            self.clock.stop(t, self.RUNS * self.EPOCHS * n_train, rnd.work)
            run_dirs = sorted(p for p in out.iterdir() if p.is_dir())
            with self.tracer.quiet():
                self._check_outputs(out, run_dirs)
            for rd in run_dirs:
                rnd.attempted += 1
                rnd.failed += int(not self._check_score(rd))
            for rd in run_dirs:
                with self.tracer.quiet():
                    params = S.model.load_checkpoint(rd / "model.ckpt")
                    if params.n_params != oracles.param_count(4):
                        self.fail(f"{rd.name}/model.ckpt has {params.n_params} parameters")
                self.infer(params, self.samples, rnd)
            with self.tracer.quiet():
                csvs = _read_tree(out, "summary.csv") | _read_tree(out, "*/epochs.csv")
                if self.csv_bytes is None:
                    self.csv_bytes = csvs
                elif csvs != self.csv_bytes:
                    self.fail("the CSVs differ between two ablate calls of the same config")
        for command, path in self.bad:
            rnd.attempted += 1
            rc, _, err = _invoke(S, [command, "--config", path])
            lines = err.splitlines()
            ok = rc == 1 and len(lines) == 1 and lines[0].startswith("error:")
            rnd.failed += int(not ok)
            self.bad_outcomes[path.name] = (
                "exit 1" if ok else type(rc).__name__ if isinstance(rc, Exception) else f"exit {rc}")
        self.detail["wrong_typed_configs"] = self.bad_outcomes
        return rnd

    def _check_outputs(self, out, run_dirs):
        rows = (out / "summary.csv").read_text().splitlines()
        if len(rows) != 1 + self.RUNS or len(run_dirs) != self.RUNS:
            self.fail(f"ablate wrote {len(rows) - 1} summary rows and {len(run_dirs)} run dirs")
        for rd in run_dirs:
            for kk in range(4):
                gt = oracles.read_p5(rd / f"sample{kk}.gt.pgm") >= 128
                weak = oracles.read_p5(rd / f"sample{kk}.weak.pgm") >= 128
                if not weak.any() or (weak & ~gt).any():
                    self.fail(f"{rd.name}/sample{kk}: weak overlay is not a non-empty subset of gt")

    def _check_score(self, rd) -> bool:
        pred, gt = rd / "sample0.pred.pgm", rd / "sample0.gt.pgm"
        rc, out, err = _invoke(self.S, ["score", pred, gt])
        if rc != 0:
            return False
        with self.tracer.quiet():
            expect = oracles.recount_iou(oracles.read_p5(pred) >= 128,
                                         (oracles.read_p5(gt) >= 128).astype(float))
            if out.strip() != f"{expect:.4f}":
                self.fail(f"statseg score printed {out.strip()}, recount gives {expect:.4f}")
        return True


WORKLOADS = {w.name: w for w in (Train64, GradCheck8, AblateDisk)}
