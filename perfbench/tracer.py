"""Spans around statseg's module attributes, recorded from outside the package.

The tracer replaces a module attribute (a function, a classmethod or a
class's ``__init__``) with a wrapper that opens a span, calls the original
and closes the span. A span is (id, parent id, round, name, start, end):
the round is the benchmark operation the span belongs to (-1 for set-up),
the parent is the span open when it started. The first ``span_cap`` spans
are kept in memory and written out once, at the end of the traced run;
per-name aggregates (calls, inclusive seconds, self seconds) cover every
span. A span's self time is its duration minus the durations of its
children.
"""
from __future__ import annotations

import contextlib
import time

_MARK = "__perfbench_original__"

# _forward_batch calls _conv2d once per layer in this order, and
# _backward_batch calls _conv2d_backward in this order; the position of a
# conv call among its parent's conv calls names its layer.
CONV_LAYERS = ("enc1", "enc2", "enc3", "dec1", "dec2", "seg", "rec")
_FWD_ORDER = CONV_LAYERS
_BWD_ORDER = ("seg", "rec", "dec2", "dec1", "enc3", "enc2", "enc1")


class NullTracer:
    """Stands in for a Tracer in untraced runs: no wrappers, no spans."""

    round = -1

    def quiet(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans = []
        self.n_spans = 0
        self.stats = {}        # name -> [calls, inclusive s, self s]
        self.counters = {}     # name -> summed count (flops, bytes)
        self.round = -1
        self.enabled = True
        self._stack = []       # open frames: [span id, name, child s, conv calls]
        self._patches = []     # (owner, attr, original raw attribute)

    @contextlib.contextmanager
    def quiet(self):
        """Calls made inside (the benchmark's own checks) record no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def count(self, name: str, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name, label=None, after=None):
        tracer = self
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_name = label(parent, args) if label else name
            sid = tracer.n_spans
            tracer.n_spans += 1
            frame = [sid, span_name, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                st = tracer.stats.get(span_name)
                if st is None:
                    st = tracer.stats[span_name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if sid < tracer.span_cap:
                    tracer.spans.append((sid, parent[0] if parent else -1,
                                         tracer.round, span_name, t0, t1))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def patch(self, owner, attr: str, name: str, label=None, after=None):
        """Replace owner.attr with a span-recording wrapper of it."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, label, after))
        else:
            new = self._wrap(raw, name, label, after)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("id,parent,round,name,start_s,end_s\n")
            for sid, parent, rnd, name, t0, t1 in sorted(self.spans):
                f.write(f"{sid},{parent},{rnd},{name},{t0:.9f},{t1:.9f}\n")


def _conv_label(order, parent_name, suffix):
    def label(parent, args):
        if parent is None or parent[1] != parent_name:
            return f"model.conv.other.{suffix}"
        idx = parent[3]
        parent[3] += 1
        layer = order[idx] if idx < len(order) else "other"
        return f"model.conv.{layer}.{suffix}"
    return label


def _conv_flops(tracer, args, kwargs, result):
    x, w = args[0], args[1]
    y = result
    tracer.count("conv_flops", 2.0 * y.shape[0] * w.shape[0] * x.shape[1]
                 * w.shape[2] * w.shape[3] * y.shape[2] * y.shape[3])


def _conv_bwd_flops(tracer, args, kwargs, result):
    dy, x, w = args[0], args[1], args[2]
    # dW and dX each cost as many multiply-adds as the forward product
    tracer.count("conv_flops", 4.0 * dy.shape[0] * w.shape[0] * x.shape[1]
                 * w.shape[2] * w.shape[3] * dy.shape[2] * dy.shape[3])


def _pgm_bytes(tracer, args, kwargs, result):
    values = args[1]
    h, w = values.shape
    maxval = args[2] if len(args) > 2 else kwargs.get("maxval", 255)
    tracer.count("pgm_bytes", len(f"P5\n{w} {h}\n{maxval}\n") + h * w)


def _cli_label(parent, args):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def install(tracer: Tracer, statseg_modules: dict):
    """Wrap every layer boundary the benchmark reports, where callers look it up."""
    m = statseg_modules
    model, training, data = m["model"], m["training"], m["data"]
    evaluation, cli, morphology, grid = (m["evaluation"], m["cli"],
                                         m["morphology"], m["grid"])
    for owner in (model, training):
        tracer.patch(owner, "_forward_batch", "model.forward_batch")
        tracer.patch(owner, "_backward_batch", "model.backward_batch")
    tracer.patch(model, "_conv2d", "model.conv",
                 label=_conv_label(_FWD_ORDER, "model.forward_batch", "fwd"),
                 after=_conv_flops)
    tracer.patch(model, "_conv2d_backward", "model.conv",
                 label=_conv_label(_BWD_ORDER, "model.backward_batch", "bwd"),
                 after=_conv_bwd_flops)
    tracer.patch(model, "forward", "model.forward")
    tracer.patch(model.ModelParams, "from_flat", "model.params_from_flat")
    tracer.patch(cli, "save_checkpoint", "model.checkpoint_write")
    for owner in (training, m["losses"]):
        tracer.patch(owner, "total_loss", "losses.total_loss")
    tracer.patch(training, "train", "training.train")
    tracer.patch(training, "optimizer_step", "training.adam")
    tracer.patch(training, "_mean_total", "training.loss_pass")
    tracer.patch(training, "_eval_predictions", "training.eval_pass")
    for owner in (training, data, cli):
        tracer.patch(owner, "weak_mask", "morphology.weak_mask")
    tracer.patch(morphology, "erode", "morphology.erode")
    for owner in (training, evaluation):
        tracer.patch(owner, "evaluate_predictions", "evaluation.evaluate")
    tracer.patch(cli, "emit_report", "evaluation.emit_report")
    tracer.patch(data, "generate_synthetic", "data.generate")
    tracer.patch(data, "load_dataset", "data.load_dataset")
    tracer.patch(data, "read_pgm", "pgm.read")
    for owner in (data, evaluation, cli):
        tracer.patch(owner, "write_pgm", "pgm.write", after=_pgm_bytes)
    for cls in (grid.Image, grid.Mask, grid.SoftMask):
        tracer.patch(cls, "__init__", "grid.construct")
    tracer.patch(cli, "main", "cli.main", label=_cli_label)


def leftover_wrappers(statseg_modules: dict) -> list:
    """Names of module or class attributes that are still tracing wrappers."""
    found = []
    for mod_name, mod in statseg_modules.items():
        for attr, value in vars(mod).items():
            owners = [(f"{mod_name}.{attr}", value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                owners += [(f"{mod_name}.{attr}.{a}", v) for a, v in vars(value).items()]
            for where, v in owners:
                if isinstance(v, classmethod):
                    v = v.__func__
                if hasattr(v, _MARK):
                    found.append(where)
    return found


def _per_call(stats, name, scale, self_time=False):
    calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
    if not calls:
        return 0.0
    return (self_s if self_time else total) / calls * scale


def _calls(stats, name):
    return stats.get(name, (0,))[0]


def layer_metrics(tracer: Tracer, conv_gflop_per_step: float) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    s = tracer.stats
    out = {
        "model.forward_batch_ms": (_per_call(s, "model.forward_batch", 1e3), "ms"),
        "model.forward_batch_self_ms": (_per_call(s, "model.forward_batch", 1e3, True), "ms"),
        "model.backward_batch_ms": (_per_call(s, "model.backward_batch", 1e3), "ms"),
        "model.backward_batch_self_ms": (_per_call(s, "model.backward_batch", 1e3, True), "ms"),
    }
    for layer in CONV_LAYERS:
        for kind in ("fwd", "bwd"):
            out[f"model.conv.{layer}.{kind}_ms"] = (
                _per_call(s, f"model.conv.{layer}.{kind}", 1e3), "ms")
    conv_s = sum(st[2] for name, st in s.items() if name.startswith("model.conv."))
    out["model.conv.gflop_per_step"] = (conv_gflop_per_step, "GFLOP")
    out["model.conv.gflops"] = (
        tracer.counters.get("conv_flops", 0.0) / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s")
    out.update({
        "model.forward_us": (_per_call(s, "model.forward", 1e6), "us"),
        "model.params_from_flat_us": (_per_call(s, "model.params_from_flat", 1e6), "us"),
        "model.checkpoint_write_ms": (_per_call(s, "model.checkpoint_write", 1e3), "ms"),
        "losses.total_loss_us": (_per_call(s, "losses.total_loss", 1e6), "us"),
        "losses.calls": (_calls(s, "losses.total_loss"), "count"),
        "training.train_s": (_per_call(s, "training.train", 1.0), "s"),
        "training.adam_ms": (_per_call(s, "training.adam", 1e3), "ms"),
        "training.steps": (_calls(s, "training.adam"), "count"),
        "training.loss_pass_s": (_per_call(s, "training.loss_pass", 1.0), "s"),
        "training.eval_pass_s": (_per_call(s, "training.eval_pass", 1.0), "s"),
        "morphology.weak_mask_calls": (_calls(s, "morphology.weak_mask"), "count"),
        "morphology.weak_mask_us": (_per_call(s, "morphology.weak_mask", 1e6), "us"),
        "morphology.erode_calls": (_calls(s, "morphology.erode"), "count"),
        "evaluation.evaluate_ms": (_per_call(s, "evaluation.evaluate", 1e3), "ms"),
        "evaluation.emit_report_s": (_per_call(s, "evaluation.emit_report", 1.0), "s"),
        "data.generate_s": (_per_call(s, "data.generate", 1.0), "s"),
        "data.load_dataset_s": (_per_call(s, "data.load_dataset", 1.0), "s"),
        "pgm.read_calls": (_calls(s, "pgm.read"), "count"),
        "pgm.read_us": (_per_call(s, "pgm.read", 1e6), "us"),
        "pgm.write_calls": (_calls(s, "pgm.write"), "count"),
        "pgm.write_us": (_per_call(s, "pgm.write", 1e6), "us"),
        "pgm.bytes_written": (tracer.counters.get("pgm_bytes", 0), "bytes"),
        "grid.constructions": (_calls(s, "grid.construct"), "count"),
        "grid.construct_us": (_per_call(s, "grid.construct", 1e6), "us"),
        "cli.self_s": (_per_call(s, "cli.ablate", 1.0, True), "s"),
        "trace.spans": (tracer.n_spans, "count"),
    })
    return out
