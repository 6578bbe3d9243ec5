"""Instrumentation of vqsct's public functions from outside the package.

Two instruments share one rebinding mechanism:

* ``StepClock`` wraps ``training.adamw_step`` and keeps the return time of
  every optimizer step. It is the only hook in an untraced run.
* ``Tracer`` wraps every public function named in ``TRACED`` and records
  one span per call (name, start, end, parent, details). Per-layer metrics
  are derived from the spans after the run by ``layer_metrics``.

A wrapper replaces the original function object wherever a ``vqsct.*``
module namespace holds it, so ``from .model import forward`` copies inside
``pipeline`` and ``training`` are covered too. ``Patch.restore`` puts every
original back. A traced function that no longer exists is reported as
missing; it never stops the run.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, function) pairs wrapped by a traced run.
TRACED = [
    ("autograd", "conv_forward_data"),
    ("autograd", "conv_backward_data"),
    ("autograd", "backward"),
    ("model", "forward"),
    ("model", "load_checkpoint"),
    ("model", "save_checkpoint"),
    ("codebook", "quantize"),
    ("codebook", "ema_update"),
    ("codebook", "expire_stale"),
    ("codebook", "kmeans_init"),
    ("training", "adamw_step"),
    ("volume", "read_volume"),
    ("volume", "write_volume"),
    ("volume", "normalize"),
    ("volume", "pad_to_multiple"),
    ("volume", "apply_plane_symmetry"),
    ("volume", "apply_cube_symmetry"),
    ("volume", "extract_cubes"),
    ("volume", "stitch_cubes"),
    ("pipeline", "translate_slices"),
    ("pipeline", "slice_volume"),
    ("pipeline", "restack_slices"),
    ("pipeline", "fuse_median"),
    ("pipeline", "reconstruct_cubes"),
    ("evaluation", "body_contour"),
    ("evaluation", "ssim"),
    ("evaluation", "dsc"),
    ("evaluation", "evaluate_case"),
    ("evaluation", "write_report_csv"),
    ("phantom", "generate_phantom_pair"),
]

# Observed, not timed: tells which weight arrays a training command froze.
FREEZE_PROBE = ("model", "apply_freeze")

# Layers named from checkpoint parameters; a traced conv is matched to its
# layer by weight shape.
LAYERS = ["enc.0", "enc.1", "vq0.io", "vq1.in", "vq1.out",
          "dec.0", "dec.1", "dec.final"]


def _vqsct_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vqsct" or name.startswith("vqsct."))]


class Patch:
    """Rebind function objects by identity across vqsct module namespaces."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper) -> int:
        count = 0
        for module in _vqsct_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
                    count += 1
        return count

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def _lookup(module_name, func_name):
    module = sys.modules.get(f"vqsct.{module_name}")
    return getattr(module, func_name, None) if module is not None else None


class StepClock:
    """Return timestamps of ``training.adamw_step`` (optimizer step ends)."""

    def __init__(self):
        self.stamps: list[float] = []

    def install(self, patch: Patch) -> None:
        original = _lookup("training", "adamw_step")
        if original is None:
            return
        stamps = self.stamps

        def adamw_step(*args, **kwargs):
            result = original(*args, **kwargs)
            stamps.append(time.perf_counter())
            return result

        patch.replace(original, adamw_step)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _conv_flops(w_shape, out_spatial) -> float:
    """Multiply-adds x 2 of one direct convolution, from shapes."""
    return 2.0 * float(np.prod(w_shape)) * float(np.prod(out_spatial))


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Record a span per call of each traced function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.frozen_ids: set[int] = set()
        self._stack: list[int] = []

    def open(self, name, info=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               info=info or {}))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def install(self, patch: Patch) -> None:
        self.missing = []
        for module_name, func_name in TRACED:
            original = _lookup(module_name, func_name)
            if original is None or patch.replace(
                    original, self._wrap(func_name, original)) == 0:
                self.missing.append(f"{module_name}.{func_name}")
        apply_freeze = _lookup(*FREEZE_PROBE)
        if apply_freeze is not None:
            patch.replace(apply_freeze, self._freeze_probe(apply_freeze))

    def _freeze_probe(self, original):
        frozen_ids = self.frozen_ids

        def apply_freeze(ckpt, mask):
            trainable = original(ckpt, mask)
            frozen_ids.clear()
            frozen_ids.update(id(arr) for name, arr in ckpt.params.items()
                              if name not in trainable)
            return trainable

        return apply_freeze

    def _wrap(self, name, original):
        describe = _DESCRIBE.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if describe is not None:
                try:
                    tracer.spans[index].info = describe(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError,
                        ValueError):
                    pass  # a changed signature loses the details, not the span
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__wrapped__ = original
        return wrapper


def _describe_conv_fwd(tracer, args, kwargs, result):
    w = _arg(args, kwargs, 1, "w")
    return {"w_shape": tuple(w.shape),
            "flops": _conv_flops(w.shape, result.shape[1:])}


def _describe_conv_bwd(tracer, args, kwargs, result):
    w = _arg(args, kwargs, 1, "w")
    gy = _arg(args, kwargs, 2, "gy")
    # grad_x and grad_w each cost one forward's worth of multiply-adds
    return {"w_shape": tuple(w.shape),
            "flops": 2.0 * _conv_flops(w.shape, gy.shape[1:]),
            "frozen": id(w) in tracer.frozen_ids}


def _describe_quantize(tracer, args, kwargs, result):
    return {"rows": int(np.shape(_arg(args, kwargs, 1, "inputs"))[0])}


def _describe_expire(tracer, args, kwargs, result):
    return {"expired": int(np.size(getattr(result, "replaced", ())))}


def _describe_read(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path)}


def _describe_write(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path)}


_DESCRIBE = {
    "conv_forward_data": _describe_conv_fwd,
    "conv_backward_data": _describe_conv_bwd,
    "quantize": _describe_quantize,
    "expire_stale": _describe_expire,
    "read_volume": _describe_read,
    "write_volume": _describe_write,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_names(params) -> dict:
    """Map conv weight shape -> layer name; shared shapes merge their names.

    ``vq0.in`` and ``vq0.out`` share a shape when the bottleneck width
    equals the code dimension and become ``vq0.io``.
    """
    by_shape: dict[tuple, list[str]] = {}
    for name, arr in params.items():
        if name.endswith(".w"):
            by_shape.setdefault(tuple(arr.shape), []).append(name[:-2])
    out = {}
    for shape, names in by_shape.items():
        names.sort()
        stems = {n.rsplit(".", 1)[0] for n in names}
        if len(names) == 2 and len(stems) == 1 and \
                {n.rsplit(".", 1)[1] for n in names} == {"in", "out"}:
            out[shape] = f"{stems.pop()}.io"
        else:
            out[shape] = "-".join(names)
    return out


# metric -> traced function whose total span time it reports
_TOTAL_MS = {
    "autograd.conv_fwd_ms": "conv_forward_data",
    "autograd.conv_bwd_ms": "conv_backward_data",
    "autograd.backward_ms": "backward",
    "model.forward_ms": "forward",
    "model.load_ms": "load_checkpoint",
    "model.save_ms": "save_checkpoint",
    "codebook.quantize_ms": "quantize",
    "codebook.ema_update_ms": "ema_update",
    "codebook.expire_ms": "expire_stale",
    "codebook.kmeans_ms": "kmeans_init",
    "training.adamw_ms": "adamw_step",
    "volume.read_ms": "read_volume",
    "volume.write_ms": "write_volume",
    "volume.normalize_ms": "normalize",
    "volume.pad_ms": "pad_to_multiple",
    "volume.augment_ms": ("apply_plane_symmetry", "apply_cube_symmetry"),
    "volume.cubes_ms": ("extract_cubes", "stitch_cubes"),
    "pipeline.translate_slices_ms": "translate_slices",
    "pipeline.slice_restack_ms": ("slice_volume", "restack_slices"),
    "pipeline.fuse_ms": "fuse_median",
    "pipeline.reconstruct_ms": "reconstruct_cubes",
    "evaluation.contour_ms": "body_contour",
    "evaluation.ssim_ms": "ssim",
    "evaluation.dsc_ms": "dsc",
    "evaluation.case_ms": "evaluate_case",
    "evaluation.report_ms": "write_report_csv",
    "phantom.generate_ms": "generate_phantom_pair",
}

_CALLS = {
    "autograd.conv_fwd_calls": "conv_forward_data",
    "autograd.conv_bwd_calls": "conv_backward_data",
    "model.forward_calls": "forward",
}

# Spans inside one optimizer step that step_self_ms subtracts.
_STEP_PARTS = ("forward", "backward", "adamw_step", "ema_update",
               "expire_stale", "apply_plane_symmetry", "apply_cube_symmetry")


def _names(spec):
    return (spec,) if isinstance(spec, str) else spec


def _self_ms(spans, index_set) -> float:
    """Summed self time (span minus direct children) of the given spans."""
    child_time = {}
    for span in spans:
        if span.parent in index_set:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return 1e3 * sum(spans[i].duration - child_time.get(i, 0.0) for i in index_set)


def layer_metrics(spans, commands, units: float, layers: dict, missing) -> dict:
    """Per-layer metrics from one traced pass.

    ``spans`` hold every traced call; benchmark-level command spans are
    named ``cli`` and carry ``stamps`` (optimizer step ends) in their info.
    ``units`` is the divisor that makes the figures per step or per case.
    Metrics whose traced function is missing from the program are left out.
    """
    units = max(units, 1.0)
    absent = {name.split(".", 1)[1] for name in missing}
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total_ms(names):
        return 1e3 * sum(spans[i].duration for n in names for i in by_name.get(n, ()))

    out = {}
    for metric, spec in _TOTAL_MS.items():
        names = _names(spec)
        if all(n in absent for n in names):
            continue
        out[metric] = total_ms(names) / units
    for metric, name in _CALLS.items():
        if name not in absent:
            out[metric] = len(by_name.get(name, ())) / units

    fwd = [spans[i] for i in by_name.get("conv_forward_data", ())]
    bwd = [spans[i] for i in by_name.get("conv_backward_data", ())]
    if "conv_forward_data" not in absent:
        for layer in sorted(set(layers.values()) | set(LAYERS)):
            out[f"autograd.conv_fwd_ms.{layer}"] = 1e3 * sum(
                s.duration for s in fwd if layers.get(s.info.get("w_shape")) == layer) / units
        secs = sum(s.duration for s in fwd)
        out["autograd.conv_fwd_gflop_s"] = (
            sum(s.info.get("flops", 0.0) for s in fwd) / secs / 1e9 if secs else 0.0)
    if "conv_backward_data" not in absent:
        for layer in sorted(set(layers.values()) | set(LAYERS)):
            out[f"autograd.conv_bwd_ms.{layer}"] = 1e3 * sum(
                s.duration for s in bwd if layers.get(s.info.get("w_shape")) == layer) / units
        secs = sum(s.duration for s in bwd)
        out["autograd.conv_bwd_gflop_s"] = (
            sum(s.info.get("flops", 0.0) for s in bwd) / secs / 1e9 if secs else 0.0)
        out["autograd.frozen_bwd_share"] = (
            sum(s.duration for s in bwd if s.info.get("frozen")) / secs if secs else 0.0)
    if "backward" not in absent:
        out["autograd.backward_self_ms"] = _self_ms(spans, set(by_name.get("backward", ()))) / units
    if "forward" not in absent:
        out["model.forward_self_ms"] = _self_ms(spans, set(by_name.get("forward", ()))) / units
    if "quantize" not in absent:
        out["codebook.rows_quantized"] = sum(
            spans[i].info.get("rows", 0) for i in by_name.get("quantize", ())) / units
    if "expire_stale" not in absent:
        out["codebook.codes_expired"] = sum(
            spans[i].info.get("expired", 0) for i in by_name.get("expire_stale", ())) / units
    if "read_volume" not in absent:
        out["volume.read_mb"] = sum(
            spans[i].info.get("bytes", 0) for i in by_name.get("read_volume", ())) / 1e6 / units
    if "write_volume" not in absent:
        out["volume.write_mb"] = sum(
            spans[i].info.get("bytes", 0) for i in by_name.get("write_volume", ())) / 1e6 / units

    # Training: step self time, prep time, step count (from the step clock).
    # Step parts called directly under a command are the ones a step blocks on.
    command_set = set(commands)
    parts = [spans[i] for n in _STEP_PARTS for i in by_name.get(n, ())
             if spans[i].parent in command_set]
    steps = 0
    intervals = 0
    step_self = 0.0
    prep = 0.0
    for cmd in commands:
        stamps = spans[cmd].info.get("stamps", [])
        steps += len(stamps)
        if stamps:
            prep += spans[cmd].duration - (stamps[-1] - stamps[0])
        for lo, hi in zip(stamps, stamps[1:]):
            covered = sum(s.duration for s in parts if s.start >= lo and s.end <= hi)
            step_self += (hi - lo) - covered
            intervals += 1
    if "adamw_step" not in absent:
        out["training.steps"] = float(steps)
        out["training.step_self_ms"] = 1e3 * step_self / intervals if intervals else 0.0
        out["training.prep_ms"] = 1e3 * prep / units

    out["cli.self_ms"] = _self_ms(spans, command_set) / units
    return out
