"""Spans around the public functions of distillfuse, recorded from outside.

``Tracer.install`` replaces each listed function or method with a wrapper that
records a span (name, start, end, parent span, thread). A function imported by
name into another module (``pipeline`` imports ``mfcc_extract``, ``models``
imports ``fuse_attention``) is replaced in every distillfuse module that holds
it, so the lookup the caller makes finds the wrapper. ``Tracer.restore`` puts
every original back.

The span stack is thread-local. Work submitted to the preprocess thread pool
runs under the span that submitted it, so clip spans from the pool's workers
get the ``pipeline.preprocess`` span as parent.

``tensor._make`` gets no span (it runs thousands of times per step); each call
adds one to the ``nodes`` count of the innermost open span of its thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# (module, attribute, span name). A dotted attribute is a method: the class
# attribute is replaced. Entries sharing a span name form one layer.
LAYERS = [
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("encoders", "TextEncoder.forward", "encoders.text_forward"),
    ("encoders", "BiLstm.final_states", "encoders.bilstm_forward"),
    ("encoders", "BiLstm.mean_states", "encoders.bilstm_forward"),
    ("fusion", "fuse_attention", "fusion.fuse"),
    ("fusion", "multi_head_fuse", "fusion.fuse"),
    ("distill", "student_train_step", "distill.student_step"),
    ("distill", "distill_loss_tensors", "distill.loss"),
    ("distill", "ce_loss_tensor", "distill.ce_loss"),
    ("models", "TextTeacherModel.predict_probs", "models.teacher_predict"),
    ("models", "AudioTeacherModel.predict_probs", "models.teacher_predict"),
    ("optim", "SGD.step", "optim.step"),
    ("optim", "Adam.step", "optim.step"),
    ("optim", "AdamW.step", "optim.step"),
    ("optim", "SGD.zero_grad", "optim.zero_grad"),
    ("quant", "fake_quant", "quant.fake_quant"),
    ("quant", "calibrate", "quant.calibrate"),
    ("quant", "quantize", "quant.quantize"),
    ("audio", "read_wav", "audio.read_wav"),
    ("audio", "resample", "audio.resample"),
    ("audio", "lowpass_filter", "audio.lowpass_filter"),
    ("audio", "vad_segments", "audio.vad_segments"),
    ("audio", "mfcc_extract", "audio.mfcc_extract"),
    ("audio", "save_features", "audio.save_features"),
    ("audio", "load_features", "audio.load_features"),
    ("text", "parse_and_filter_transcript", "text.parse_and_filter_transcript"),
    ("text", "build_vocab", "text.build_vocab"),
    ("text", "encode", "text.encode"),
    ("data", "make_batches", "data.make_batches"),
    ("data", "load_dataset", "data.load_dataset"),
    ("pipeline", "preprocess", "pipeline.preprocess"),
    ("pipeline", "train_text_teacher", "pipeline.train_text_teacher"),
    ("pipeline", "train_audio_teacher", "pipeline.train_audio_teacher"),
    ("pipeline", "train_student", "pipeline.train_student"),
    ("pipeline", "quantize_pipeline", "pipeline.quantize_pipeline"),
    ("pipeline", "evaluate_model", "pipeline.evaluate_model"),
    ("pipeline", "load_split_examples", "pipeline.load_split_examples"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("metrics", "compute_metrics", "metrics.compute_metrics"),
    ("metrics", "roc_auc", "metrics.roc_auc"),
    ("metrics", "emit_report", "metrics.emit_report"),
]

# Private helpers that carry a layer today. A refactor may remove them; the
# tracer then skips them and lists them under ``Tracer.missing``.
OPTIONAL_LAYERS = [
    ("pipeline", "_split_loss_acc", "pipeline.validation"),
    ("pipeline", "_RowCachedTeacher.predict_probs", "distill.teacher_probs"),
]

NODE_COUNTER = ("tensor", "_make")
PACKAGE = "distillfuse"


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "nodes", "info")

    def __init__(self, name, start=0.0, end=0.0, parent=None, thread=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.nodes = 0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.untracked_nodes = 0
        self.missing: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span | None:
        """Push a span; returns None when ``name`` is already the innermost
        span (AdamW.step calling Adam.step records one optimizer step)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.name == name:
            return None
        span = Span(name, parent=parent, thread=threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span | None) -> None:
        if span is not None:
            span.end = perf_counter()
            self._stack().pop()

    def run_under(self, parent: Span | None, fn, *args, **kwargs):
        """Run ``fn`` in this thread with ``parent`` as its span parent."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if span is not None:
                span.info = _span_info(name, args)
            return result
        return traced

    def _count_nodes(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                stack[-1].nodes += 1
            else:
                tracer.untracked_nodes += 1
            return fn(*args, **kwargs)
        return counted

    # -------------------------------------------------------------- patching

    def install(self, layers=None) -> "Tracer":
        """Wrap ``layers`` (default: every layer) and the tape-node counter."""
        if layers is None:
            layers = LAYERS + OPTIONAL_LAYERS
        optional = set(OPTIONAL_LAYERS)
        self.missing = []
        for module, attr, name in layers:
            try:
                owner, key, original = _resolve(module, attr)
            except AttributeError:
                if (module, attr, name) not in optional:
                    self.restore()
                    raise
                self.missing.append(f"{module}.{attr}")
                continue
            self._replace(owner, key, original, self._wrap(name, original))
        owner, key, original = _resolve(*NODE_COUNTER)
        self._replace(owner, key, original, self._count_nodes(original))
        pipeline = importlib.import_module(f"{PACKAGE}.pipeline")
        if getattr(pipeline, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._set(pipeline, "ThreadPoolExecutor", _pool_class(self))
        return self

    def _replace(self, owner, key: str, original, wrapper) -> None:
        """Replace ``original`` on its owner and wherever a distillfuse module
        imported it by name."""
        self._set(owner, key, wrapper)
        if inspect.isclass(owner):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is owner or not mod_name.startswith(PACKAGE):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *classes, key = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if key not in vars(owner):
        raise AttributeError(f"{PACKAGE}.{module} has no {attr}")
    return owner, key, vars(owner)[key]


def _pool_class(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            return super().submit(tracer.run_under, parent, fn, *args, **kwargs)
    return TracedPool


def _span_info(name: str, args):
    """Per-call facts some metrics need: rows scored, bytes written."""
    if name in ("models.teacher_predict", "distill.teacher_probs"):
        return int(args[1].shape[0])
    if name == "distill.student_step":
        return int(args[0].labels.shape[0])
    if name == "checkpoint.save":
        return os.path.getsize(args[0])
    return None


# ------------------------------------------------------------------ analysis


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover, keyed by id(span).
    Children in other threads count where they overlap the parent."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {
        id(s): s.duration - covered(children.get(id(s), []), s.start, s.end)
        for s in spans
    }


def has_ancestor(span: Span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def summary(values: list[float]) -> dict:
    """Median and tail of a sample. The tail is the highest order statistic
    with at least ten samples beyond it, reported with its percentile rank;
    below eleven samples there is no tail."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else None,
           "tail": None, "tail_pct": None}
    if n >= 11:
        ordered = sorted(values)
        out["tail"] = ordered[n - 11]
        out["tail_pct"] = 100.0 * (n - 10) / n
    return out


INFERENCE = ("pipeline.evaluate_model", "pipeline.validation")
TEACHER = ("distill.teacher_probs", "models.teacher_predict")
TIMED = ("tensor.backward", "distill.student_step", "audio.mfcc_extract")


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    ``<layer>.s`` is self time and ``<layer>.calls`` the span count, both per
    pass. The exception is ``distill.teacher_probs.s``: all time spent getting
    teacher targets inside ``train_student``, teacher forward passes included.
    """
    own = self_times(spans)
    out: dict[str, float] = {}
    for _, _, name in LAYERS + OPTIONAL_LAYERS:  # layers this workload never runs read 0
        out[f"{name}.s"] = out[f"{name}.calls"] = 0
    samples: dict[str, list[float]] = {}
    for s in spans:
        out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + own[id(s)]
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        samples.setdefault(s.name, []).append(s.duration)
    out["metrics.s"] = sum(v for k, v in out.items() if k.startswith("metrics.") and k.endswith(".s"))
    for name in TIMED:
        stats = summary(samples.get(name, []))
        out[f"{name}.p50_ms"] = 1e3 * stats["p50"] if stats["p50"] is not None else 0.0
        out[f"{name}.tail_ms"] = 1e3 * stats["tail"] if stats["tail"] is not None else 0.0
        out[f"{name}.tail_pct"] = stats["tail_pct"] or 0.0

    in_student = [s for s in spans if has_ancestor(s, ("pipeline.train_student",))]
    out["distill.teacher_probs.s"] = sum(
        s.duration for s in in_student if s.name in TEACHER and not has_ancestor(s, TEACHER))
    out["distill.teacher_rows_computed"] = sum(
        s.info or 0 for s in in_student if s.name == "models.teacher_predict")
    out["distill.teacher_rows_requested"] = 2 * sum(
        s.info or 0 for s in spans if s.name == "distill.student_step")
    out["tensor.nodes.inference"] = sum(
        s.nodes for s in spans if s.name in INFERENCE or has_ancestor(s, INFERENCE))
    out["checkpoint.bytes_written"] = sum(s.info or 0 for s in spans if s.name == "checkpoint.save")

    busy, capacity, workers = 0.0, 0.0, []
    for pre in (s for s in spans if s.name == "pipeline.preprocess"):
        clips = [s for s in spans if s.parent is pre and s.thread != pre.thread]
        workers.append(len({s.thread for s in clips}))
        busy += sum(s.duration for s in clips)
        capacity += pre.duration * workers[-1]
    out["pipeline.preprocess.workers"] = max(workers, default=0)
    out["pipeline.preprocess.busy_ratio"] = busy / capacity if capacity else 0.0

    return {k: (v / passes if _per_pass(k) else v) for k, v in out.items()}


def _per_pass(key: str) -> bool:
    return not key.endswith(("_ms", "_pct", "_ratio", ".workers"))
