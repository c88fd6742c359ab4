"""Isolated calls into single layers at the demo recipe's shapes.

B=32 examples, L=32 tokens, T=60 MFCC frames of 13 coefficients, d_model=64
and an 8-head fusion of width 16. Inputs come from the seed; node counts do
not depend on them. Tape nodes are counted by wrapping ``tensor._make``, so a
count is every tensor op the call ran, recorded on the tape or not.
"""

from __future__ import annotations

import statistics
import tracemalloc
from time import perf_counter

import numpy as np

from distillfuse import distill, fusion, models
from distillfuse.config import RunConfig
from distillfuse.data import Batch
from distillfuse.optim import make_optimizer
from distillfuse.tensor import Tensor

from tracing import Tracer

VOCAB = 256
RECIPE = dict(max_len=32, batch_size=32, fusion_dim=16, fusion_heads=8, optimizer_student="adam")


class _FixedTeacher:
    """Teacher targets computed before the step, so the step's count is the
    student's own graph whatever the teacher caching does."""

    def __init__(self, probs: np.ndarray):
        self.probs = probs

    def predict_probs(self, *arrays, temperature: float = 1.0) -> np.ndarray:
        return self.probs


class Probe:
    """Builds the models and one batch; each ``*_step`` method is one call."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cfg = cfg = RunConfig(seed=seed, **RECIPE)
        b, l, t = cfg.batch_size, cfg.max_len, cfg.target_frames
        lengths = rng.integers(4, l + 1, size=b)
        mask = (np.arange(l)[None, :] < lengths[:, None]).astype(np.float64)
        ids = np.where(mask > 0, rng.integers(4, VOCAB, size=(b, l)), 0)
        labels = rng.integers(0, 2, size=b)
        labels[:2] = (0, 1)
        self.batch = Batch(token_ids=ids, mask=mask, mfcc=rng.normal(size=(b, t, cfg.n_coeffs)),
                           labels=labels, ids=tuple(range(b)))
        self.y = distill.one_hot(labels)

        self.student = models.StudentModel.build(VOCAB, cfg)
        self.student_opt = make_optimizer("adam", self.student.trainable_parameters(), cfg.lr_student)
        p = rng.dirichlet((1.0, 1.0), size=b)
        self.teachers = (_FixedTeacher(p), _FixedTeacher(p[:, ::-1].copy()))
        self.dcfg = distill.DistillConfig(cfg.alpha, cfg.teacher_mix_beta, cfg.temperature)

        self.text = models.TextTeacherModel.build(VOCAB, cfg)
        self.text_opt = make_optimizer(cfg.optimizer_text, self.text.trainable_parameters(), cfg.lr_text)
        self.audio = models.AudioTeacherModel.build(cfg)
        self.audio_opt = make_optimizer(cfg.optimizer_audio, self.audio.trainable_parameters(), cfg.lr_audio)

        self.x_t = Tensor(rng.normal(size=(b, cfg.d_model)), requires_grad=True)
        self.x_a = Tensor(rng.normal(size=(b, 2 * cfg.lstm_hidden)), requires_grad=True)
        self.logits = Tensor(rng.normal(size=(b, 2)), requires_grad=True)
        self.p_mix = distill.combine_teacher_targets(self.teachers[0].probs, self.teachers[1].probs)

    def student_step(self):
        distill.student_train_step(self.batch, self.teachers, self.student, self.dcfg, self.student_opt)

    def student_infer(self):
        b = self.batch
        self.student.predict_probs(b.token_ids, b.mask, b.mfcc)

    def text_step(self):
        self._step(self.text.forward_logits(self.batch.token_ids, self.batch.mask), self.text_opt)

    def audio_step(self):
        self._step(self.audio.forward_logits(self.batch.mfcc), self.audio_opt)

    def _step(self, logits, opt):
        loss = distill.ce_loss_tensor(logits, self.y)
        opt.zero_grad()
        loss.backward()
        opt.step()

    def text_encoder_fwd_bwd(self):
        self.student.encoder.forward(self.batch.token_ids, self.batch.mask).sum().backward()

    def bilstm_fwd_bwd(self):
        self.student.bilstm.mean_states(self.batch.mfcc).sum().backward()

    def fusion_fwd_bwd(self):
        fusion.multi_head_fuse(self.x_t, self.x_a, self.student.fusion)[0].sum().backward()

    def distill_loss_fwd_bwd(self):
        distill.distill_loss_tensors(self.p_mix, self.logits, self.y, self.dcfg)[0].backward()

    def adam_step(self):
        self.student_opt.step()


NODE_COUNTS = {
    "tensor.nodes.student_step": "student_step",
    "tensor.nodes.audio_step": "audio_step",
    "tensor.nodes.text_step": "text_step",
    "tensor.nodes.student_infer": "student_infer",
}
TIMINGS = {  # metric: (call, repetitions)
    "probe.student_step_ms": ("student_step", 9),
    "probe.text_encoder.fwd_bwd_ms": ("text_encoder_fwd_bwd", 9),
    "probe.bilstm.fwd_bwd_ms": ("bilstm_fwd_bwd", 9),
    "probe.fusion.fwd_bwd_ms": ("fusion_fwd_bwd", 41),
    "probe.distill_loss.fwd_bwd_ms": ("distill_loss_fwd_bwd", 101),
    "probe.adam_step_ms": ("adam_step", 41),
}


def count_nodes(probe: Probe, call: str) -> int:
    tracer = Tracer().install(layers=[])
    try:
        getattr(probe, call)()
    finally:
        tracer.restore()
    return tracer.untracked_nodes


def alloc_bytes(probe: Probe, call: str) -> int:
    """Peak bytes the call holds above what was live before it (tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        getattr(probe, call)()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def median_ms(fn, reps: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_probes(seed: int) -> dict[str, float]:
    probe = Probe(seed)
    out: dict[str, float] = {m: count_nodes(probe, call) for m, call in NODE_COUNTS.items()}
    out["tensor.alloc_bytes.student_step"] = alloc_bytes(probe, "student_step")
    probe.student_step()  # leaves the gradients the lone Adam step applies
    for metric, (call, reps) in TIMINGS.items():
        out[metric] = median_ms(getattr(probe, call), reps)
    return out
