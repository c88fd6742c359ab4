"""End-to-end pipeline stages: preprocessing, teacher/student training,
quantization-aware fine-tuning, evaluation, and the ablation grid.

Every stage is a plain function over a RunConfig plus explicit paths, so the
CLI subcommands and the tests drive exactly the same code. All randomness is
derived from (cfg.seed, purpose-tag) generators; rerunning a stage with the
same config and seed writes byte-identical metrics and ROC files.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .audio import (
    FeatureSequence,
    MfccConfig,
    VadConfig,
    fix_length,
    load_features,
    lowpass_filter,
    mfcc_extract,
    read_wav,
    resample,
    save_features,
    vad_segments,
)
from .config import RunConfig
from .data import (
    Batch,
    DatasetManifest,
    Example,
    load_dataset,
    make_batches,
    rng_for,
    synth_generate,
)
from .distill import (
    DistillConfig,
    ce_loss_tensor,
    one_hot,
    require_finite_grads,
    require_finite_loss,
    student_train_step,
)
from .metrics import MetricsReport, compute_metrics, emit_report, roc_auc
from .models import (
    AudioTeacherModel,
    StudentModel,
    TextTeacherModel,
    load_model,
    make_fake_quant_transform,
    quantize_model,
    quantized_storage_bytes,
)
from .optim import PlateauScheduler, make_optimizer
from .text import encode, build_vocab, load_vocab, parse_and_filter_transcript, save_vocab
from .checkpoint import save_checkpoint
from .tensor import no_grad, softmax_np

logger = logging.getLogger(__name__)

__all__ = [
    "ablate",
    "evaluate_model",
    "load_split_examples",
    "preprocess",
    "quantize_pipeline",
    "run_full",
    "train_audio_teacher",
    "train_student",
    "train_text_teacher",
]


@functools.lru_cache(maxsize=None)
def _blas_thread_funcs(site=Path(np.__file__).parent.parent):
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS bundled in
    numpy's wheel under ``site``, or None when there is none (MKL, conda, a
    system BLAS) or it exports neither name pair."""
    found = [*site.glob("numpy.libs/*openblas*"), *site.glob("numpy/.dylibs/*openblas*")]
    for lib in sorted(found):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its
    count. The count is process-wide, so every thread sees the cap while the
    body runs; calls overlapping from several threads are not coordinated and
    can leave it at one, which costs speed, not results. Does nothing when
    the library cannot be found."""
    funcs = _blas_thread_funcs()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


# ------------------------------------------------------------- preprocess


def _audio_features(cfg: RunConfig, wav_path) -> FeatureSequence:
    w = read_wav(wav_path)
    w = resample(w, cfg.sample_rate)
    w = lowpass_filter(w, cfg.fir_cutoff_hz, cfg.fir_taps)
    vad_cfg = VadConfig(cfg.vad_frame_ms, cfg.vad_hop_ms, cfg.vad_threshold_ratio)
    segments = vad_segments(w, vad_cfg)
    voiced = (
        np.concatenate([w.samples[s:e] for s, e in segments]) if segments else w.samples
    )
    if voiced.size < cfg.n_fft:  # too little voiced audio: fall back to the clip
        voiced = w.samples
    mfcc_cfg = MfccConfig(cfg.n_fft, cfg.hop, cfg.n_mels, cfg.n_coeffs, cfg.fmin, cfg.fmax)
    return mfcc_extract(type(w)(voiced, w.sample_rate), mfcc_cfg)


def preprocess(cfg: RunConfig, data_dir, features_dir) -> DatasetManifest:
    """Extract and cache per-participant features under features_dir.

    Writes ``<id>.dfmf`` (MFCC frames), ``<id>_text.txt`` (merged participant
    turns), ``vocab.txt`` (built from the training split only), and
    ``splits.csv``.
    """
    if cfg.threads < 0:
        raise ValueError(f"threads must be >= 0 (0 = one worker per CPU), got {cfg.threads}")
    features_dir = Path(features_dir)
    features_dir.mkdir(parents=True, exist_ok=True)
    manifest = load_dataset(data_dir, seed=cfg.seed)
    entries = sorted(manifest.entries, key=lambda e: e.participant_id)

    def one(entry):
        feats = _audio_features(cfg, entry.audio_path)
        save_features(features_dir / f"{entry.participant_id}.dfmf", feats)

    # Each clip's mel projection is large enough for OpenBLAS to start its own
    # threads, which then fight the pool's workers for the same cores.
    workers = cfg.threads or os.cpu_count()
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(one, entries))

    train_texts = []
    for entry in entries:
        raw = Path(entry.transcript_path).read_text(encoding="utf-8")
        text = parse_and_filter_transcript(raw, cfg.interviewer)
        with open(features_dir / f"{entry.participant_id}_text.txt", "w",
                  encoding="utf-8", newline="\n") as f:
            f.write(text + "\n")
        if manifest.split_of[entry.participant_id] == "train":
            train_texts.append(text)
    save_vocab(features_dir / "vocab.txt", build_vocab(train_texts, cfg.min_count))

    with open(features_dir / "splits.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("participant_id,label,split\n")
        for entry in entries:
            f.write(f"{entry.participant_id},{entry.label},{manifest.split_of[entry.participant_id]}\n")
    return manifest


def _read_splits(features_dir) -> list[tuple[int, int, str]]:
    """``(participant_id, label, split)`` rows of ``splits.csv``. A malformed
    row raises ValueError naming the file, the line and the field."""
    path = Path(features_dir) / "splits.csv"
    with open(path, encoding="utf-8") as f:
        lines = [(n, ln.strip()) for n, ln in enumerate(f, 1) if ln.strip()]
    if not lines or lines[0][1] != "participant_id,label,split":
        raise ValueError(f"{path}: expected header 'participant_id,label,split'")
    out = []
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields "
                             f"participant_id,label,split, got {len(fields)}")
        pid, label, split = fields
        try:
            pid = int(pid)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: participant_id {pid!r} is not an integer") from None
        if label not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: label {label!r} is not 0 or 1")
        out.append((pid, int(label), split))
    return out


def load_split_examples(cfg: RunConfig, features_dir, split: str) -> list[Example]:
    """Materialize encoded text + fixed-length MFCC examples for one split."""
    features_dir = Path(features_dir)
    vocab = load_vocab(features_dir / "vocab.txt")
    rows = [(pid, label) for pid, label, s in _read_splits(features_dir) if s == split]
    if not rows:
        raise ValueError(f"split {split!r} is empty in {features_dir}")
    examples = []
    for pid, label in rows:
        text = (features_dir / f"{pid}_text.txt").read_text(encoding="utf-8").rstrip("\n")
        seq = encode(text, vocab, cfg.max_len)
        feats = fix_length(load_features(features_dir / f"{pid}.dfmf"), cfg.target_frames)
        examples.append(Example(pid, seq.ids, seq.mask, feats.frames, label))
    return examples


def _vocab_size(features_dir) -> int:
    return load_vocab(Path(features_dir) / "vocab.txt").size


# ------------------------------------------------------------- training


def _batch_probs(model, batch: Batch, temperature: float = 1.0) -> np.ndarray:
    with no_grad():
        return model.predict_probs(*model.inputs(batch), temperature=temperature)


def _split_loss_acc(model, examples: list[Example], batch_size: int) -> tuple[float, float]:
    """Mean cross-entropy (natural log) and accuracy over a split."""
    ces, hits, n = 0.0, 0, 0
    for batch in make_batches(examples, batch_size):
        probs = _batch_probs(model, batch)
        p_true = np.maximum(probs[np.arange(len(batch.labels)), batch.labels], 1e-12)
        ces += float(-np.log(p_true).sum())
        hits += int((probs.argmax(axis=1) == batch.labels).sum())
        n += len(batch.labels)
    return ces / n, hits / n


def _step(loss, opt, where: str) -> float:
    """One optimizer step on a scalar loss, returning its value. A NaN or
    infinite loss, or gradient norm, raises FloatingPointError naming
    ``where`` before any parameter changes."""
    value = require_finite_loss(loss.item(), where)
    opt.zero_grad()
    loss.backward()
    require_finite_grads(opt.params, where)
    opt.step()
    return value


def _write_log(path, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")


def _fit(cfg: RunConfig, train: list[Example], epochs: int, tag: str, stage: str,
         step, end_epoch=None) -> list[str]:
    """The training loop every stage shares. Epoch n shuffles ``train`` with
    ``rng_for(cfg.seed, f"{tag}-epoch-{n}")`` and calls ``step(batch, where)``
    per batch, where ``where`` reads ``"<stage>, epoch n, batch i"``; then
    ``end_epoch(n, step_results)``, if given, returns that epoch's log row.
    A negative ``epochs`` raises ValueError naming ``stage``."""
    if epochs < 0:
        raise ValueError(f"{stage}: epochs must be >= 0, got {epochs}")
    rows = []
    for epoch in range(1, epochs + 1):
        rng = rng_for(cfg.seed, f"{tag}-epoch-{epoch}")
        results = [step(batch, f"{stage}, epoch {epoch}, batch {i}")
                   for i, batch in enumerate(make_batches(train, cfg.batch_size, rng), 1)]
        if end_epoch is not None:
            rows.append(end_epoch(epoch, results))
    return rows


def _train_teacher(cfg: RunConfig, features_dir, out_dir, model, name: str, optimizer: str,
                   lr: float, epochs: int, sched: PlateauScheduler | None = None) -> Path:
    """Cross-entropy training of one teacher; writes ``<name>_log.csv`` and
    ``<name>.ckpt``. ``name`` (``text_teacher``) also gives the epoch RNG tag
    (``text-teacher``) and the stage its errors name (``text teacher``).
    ``sched``, if given, sets the lr from each epoch's validation loss."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train = load_split_examples(cfg, features_dir, "train")
    val = load_split_examples(cfg, features_dir, "validation")
    opt = make_optimizer(optimizer, model.trainable_parameters(), lr, cfg.weight_decay)

    def step(batch, where):
        logits = model.forward_logits(*model.inputs(batch))
        return _step(ce_loss_tensor(logits, one_hot(batch.labels)), opt, where)

    def end_epoch(epoch, losses):
        val_loss, val_acc = _split_loss_acc(model, val, cfg.batch_size)
        if sched is not None:
            opt.lr = sched.update(val_loss, opt.lr)
        return f"{epoch},{float(np.mean(losses))!r},{val_loss!r},{val_acc!r},{opt.lr!r}"

    rows = _fit(cfg, train, epochs, name.replace("_", "-"), name.replace("_", " "), step, end_epoch)
    _write_log(out_dir / f"{name}_log.csv", "epoch,train_loss,val_loss,val_accuracy,lr", rows)
    path = out_dir / f"{name}.ckpt"
    save_checkpoint(path, model.to_checkpoint())
    return path


def train_text_teacher(cfg: RunConfig, features_dir, out_dir) -> Path:
    """LoRA fine-tuning of the text encoder: base frozen, adapters + head
    trained with cross-entropy."""
    model = TextTeacherModel.build(_vocab_size(features_dir), cfg)
    return _train_teacher(cfg, features_dir, out_dir, model, "text_teacher",
                          cfg.optimizer_text, cfg.lr_text, cfg.epochs_text)


def train_audio_teacher(cfg: RunConfig, features_dir, out_dir) -> Path:
    """BiLSTM audio classifier trained with cross-entropy and a
    reduce-on-plateau schedule on the validation loss."""
    sched = PlateauScheduler(cfg.plateau_factor, cfg.plateau_patience, cfg.plateau_min_lr)
    return _train_teacher(cfg, features_dir, out_dir, AudioTeacherModel.build(cfg),
                          "audio_teacher", cfg.optimizer_audio, cfg.lr_audio, cfg.epochs_audio,
                          sched)


def _load_kind(path, cls, expected: str):
    """The model in ``path``; a checkpoint of another kind raises ValueError
    naming the file, the kind it holds and ``expected``."""
    model = load_model(path)
    if not isinstance(model, cls):
        raise ValueError(f"{path}: holds kind {model.kind!r}; {expected}")
    return model


class _TeacherRows:
    """One batch's rows of a frozen teacher's table, shaped as a teacher.
    ``student_train_step`` asks its teachers for ``predict_probs`` (the
    benchmark's probes pass their own), so each step wraps its rows in this
    rather than give the step a second signature."""

    def __init__(self, probs: np.ndarray):
        self.probs = probs

    def predict_probs(self, *arrays, temperature: float = 1.0) -> np.ndarray:
        return self.probs


def train_student(cfg: RunConfig, features_dir, text_ckpt, audio_ckpt, out_dir) -> Path:
    """Distill both frozen teachers into the fused student."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train = load_split_examples(cfg, features_dir, "train")
    val = load_split_examples(cfg, features_dir, "validation")
    expected = "teacher checkpoints must be a text teacher and an audio teacher"
    text_teacher = _load_kind(text_ckpt, TextTeacherModel, expected)
    audio_teacher = _load_kind(audio_ckpt, AudioTeacherModel, expected)
    text_teacher.freeze_all()
    audio_teacher.freeze_all()
    # The teachers are frozen: score the split once, in batches that bound
    # the attention scores' memory, and index the rows by example.
    row_of = {ex.participant_id: i for i, ex in enumerate(train)}
    batches = make_batches(train, cfg.batch_size)
    tables = [np.concatenate([_batch_probs(t, b, cfg.temperature) for b in batches])
              for t in (text_teacher, audio_teacher)]
    student = StudentModel.build(_vocab_size(features_dir), cfg)
    dcfg = DistillConfig(cfg.alpha, cfg.teacher_mix_beta, cfg.temperature)
    opt = make_optimizer(cfg.optimizer_student, student.trainable_parameters(),
                         cfg.lr_student, cfg.weight_decay)

    def step(batch, where):
        rows = [row_of[pid] for pid in batch.ids]
        teachers = tuple(_TeacherRows(table[rows]) for table in tables)
        return student_train_step(batch, teachers, student, dcfg, opt, where=where)

    def end_epoch(epoch, parts):
        kl = float(np.mean([b.kl_term for b in parts]))
        ce = float(np.mean([b.ce_term for b in parts]))
        total = float(np.mean([b.total for b in parts]))
        val_loss, val_acc = _split_loss_acc(student, val, cfg.batch_size)
        return f"{epoch},{kl!r},{ce!r},{total!r},{val_loss!r},{val_acc!r},{opt.lr!r}"

    rows = _fit(cfg, train, cfg.epochs_student, "student", "student", step, end_epoch)
    _write_log(out_dir / "student_log.csv",
               "epoch,kl_term,ce_term,total,val_loss,val_accuracy,lr", rows)
    path = out_dir / "student.ckpt"
    save_checkpoint(path, student.to_checkpoint())
    return path


def quantize_pipeline(cfg: RunConfig, audio_ckpt, features_dir, out_dir) -> Path:
    """Quantization-aware fine-tuning of the audio teacher, then int8 export.

    Writes the quantized checkpoint plus ``quantization.txt`` reporting the
    float-vs-quantized prediction agreement on the validation split and the
    storage ratio.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = _load_kind(audio_ckpt, AudioTeacherModel, "expected an audio-teacher checkpoint")
    train = load_split_examples(cfg, features_dir, "train")
    val = load_split_examples(cfg, features_dir, "validation")
    transform = make_fake_quant_transform(cfg.quant_scheme)
    opt = make_optimizer("adam", model.trainable_parameters(), cfg.lr_qat)

    def step(batch, where):
        logits = model.forward_logits(batch.mfcc, transform)
        _step(ce_loss_tensor(logits, one_hot(batch.labels)), opt, where)

    _fit(cfg, train, cfg.epochs_qat, "qat", "QAT", step)
    float_preds = _predictions(model, val, cfg.batch_size)
    quantize_model(model, cfg.quant_scheme)
    quant_preds = _predictions(model, val, cfg.batch_size)
    agreement = float(np.mean(float_preds == quant_preds))
    q_bytes, f_bytes = quantized_storage_bytes(model)
    path = out_dir / "audio_teacher_quantized.ckpt"
    save_checkpoint(path, model.to_checkpoint())
    with open(out_dir / "quantization.txt", "w", encoding="utf-8", newline="\n") as f:
        f.write(f"agreement={agreement!r}\n")
        f.write(f"quantized_bytes={q_bytes}\n")
        f.write(f"float64_bytes={f_bytes}\n")
        f.write(f"storage_ratio={q_bytes / f_bytes!r}\n")
    return path


def _predictions(model, examples: list[Example], batch_size: int) -> np.ndarray:
    preds = []
    for batch in make_batches(examples, batch_size):
        preds.append(_batch_probs(model, batch).argmax(axis=1))
    return np.concatenate(preds)


# ------------------------------------------------------------- evaluation


def evaluate_model(cfg: RunConfig, ckpt_path, features_dir, split, out_dir) -> MetricsReport:
    """Run a checkpoint over a split; write metrics.txt, roc.csv, and (for a
    student) per-example fusion attention weights."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_model(ckpt_path)
    examples = load_split_examples(cfg, features_dir, split)
    preds, scores, labels = [], [], []
    attention_rows = []
    for batch in make_batches(examples, cfg.batch_size):
        if isinstance(model, StudentModel):
            with no_grad():
                logits, weights = model.forward_with_attention(*model.inputs(batch))
            probs = softmax_np(logits.data, axis=-1)
            for i, pid in enumerate(batch.ids):
                for h in range(weights.shape[1]):
                    attention_rows.append(
                        f"{pid},{h},{float(weights[i, h, 0])!r},{float(weights[i, h, 1])!r}"
                    )
        else:
            probs = _batch_probs(model, batch)
        bad = ~np.isfinite(probs).all(axis=1)
        if bad.any():
            raise ValueError(
                f"{ckpt_path}: non-finite probability for participant "
                f"{batch.ids[int(np.argmax(bad))]} on split {split!r}"
            )
        preds.append(probs.argmax(axis=1))
        scores.append(probs[:, 1])
        labels.append(batch.labels)
    preds = np.concatenate(preds)
    scores = np.concatenate(scores)
    labels = np.concatenate(labels)
    report = compute_metrics(preds, labels)
    curve = None
    try:
        curve, auc = roc_auc(scores, labels)
        report.auc = auc
    except ValueError as err:
        logger.warning("skipping ROC: %s", err)
    emit_report(report, curve, out_dir)
    if attention_rows:
        with open(out_dir / "attention.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("participant_id,head,weight_text,weight_audio\n")
            for row in attention_rows:
                f.write(row + "\n")
    return report


# ------------------------------------------------------------- ablation


ABLATION_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def ablate(cfg: RunConfig, features_dir, text_ckpt, audio_ckpt, out_dir) -> Path:
    """Unimodal baselines plus the {single, multi}-head x alpha student grid,
    each trained and evaluated on the test split; one row per configuration."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []

    def add_row(name: str, report: MetricsReport):
        auc = repr(report.auc) if report.auc is not None else "nan"
        rows.append(
            f"{name},{report.accuracy!r},{report.precision_weighted!r},"
            f"{report.recall_weighted!r},{report.f1_weighted!r},{auc}"
        )

    for name, ckpt in (("text-teacher", text_ckpt), ("audio-teacher", audio_ckpt)):
        report = evaluate_model(cfg, ckpt, features_dir, "test", out_dir / name)
        add_row(name, report)
    for multi in (False, True):
        for alpha in ABLATION_ALPHAS:
            name = f"student-{'multi' if multi else 'single'}-alpha{alpha:g}"
            sub_cfg = replace(cfg, multi_head=multi, alpha=alpha)
            ckpt = train_student(sub_cfg, features_dir, text_ckpt, audio_ckpt, out_dir / name)
            report = evaluate_model(sub_cfg, ckpt, features_dir, "test", out_dir / name)
            add_row(name, report)
    table = out_dir / "ablation.csv"
    _write_log(table, "config,accuracy,precision_weighted,recall_weighted,f1_weighted,auc", rows)
    return table


# ------------------------------------------------------------- full run


def run_full(cfg: RunConfig, workdir) -> dict:
    """synth -> preprocess -> both teachers -> student -> evaluate, under one
    working directory. Returns paths and the final test reports."""
    workdir = Path(workdir)
    data_dir = workdir / "data"
    features_dir = workdir / "features"
    synth_generate(cfg.synth_n, cfg.seed, data_dir, cfg.synth_sample_rate)
    preprocess(cfg, data_dir, features_dir)
    text_ckpt = train_text_teacher(cfg, features_dir, workdir / "teachers")
    audio_ckpt = train_audio_teacher(cfg, features_dir, workdir / "teachers")
    student_ckpt = train_student(cfg, features_dir, text_ckpt, audio_ckpt, workdir / "student")
    report = evaluate_model(cfg, student_ckpt, features_dir, "test", workdir / "eval" / "student")
    text_report = evaluate_model(cfg, text_ckpt, features_dir, "test", workdir / "eval" / "text-teacher")
    audio_report = evaluate_model(cfg, audio_ckpt, features_dir, "test", workdir / "eval" / "audio-teacher")
    return {
        "data_dir": data_dir,
        "features_dir": features_dir,
        "text_ckpt": text_ckpt,
        "audio_ckpt": audio_ckpt,
        "student_ckpt": student_ckpt,
        "student_report": report,
        "text_report": text_report,
        "audio_report": audio_report,
        "eval_dir": workdir / "eval",
    }
