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
    SPLIT_NAMES,
    Batch,
    DatasetManifest,
    load_dataset,
    make_batches,
    read_participant_table,
    rng_for,
    synth_generate,
)
from .distill import DistillConfig, ce_loss_tensor, checked_step, one_hot, student_train_step
from .files import atomic_write
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
from .text import (TranscriptParseError, build_vocab, encode, load_vocab,
                   parse_and_filter_transcript, save_vocab)
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


def _audio_features(cfg: RunConfig, wav_path) -> np.ndarray:
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
        if voiced.size < cfg.n_fft:
            raise ValueError(f"{wav_path}: {voiced.size} samples after resampling to "
                             f"{w.sample_rate} Hz are shorter than one window ({cfg.n_fft})")
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
    manifest = load_dataset(data_dir, seed=cfg.seed)
    entries = sorted(manifest.entries, key=lambda e: e.participant_id)
    # Parse every transcript first, so a bad one fails before any file is written.
    texts = []
    for entry in entries:
        raw = Path(entry.transcript_path).read_text(encoding="utf-8")
        try:
            texts.append(parse_and_filter_transcript(raw, cfg.interviewer))
        except TranscriptParseError as err:
            raise TranscriptParseError(f"{entry.transcript_path}: {err}") from None

    def one(entry):
        feats = _audio_features(cfg, entry.audio_path)
        save_features(features_dir / f"{entry.participant_id}.dfmf", feats)

    # Each clip's mel projection is large enough for OpenBLAS to start its own
    # threads, which then fight the pool's workers for the same cores.
    workers = cfg.threads or os.cpu_count()
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(one, entries))

    train_texts = []
    for entry, text in zip(entries, texts):
        atomic_write(features_dir / f"{entry.participant_id}_text.txt", text + "\n")
        if manifest.split_of[entry.participant_id] == "train":
            train_texts.append(text)
    save_vocab(features_dir / "vocab.txt", build_vocab(train_texts, cfg.min_count))

    _write_log(features_dir / "splits.csv", "participant_id,label,split",
               [f"{e.participant_id},{e.label},{manifest.split_of[e.participant_id]}"
                for e in entries])
    return manifest


def load_split_examples(cfg: RunConfig, features_dir, split: str) -> Batch:
    """One split's encoded text and fixed-length MFCC frames, stacked into
    one ``Batch`` in ``splits.csv`` order. A split name other than train,
    validation or test raises ValueError before any file is read."""
    if split not in SPLIT_NAMES:
        raise ValueError(f"split {split!r} is not train, validation or test")
    features_dir = Path(features_dir)
    vocab = load_vocab(features_dir / "vocab.txt")
    rows = [(pid, label) for pid, label, s in read_participant_table(
        features_dir / "splits.csv", "participant_id,label,split", SPLIT_NAMES) if s == split]
    if not rows:
        raise ValueError(f"split {split!r} is empty in {features_dir}")
    seqs, frames = [], []
    for pid, _ in rows:
        text = (features_dir / f"{pid}_text.txt").read_text(encoding="utf-8").rstrip("\n")
        seqs.append(encode(text, vocab, cfg.max_len))
        frames.append(fix_length(load_features(features_dir / f"{pid}.dfmf"), cfg.target_frames))
    ids, mask = zip(*seqs)
    return Batch(token_ids=np.stack(ids), mask=np.stack(mask), mfcc=np.stack(frames),
                 labels=np.array([lb for _, lb in rows], dtype=np.int64),
                 ids=tuple(pid for pid, _ in rows))


def _vocab_size(features_dir) -> int:
    return load_vocab(Path(features_dir) / "vocab.txt").size


# ------------------------------------------------------------- training


def _split_probs(model, split: Batch, batch_size: int, temperature: float = 1.0) -> np.ndarray:
    """``model``'s probabilities for ``split``, one row each, scored with no
    tape in in-order batches of ``batch_size``, which bound attention memory."""
    with no_grad():
        return np.concatenate([model.predict_probs(*model.inputs(b), temperature=temperature)
                               for b in make_batches(split, batch_size)])


def _split_loss_acc(model, split: Batch, batch_size: int) -> tuple[float, float]:
    """Mean cross-entropy (natural log, summed batch by batch) and accuracy
    over a split."""
    probs = _split_probs(model, split, batch_size)
    labels = split.labels
    p_true = np.maximum(probs[np.arange(len(labels)), labels], 1e-12)
    ce = sum(float(-np.log(p_true[i:i + batch_size]).sum())
             for i in range(0, len(labels), batch_size))
    return ce / len(labels), int((probs.argmax(axis=1) == labels).sum()) / len(labels)


def _write_log(path, header: str, rows: list[str]) -> None:
    atomic_write(path, "".join(line + "\n" for line in [header, *rows]))


def _fit(cfg: RunConfig, train: Batch, epochs: int, tag: str, stage: str,
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
    train = load_split_examples(cfg, features_dir, "train")
    val = load_split_examples(cfg, features_dir, "validation")
    opt = make_optimizer(optimizer, model.trainable_parameters(), lr, cfg.weight_decay)

    def step(batch, where):
        logits = model.forward_logits(*model.inputs(batch))
        return checked_step(ce_loss_tensor(logits, one_hot(batch.labels)), opt, where)

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


def _load_kind(path, features_dir, cls=object, expected: str = ""):
    """The model in ``path``. ValueError names the file when it is not a
    ``cls`` (with its kind and ``expected``), or when its ``vocab_size`` is
    not that of ``features_dir``'s ``vocab.txt`` (with both sizes)."""
    model = load_model(path)
    if not isinstance(model, cls):
        raise ValueError(f"{path}: holds kind {model.kind!r}; {expected}")
    size, vocab = model.meta.get("vocab_size"), Path(features_dir) / "vocab.txt"
    if size is not None and size != (tokens := load_vocab(vocab).size):
        raise ValueError(f"{path}: vocab_size {size} does not match the "
                         f"{tokens} tokens of {vocab}")
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
    dcfg = DistillConfig(cfg.alpha, cfg.teacher_mix_beta, cfg.temperature)
    student = StudentModel.build(_vocab_size(features_dir), cfg)
    opt = make_optimizer(cfg.optimizer_student, student.trainable_parameters(),
                         cfg.lr_student, cfg.weight_decay)
    train = load_split_examples(cfg, features_dir, "train")
    val = load_split_examples(cfg, features_dir, "validation")
    expected = "teacher checkpoints must be a text teacher and an audio teacher"
    text_teacher = _load_kind(text_ckpt, features_dir, TextTeacherModel, expected)
    audio_teacher = _load_kind(audio_ckpt, features_dir, AudioTeacherModel, expected)
    # The teachers do not train: score the split once and index the rows by participant.
    row_of = {pid: i for i, pid in enumerate(train.ids)}
    tables = [_split_probs(t, train, cfg.batch_size, cfg.temperature)
              for t in (text_teacher, audio_teacher)]

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
    model = _load_kind(audio_ckpt, features_dir, AudioTeacherModel,
                       "expected an audio-teacher checkpoint")
    train = load_split_examples(cfg, features_dir, "train")
    val = load_split_examples(cfg, features_dir, "validation")
    transform = make_fake_quant_transform(cfg.quant_scheme)
    opt = make_optimizer("adam", model.trainable_parameters(), cfg.lr_qat)

    def step(batch, where):
        logits = model.forward_logits(batch.mfcc, transform)
        checked_step(ce_loss_tensor(logits, one_hot(batch.labels)), opt, where)

    _fit(cfg, train, cfg.epochs_qat, "qat", "QAT", step)
    float_preds = _split_probs(model, val, cfg.batch_size).argmax(axis=1)
    quantize_model(model, cfg.quant_scheme)
    quant_preds = _split_probs(model, val, cfg.batch_size).argmax(axis=1)
    agreement = float(np.mean(float_preds == quant_preds))
    q_bytes, f_bytes = quantized_storage_bytes(model)
    path = out_dir / "audio_teacher_quantized.ckpt"
    save_checkpoint(path, model.to_checkpoint())
    atomic_write(out_dir / "quantization.txt",
                 f"agreement={agreement!r}\nquantized_bytes={q_bytes}\n"
                 f"float64_bytes={f_bytes}\nstorage_ratio={q_bytes / f_bytes!r}\n")
    return path


# ------------------------------------------------------------- evaluation


def evaluate_model(cfg: RunConfig, ckpt_path, features_dir, split, out_dir) -> MetricsReport:
    """Run a checkpoint over a split; write metrics.txt, roc.csv, and (for a
    student) per-example fusion attention weights, removing the optional
    files it does not write so that none is left from an earlier model."""
    out_dir = Path(out_dir)
    model = _load_kind(ckpt_path, features_dir)
    examples = load_split_examples(cfg, features_dir, split)
    with no_grad():
        logits, weights = zip(*[model.forward_with_attention(*model.inputs(b))
                                for b in make_batches(examples, cfg.batch_size)])
    probs = softmax_np(np.concatenate([t.data for t in logits]), axis=-1)
    bad = ~np.isfinite(probs).all(axis=1)
    if bad.any():
        raise ValueError(f"{ckpt_path}: non-finite probability for participant "
                         f"{examples.ids[int(np.argmax(bad))]} on split {split!r}")
    report = compute_metrics(probs.argmax(axis=1), examples.labels)
    curve = None
    try:
        curve, report.auc = roc_auc(probs[:, 1], examples.labels)
    except ValueError as err:
        logger.warning("skipping ROC: %s", err)
    emit_report(report, curve, out_dir)
    attention = out_dir / "attention.csv"
    if weights[0] is None:
        attention.unlink(missing_ok=True)
    else:
        _write_log(attention, "participant_id,head,weight_text,weight_audio",
                   [f"{pid},{h},{float(w_t)!r},{float(w_a)!r}"
                    for pid, row in zip(examples.ids, np.concatenate(weights))
                    for h, (w_t, w_a) in enumerate(row)])
    return report


# ------------------------------------------------------------- ablation


ABLATION_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def ablate(cfg: RunConfig, features_dir, text_ckpt, audio_ckpt, out_dir) -> Path:
    """Unimodal baselines plus the {single, multi}-head x alpha student grid,
    each trained and evaluated on the test split; one row per configuration."""
    out_dir = Path(out_dir)
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
