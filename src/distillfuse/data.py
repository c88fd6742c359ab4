"""Dataset discovery, deterministic splits, batching, and the synthetic
two-cue corpus generator.

On-disk layout per participant: ``<id>_TRANSCRIPT.csv`` (tab-separated
interview turns) and ``<id>_AUDIO.wav`` (mono 16-bit PCM), plus a
``labels.csv`` with header ``Participant_ID,PHQ8_Binary``.

The synthetic corpus plants one binary cue per modality: the participant's
word choice draws from one of two disjoint content-word sets, and the clip's
voiced region is dominated by one of two tone pairs. The label is the XOR of
the two cues, so either modality alone carries exactly zero marginal signal
(a unimodal Bayes-optimal predictor gets 50%); only a model that combines
both can beat chance.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import WaveForm, write_wav
from .files import atomic_write

logger = logging.getLogger(__name__)

__all__ = [
    "Batch",
    "DatasetManifest",
    "ManifestEntry",
    "load_dataset",
    "make_batches",
    "read_participant_table",
    "rng_for",
    "synth_generate",
]

LABELS_HEADER = "Participant_ID,PHQ8_Binary"
SPLIT_NAMES = ("train", "validation", "test")
SPLIT_RATIOS = (0.7, 0.15, 0.15)


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """A generator derived deterministically from (seed, purpose tag)."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


@dataclass
class ManifestEntry:
    participant_id: int
    transcript_path: Path
    audio_path: Path
    label: int


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    split_of: dict[int, str]


def read_participant_table(path, header: str, names: tuple[str, ...] = ()) -> list[tuple]:
    """The ``(pid, label, *rest)`` rows under a comma-separated ``header``: an
    int id, a 0/1 label, then strings, each one of ``names`` when given. A bad
    row raises ValueError naming the file and the line; a bad header, the file."""
    columns = header.split(",")
    with open(path, encoding="utf-8") as f:
        lines = [(n, ln.strip()) for n, ln in enumerate(f, 1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise ValueError(f"{path}: expected header '{header}'")
    out, first = [], {}
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValueError(f"{path}:{lineno}: expected {len(columns)} fields {header}, "
                             f"got {len(fields)}")
        pid, label, *rest = fields
        try:
            pid = int(pid)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {columns[0]} {pid!r} is not an integer") from None
        try:
            value = int(label)
        except ValueError:
            value = None
        if value not in (0, 1):
            raise ValueError(f"{path}:{lineno}: {columns[1]} {label!r} is not 0 or 1")
        for column, name in zip(columns[2:], rest):
            if names and name not in names:
                raise ValueError(f"{path}:{lineno}: {column} {name!r} is not "
                                 f"{', '.join(names[:-1])} or {names[-1]}")
        if pid in first:
            raise ValueError(f"{path}:{lineno}: {columns[0]} {pid} already on line {first[pid]}")
        first[pid] = lineno
        out.append((pid, value, *rest))
    return out


def load_dataset(data_dir, seed: int = 0) -> DatasetManifest:
    """Scan a dataset directory, pair transcripts with audio and labels, and
    assign a deterministic 70/15/15 split by seeded shuffle of the ids.

    Participants missing a transcript, audio file, or label row are skipped
    with a logged warning.
    """
    data_dir = Path(data_dir)
    labels_path = data_dir / "labels.csv"
    if not labels_path.exists():
        raise FileNotFoundError(f"labels file not found: {labels_path}")
    labels = dict(read_participant_table(labels_path, LABELS_HEADER))
    entries = []
    for pid in sorted(labels):
        transcript = data_dir / f"{pid}_TRANSCRIPT.csv"
        audio = data_dir / f"{pid}_AUDIO.wav"
        if not transcript.exists() or not audio.exists():
            logger.warning("participant %d: missing %s; skipped", pid,
                           "transcript" if not transcript.exists() else "audio")
            continue
        entries.append(ManifestEntry(pid, transcript, audio, labels[pid]))
    for pid in sorted(set(f_id for f_id in _scan_ids(data_dir)) - set(labels)):
        logger.warning("participant %d: no label row; skipped", pid)
    if not entries:
        raise ValueError(f"no complete participants found under {data_dir}")
    ids = [e.participant_id for e in entries]
    rng = rng_for(seed, "split")
    order = list(rng.permutation(len(ids)))
    n = len(ids)
    n_train = int(round(SPLIT_RATIOS[0] * n))
    n_val = int(round(SPLIT_RATIOS[1] * n))
    split_of: dict[int, str] = {}
    for rank, idx in enumerate(order):
        if rank < n_train:
            split = "train"
        elif rank < n_train + n_val:
            split = "validation"
        else:
            split = "test"
        split_of[ids[idx]] = split
    return DatasetManifest(entries, split_of)


def _scan_ids(data_dir: Path) -> list[int]:
    out = []
    for p in data_dir.glob("*_TRANSCRIPT.csv"):
        head = p.name.split("_", 1)[0]
        if head.isdigit():
            out.append(int(head))
    return out


# ------------------------------------------------------------- batching


@dataclass
class Batch:
    """Stacked rows of a split (or all of it): row i is participant ``ids[i]``."""

    token_ids: np.ndarray  # (B, L) int64
    mask: np.ndarray  # (B, L) float64
    mfcc: np.ndarray  # (B, T, C) float64
    labels: np.ndarray  # (B,) int64
    ids: tuple[int, ...]


def make_batches(split: Batch, batch_size: int,
                 rng: np.random.Generator | None = None) -> list[Batch]:
    """Split ``split``'s rows into batches in order (optionally shuffled
    first); the last batch carries the remainder."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(split.ids)
    if not n:
        raise ValueError("no examples to batch")
    order = np.arange(n) if rng is None else rng.permutation(n)
    out = []
    for i in range(0, n, batch_size):
        rows = order[i : i + batch_size]
        out.append(Batch(split.token_ids[rows], split.mask[rows], split.mfcc[rows],
                         split.labels[rows], tuple(split.ids[j] for j in rows)))
    return out


# ------------------------------------------------- synthetic corpus


TEXT_CUE_WORDS = (
    # cue 0
    ("bright", "steady", "easy", "light", "warm", "clear", "rested", "calm"),
    # cue 1
    ("heavy", "hollow", "tired", "numb", "empty", "foggy", "drained", "sleepless"),
)

FILLER_WORDS = (
    "i", "feel", "kind", "of", "lately", "most", "days", "have", "been",
    "pretty", "much", "the", "same", "it", "just", "goes", "on", "and",
    "things", "at", "home", "work", "stays", "really",
)

# interviewer prompts deliberately mention words from both cue sets; a
# pipeline that fails to drop the interviewer would contaminate the text cue
INTERVIEWER_PROMPTS = (
    "how have you been feeling lately",
    "do the days feel heavy or light to you",
    "tell me about your sleep are you rested or tired",
    "what has felt bright or hollow about this week",
    "anything keeping you calm or drained right now",
)

TONE_PAIRS_HZ = ((440.0, 660.0), (1320.0, 1980.0))  # cue 0, cue 1


def _make_transcript(rng: np.random.Generator, c_text: int) -> str:
    cue_words = TEXT_CUE_WORDS[c_text]
    lines = ["start_time\tstop_time\tspeaker\tvalue"]
    t = 0.0
    n_turns = int(rng.integers(2, 5))
    for _ in range(n_turns):
        prompt = INTERVIEWER_PROMPTS[int(rng.integers(0, len(INTERVIEWER_PROMPTS)))]
        dur = float(rng.uniform(1.5, 3.0))
        lines.append(f"{t:.4f}\t{t + dur:.4f}\tEllie\t{prompt}")
        t += dur + float(rng.uniform(0.2, 0.8))
        n_words = int(rng.integers(6, 14))
        words = []
        for k in range(n_words):
            if k % 3 == 0:  # every third word carries the cue
                words.append(cue_words[int(rng.integers(0, len(cue_words)))])
            else:
                words.append(FILLER_WORDS[int(rng.integers(0, len(FILLER_WORDS)))])
        dur = float(rng.uniform(2.0, 5.0))
        lines.append(f"{t:.4f}\t{t + dur:.4f}\tParticipant\t{' '.join(words)}")
        t += dur + float(rng.uniform(0.2, 0.8))
    return "\n".join(lines) + "\n"


def _make_clip(rng: np.random.Generator, c_audio: int, sample_rate: int) -> WaveForm:
    lead = float(rng.uniform(0.15, 0.30))
    voiced = float(rng.uniform(1.4, 1.8))
    trail = float(rng.uniform(0.15, 0.30))
    n_lead = int(lead * sample_rate)
    n_voiced = int(voiced * sample_rate)
    n_trail = int(trail * sample_rate)
    t = np.arange(n_voiced) / sample_rate
    tone = np.zeros(n_voiced)
    for f_hz in TONE_PAIRS_HZ[c_audio]:
        f_jit = f_hz * (1.0 + float(rng.uniform(-0.02, 0.02)))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        tone += 0.14 * np.sin(2.0 * np.pi * f_jit * t + phase)
    tone += 0.008 * rng.standard_normal(n_voiced)
    silence_lead = 0.0005 * rng.standard_normal(n_lead)
    silence_trail = 0.0005 * rng.standard_normal(n_trail)
    return WaveForm(np.concatenate([silence_lead, tone, silence_trail]), sample_rate)


def synth_generate(n: int, seed: int, out_dir, sample_rate: int = 8000) -> DatasetManifest:
    """Generate an n-participant corpus under out_dir and return its manifest.

    Labels are balanced by construction (|#1 - #0| <= 1 by shuffling a fixed
    half-and-half label vector); given the label, the cue pair is drawn
    uniformly from the two combinations whose XOR produces it, which keeps
    each cue marginally independent of the label. Regenerating with the same
    seed rewrites byte-identical files.
    """
    if n < 20:
        raise ValueError(f"need at least 20 participants, got {n}")
    out_dir = Path(out_dir)
    rng = rng_for(seed, "synth")
    labels = np.array([k % 2 for k in range(n)], dtype=np.int64)
    rng.shuffle(labels)
    rows = [LABELS_HEADER]
    for k in range(n):
        pid = 300 + k
        label = int(labels[k])
        c_text = int(rng.integers(0, 2))
        c_audio = c_text ^ label
        transcript = _make_transcript(rng, c_text)
        atomic_write(out_dir / f"{pid}_TRANSCRIPT.csv", transcript)
        write_wav(out_dir / f"{pid}_AUDIO.wav", _make_clip(rng, c_audio, sample_rate))
        rows.append(f"{pid},{label}")
    atomic_write(out_dir / "labels.csv", "\n".join(rows) + "\n")
    return load_dataset(out_dir, seed=seed)
