"""Text front end: interview-transcript parsing, vocabulary, and encoding.

Transcripts are tab-separated with header ``start_time stop_time speaker
value``. Interviewer turns are dropped, the remaining turns are merged in time
order, and the merged document is tokenized by lowercased whitespace words.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .files import atomic_write

__all__ = [
    "CLS_TOKEN",
    "PAD_TOKEN",
    "SEP_TOKEN",
    "TranscriptParseError",
    "UNK_TOKEN",
    "Vocabulary",
    "build_vocab",
    "encode",
    "load_vocab",
    "parse_and_filter_transcript",
    "save_vocab",
    "tokenize",
]

TRANSCRIPT_HEADER = ("start_time", "stop_time", "speaker", "value")

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
CLS_TOKEN = "<cls>"
SEP_TOKEN = "<sep>"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)


class TranscriptParseError(ValueError):
    """A transcript line that cannot be parsed; the message names the line."""


def parse_and_filter_transcript(content: str, interviewer: str = "Ellie") -> str:
    """Parse a tab-separated transcript and return the text of its
    non-interviewer turns (speaker compared case-insensitively), stripped and
    joined in start-time order; equal start times keep file order. Blank turns
    are skipped, and a malformed row raises with its line number."""
    lines = [ln.rstrip("\r") for ln in content.splitlines()]
    if not lines or tuple(lines[0].split("\t")) != TRANSCRIPT_HEADER:
        raise TranscriptParseError(
            "line 1: expected header 'start_time\\tstop_time\\tspeaker\\tvalue'"
        )
    kept: list[tuple[float, str]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise TranscriptParseError(
                f"line {lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
        except ValueError:
            raise TranscriptParseError(f"line {lineno}: non-numeric timestamp") from None
        if stop < start:
            raise TranscriptParseError(
                f"line {lineno}: stop_time {stop} precedes start_time {start}"
            )
        if parts[2].lower() != interviewer.lower() and parts[3].strip():
            kept.append((start, parts[3].strip()))
    kept.sort(key=lambda turn: turn[0])  # stable: file order breaks ties
    return " ".join(text for _, text in kept)


def tokenize(text: str) -> list[str]:
    return text.lower().split()


@dataclass
class Vocabulary:
    """Dense token ids; ids 0..3 are the pad/unk/cls/sep specials."""

    id_to_token: list[str]

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    pad_id = 0
    unk_id = 1
    cls_id = 2
    sep_id = 3

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)


def build_vocab(corpus: list[str], min_count: int = 1) -> Vocabulary:
    """Count lowercased whitespace tokens across documents; ids are assigned
    by descending count, ties broken lexicographically, after the specials.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    for doc in corpus:
        counts.update(tokenize(doc))
    for special in SPECIAL_TOKENS:  # corpus text can never claim a special id
        counts.pop(special, None)
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(list(SPECIAL_TOKENS) + kept)


def encode(text: str, vocab: Vocabulary, max_len: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, mask)``: the int64 ids of [cls] + token ids + [sep], truncated
    to max_len then padded with pad=0, and their float64 attention mask.

    The separator is always the last real token; the mask is 1 over real
    tokens and 0 over padding.
    """
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")
    body = [vocab.lookup(tok) for tok in tokenize(text)][: max_len - 2]
    ids = np.full(max_len, vocab.pad_id, dtype=np.int64)
    ids[0] = vocab.cls_id
    ids[1 : 1 + len(body)] = body
    ids[1 + len(body)] = vocab.sep_id
    mask = np.zeros(max_len)
    mask[: 2 + len(body)] = 1.0
    return ids, mask


def save_vocab(path, vocab: Vocabulary) -> None:
    atomic_write(path, "".join(tok + "\n" for tok in vocab.id_to_token))


def load_vocab(path) -> Vocabulary:
    """Read a vocabulary written by ``save_vocab``, one token per line. A file
    that does not open with the four special tokens, or repeats a token,
    raises ValueError naming the file and the line."""
    with open(path, encoding="utf-8") as f:
        tokens = [line.rstrip("\n") for line in f]
    if tokens and tokens[-1] == "":
        tokens.pop()
    for lineno, want in enumerate(SPECIAL_TOKENS, 1):
        if lineno > len(tokens) or tokens[lineno - 1] != want:
            got = repr(tokens[lineno - 1]) if lineno <= len(tokens) else "end of file"
            raise ValueError(f"{path}:{lineno}: expected special token {want!r}, got {got}")
    first: dict[str, int] = {}
    for lineno, tok in enumerate(tokens, 1):
        if tok in first:
            raise ValueError(f"{path}:{lineno}: duplicate token {tok!r} "
                             f"(first on line {first[tok]})")
        first[tok] = lineno
    return Vocabulary(tokens)
