"""The three benchmark workloads: set-up, one timed pass, and output checks.

Every workload is closed loop with one caller: the harness calls the pipeline
stages one after another and waits for each. Set-up makes the inputs from the
seed (corpus synthesis, and for ``audio-qat`` the features; for ``screen`` the
checkpoints) and is timed apart from the passes. Each stage call is one
operation; one that raises, or whose outputs fail their check, is failed.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from distillfuse import data, models, pipeline, text
from distillfuse.checkpoint import save_checkpoint
from distillfuse.config import RunConfig

# The README demo recipe.
DEMO = dict(
    synth_n=200, max_len=32, batch_size=32, epochs_text=4, epochs_audio=6,
    epochs_student=15, optimizer_student="adam", fusion_dim=16, fusion_heads=8,
)
EVAL_FILES = ("metrics.txt", "roc.csv", "attention.csv", "quantization.txt")
SPLITS = ("train", "validation", "test")
STAGES = ("preprocess", "text_teacher", "audio_teacher", "student", "qat", "evaluate")


@dataclass
class Pass:
    """One timed pass: per-operation outcome and time."""

    op_s: dict[str, float] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    results: dict[str, object] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    info: dict = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def run(self, op: str, fn, *args):
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as err:  # a failed operation is counted, the pass goes on
            self.errors[op] = f"{type(err).__name__}: {err}"
            result = None
        self.op_s[op] = perf_counter() - t0
        self.results[op] = result
        return result

    def fail(self, op: str, message: str) -> None:
        self.errors.setdefault(op, message)

    def stage_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for op, s in self.op_s.items():
            stage = op.split("/")[0]
            out[stage] = out.get(stage, 0.0) + s
        return out


    def check_artifacts(self) -> None:
        for op, result in self.results.items():
            if isinstance(result, Path) and not result.is_file():
                self.fail(op, f"missing {result.name}")


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    config: dict = {}  # over the demo recipe

    def __init__(self, seed: int, **over):
        self.cfg = RunConfig(seed=seed, **{**DEMO, **self.config, **over})


class TrainDemo(Workload):
    """The README demo recipe, raw corpus to three evaluated checkpoints."""

    name = "train-demo"

    def setup(self, work: Path) -> None:
        self.data_dir = work / "data"
        data.synth_generate(self.cfg.synth_n, self.cfg.seed, self.data_dir, self.cfg.synth_sample_rate)

    def run(self, p: Pass, out: Path) -> None:
        cfg, feats = self.cfg, out / "features"
        p.run("preprocess", pipeline.preprocess, cfg, self.data_dir, feats)
        tc = p.run("text_teacher", pipeline.train_text_teacher, cfg, feats, out / "teachers")
        ac = p.run("audio_teacher", pipeline.train_audio_teacher, cfg, feats, out / "teachers")
        sc = p.run("student", pipeline.train_student, cfg, feats, tc, ac, out / "student")
        for name, ckpt in (("student", sc), ("text-teacher", tc), ("audio-teacher", ac)):
            p.run(f"evaluate/{name}", pipeline.evaluate_model, cfg, ckpt, feats, "test",
                  out / "eval" / name)

    def check(self, p: Pass, out: Path) -> dict:
        feats = out / "features"
        _check_logs(p, out / "teachers" / "text_teacher_log.csv", "text_teacher")
        _check_logs(p, out / "teachers" / "audio_teacher_log.csv", "audio_teacher")
        rows = _check_logs(p, out / "student" / "student_log.csv", "student")
        if rows and not rows[-1]["total"] < rows[0]["total"]:
            p.fail("student", f"student loss did not fall: {rows[0]['total']} -> {rows[-1]['total']}")
        split_ids = _read_splits(feats, p, "preprocess")
        n_test = len(split_ids.get("test", []))
        info = {}
        for name in ("student", "text-teacher", "audio-teacher"):
            op = f"evaluate/{name}"
            m = _check_metrics(p, out / "eval" / name, op, n_test)
            if name == "student" and m:
                info["student_test_accuracy"] = m["accuracy"]
                _check_attention(p, out / "eval" / name, op, split_ids.get("test", []))
        return info


class AudioQat(Workload):
    """Audio teacher, QAT fine-tuning and int8 export over preprocessed features."""

    name = "audio-qat"
    config = {"synth_n": 200, "epochs_audio": 6, "epochs_qat": 3}

    def setup(self, work: Path) -> None:
        cfg = self.cfg
        data.synth_generate(cfg.synth_n, cfg.seed, work / "data", cfg.synth_sample_rate)
        self.feats = work / "features"
        pipeline.preprocess(cfg, work / "data", self.feats)

    def run(self, p: Pass, out: Path) -> None:
        cfg = self.cfg
        ac = p.run("audio_teacher", pipeline.train_audio_teacher, cfg, self.feats, out / "teacher")
        qc = p.run("qat", pipeline.quantize_pipeline, cfg, ac, self.feats, out / "quant")
        p.run("evaluate/int8", pipeline.evaluate_model, cfg, qc, self.feats, "test", out / "eval")

    def check(self, p: Pass, out: Path) -> dict:
        _check_logs(p, out / "teacher" / "audio_teacher_log.csv", "audio_teacher")
        q = _read_keyvalues(out / "quant" / "quantization.txt", p, "qat")
        if q:
            if not q.get("agreement", -1.0) >= 0.95:
                p.fail("qat", f"float/int8 agreement {q.get('agreement')} < 0.95")
            if q.get("storage_ratio") != 0.125:
                p.fail("qat", f"storage_ratio {q.get('storage_ratio')} != 0.125")
        qc = p.results.get("qat")
        if qc is not None:
            try:
                if not models.load_model(qc).quantized_blocks:
                    p.fail("qat", "int8 checkpoint reloads without quantized blocks")
            except Exception as err:  # reload failure is the check's finding
                p.fail("qat", f"int8 checkpoint does not reload: {type(err).__name__}: {err}")
        n_test = len(_read_splits(self.feats, p, "evaluate/int8").get("test", []))
        _check_metrics(p, out / "eval", "evaluate/int8", n_test)
        return {"qat_agreement": q.get("agreement") if q else None}


class Screen(Workload):
    """Deployment: preprocess a new corpus, score it with all three models."""

    name = "screen"
    config = {"synth_n": 400}
    MODELS = ("student", "text-teacher", "audio-teacher")

    def setup(self, work: Path) -> None:
        cfg = self.cfg
        self.data_dir = work / "data"
        manifest = data.synth_generate(cfg.synth_n, cfg.seed, self.data_dir, cfg.synth_sample_rate)
        # Inference cost does not depend on weight values: seeded initial
        # weights, sized to the vocabulary preprocess will build.
        split = data.load_dataset(self.data_dir, seed=cfg.seed).split_of
        corpus = [
            text.parse_and_filter_transcript(Path(e.transcript_path).read_text(encoding="utf-8"),
                                             cfg.interviewer)
            for e in manifest.entries if split[e.participant_id] == "train"
        ]
        vocab_size = text.build_vocab(corpus, cfg.min_count).size
        self.ckpts = {}
        for name, model in (
            ("student", models.StudentModel.build(vocab_size, cfg)),
            ("text-teacher", models.TextTeacherModel.build(vocab_size, cfg)),
            ("audio-teacher", models.AudioTeacherModel.build(cfg)),
        ):
            self.ckpts[name] = work / f"{name}.ckpt"
            save_checkpoint(self.ckpts[name], model.to_checkpoint())

    def run(self, p: Pass, out: Path) -> None:
        cfg, feats = self.cfg, out / "features"
        p.run("preprocess", pipeline.preprocess, cfg, self.data_dir, feats)
        for name in self.MODELS:
            for split in SPLITS:
                p.run(f"evaluate/{name}/{split}", pipeline.evaluate_model, cfg, self.ckpts[name],
                      feats, split, out / "eval" / name / split)

    def check(self, p: Pass, out: Path) -> dict:
        split_ids = _read_splits(out / "features", p, "preprocess")
        if sum(len(v) for v in split_ids.values()) != self.cfg.synth_n:
            p.fail("preprocess", f"splits.csv lists {sum(map(len, split_ids.values()))} "
                                 f"participants, corpus has {self.cfg.synth_n}")
        for name in self.MODELS:
            for split in SPLITS:
                op, d = f"evaluate/{name}/{split}", out / "eval" / name / split
                _check_metrics(p, d, op, len(split_ids.get(split, [])))
                _check_roc_scores(p, d, op)
                if name == "student":
                    _check_attention(p, d, op, split_ids.get(split, []))
        return {}


WORKLOADS = {w.name: w for w in (TrainDemo, AudioQat, Screen)}


# ------------------------------------------------------------------ checks


def _read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def _check_logs(p: Pass, path: Path, op: str) -> list[dict[str, float]]:
    """Every logged value finite; returns the rows as floats."""
    if op in p.errors:
        return []
    if not path.is_file():
        p.fail(op, f"missing {path.name}")
        return []
    rows = [{k: float(v) for k, v in r.items()} for r in _read_csv(path)]
    bad = [(i, k) for i, r in enumerate(rows) for k, v in r.items() if not math.isfinite(v)]
    if not rows or bad:
        p.fail(op, f"{path.name}: no rows or non-finite values at {bad[:3]}")
    return rows


def _read_keyvalues(path: Path, p: Pass, op: str) -> dict[str, float]:
    if op in p.errors:
        return {}
    if not path.is_file():
        p.fail(op, f"missing {path.name}")
        return {}
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if value not in ("true", "false"):
            out[key] = float(value)
    bad = [k for k, v in out.items() if not math.isfinite(v)]
    if bad:
        p.fail(op, f"{path.name}: non-finite {bad}")
    return out


def _read_splits(features: Path, p: Pass, op: str) -> dict[str, list[int]]:
    path = features / "splits.csv"
    if not path.is_file():
        p.fail(op, "missing splits.csv")
        return {}
    out: dict[str, list[int]] = {}
    for row in _read_csv(path):
        out.setdefault(row["split"], []).append(int(row["participant_id"]))
    return out


def _check_metrics(p: Pass, d: Path, op: str, n_expected: int) -> dict[str, float]:
    m = _read_keyvalues(d / "metrics.txt", p, op)
    if m and m.get("n") != n_expected:
        p.fail(op, f"metrics n={m.get('n')}, split has {n_expected}")
    if m and not (d / "roc.csv").is_file():
        p.fail(op, "missing roc.csv")
    return m


def _check_roc_scores(p: Pass, d: Path, op: str) -> None:
    if op in p.errors or not (d / "roc.csv").is_file():
        return
    thresholds = [float(r["threshold"]) for r in _read_csv(d / "roc.csv")]
    if any(math.isfinite(t) and not 0.0 <= t <= 1.0 for t in thresholds):
        p.fail(op, "a score lies outside [0, 1]")


def _check_attention(p: Pass, d: Path, op: str, ids: list[int]) -> None:
    """Each participant of the split once per head; weights convex."""
    if op in p.errors:
        return
    path = d / "attention.csv"
    if not path.is_file():
        p.fail(op, "missing attention.csv")
        return
    seen: dict[int, list[int]] = {}
    for r in _read_csv(path):
        w_t, w_a = float(r["weight_text"]), float(r["weight_audio"])
        if not (w_t >= 0.0 and w_a >= 0.0 and abs(w_t + w_a - 1.0) <= 1e-9):
            p.fail(op, f"attention weights not convex for participant {r['participant_id']}")
            return
        seen.setdefault(int(r["participant_id"]), []).append(int(r["head"]))
    heads = list(seen.values())
    if sorted(seen) != sorted(ids) or any(sorted(h) != list(range(len(heads[0]))) for h in heads):
        p.fail(op, "attention.csv does not score every participant exactly once per head")


def digests(out: Path) -> dict[str, str]:
    """sha256 of each evaluation file under ``out``, by relative path."""
    return {
        str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.rglob("*")) if f.name in EVAL_FILES
    }


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

