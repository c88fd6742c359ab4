"""Command-line interface.

Every configuration key is exposed as a ``--key-name`` flag on every
subcommand; precedence is defaults < ``--config`` file < flags. Each run
writes the fully resolved configuration into its output directory so results
can be reproduced from the artifacts alone.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from . import pipeline
from .config import ConfigError, RunConfig, resolve_config, save_config
from .data import synth_generate

COMMANDS = (
    "synth",
    "preprocess",
    "train-text-teacher",
    "train-audio-teacher",
    "train-student",
    "quantize",
    "evaluate",
    "ablate",
    "run",
)

_FLAG_TYPES = {"int": int, "float": float, "str": str}

_REQUIRED = {
    "synth": ("data_dir",),
    "preprocess": ("data_dir", "features_dir"),
    "train-text-teacher": ("features_dir",),
    "train-audio-teacher": ("features_dir",),
    "train-student": ("features_dir", "text_teacher_ckpt", "audio_teacher_ckpt"),
    "quantize": ("features_dir",),
    "evaluate": ("features_dir", "checkpoint"),
    "ablate": ("features_dir", "text_teacher_ckpt", "audio_teacher_ckpt"),
    "run": (),
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key = value configuration file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, dest=f.name, default=None,
                                action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, dest=f.name, default=None,
                                type=_FLAG_TYPES[f.type], metavar=f.type.upper())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distillfuse",
        description="Teacher-student multimodal depression classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "synth": "generate a synthetic labeled corpus under --data-dir",
        "preprocess": "extract MFCC + merged-text features into --features-dir",
        "train-text-teacher": "fine-tune the text teacher (low-rank adapters + head)",
        "train-audio-teacher": "train the recurrent audio teacher",
        "train-student": "distill both teachers into the fused student",
        "quantize": "quantization-aware fine-tune + int8 export of the audio teacher",
        "evaluate": "run a checkpoint over a split; write metrics and ROC files",
        "ablate": "unimodal baselines plus the fusion/alpha grid",
        "run": "full pipeline: synth, preprocess, teachers, student, evaluate",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        _add_config_flags(p)
    return parser


def _require(cfg: RunConfig, *keys: str) -> None:
    missing = [k for k in keys if not getattr(cfg, k)]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ConfigError(f"missing required option(s): {flags}")


def _out_dir(cfg: RunConfig, command: str) -> Path:
    if cfg.out_dir:
        return Path(cfg.out_dir)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{stamp}-{command}"


def _report_line(report) -> str:
    return (f"n={report.n} accuracy={report.accuracy!r} f1_weighted={report.f1_weighted!r}"
            + (f" auc={report.auc!r}" if report.auc is not None else ""))


def _dispatch(command: str, cfg: RunConfig) -> None:
    _require(cfg, *_REQUIRED[command])
    if command == "quantize" and not (cfg.checkpoint or cfg.audio_teacher_ckpt):
        raise ConfigError("missing required option(s): --checkpoint")
    if command == "synth":
        manifest = synth_generate(cfg.synth_n, cfg.seed, cfg.data_dir, cfg.synth_sample_rate)
        print(f"wrote {len(manifest.entries)} participants to {cfg.data_dir}")
        return
    if command == "preprocess":
        manifest = pipeline.preprocess(cfg, cfg.data_dir, cfg.features_dir)
        print(f"cached features for {len(manifest.entries)} participants in {cfg.features_dir}")
        return

    out = _out_dir(cfg, command)
    if command == "train-text-teacher":
        path = pipeline.train_text_teacher(cfg, cfg.features_dir, out)
        print(f"saved {path}")
    elif command == "train-audio-teacher":
        path = pipeline.train_audio_teacher(cfg, cfg.features_dir, out)
        print(f"saved {path}")
    elif command == "train-student":
        path = pipeline.train_student(cfg, cfg.features_dir, cfg.text_teacher_ckpt,
                                      cfg.audio_teacher_ckpt, out)
        print(f"saved {path}")
    elif command == "quantize":
        path = pipeline.quantize_pipeline(cfg, cfg.checkpoint or cfg.audio_teacher_ckpt,
                                          cfg.features_dir, out)
        print(f"saved {path}")
        print((out / "quantization.txt").read_text(encoding="utf-8"), end="")
    elif command == "evaluate":
        report = pipeline.evaluate_model(cfg, cfg.checkpoint, cfg.features_dir,
                                         cfg.eval_split, out)
        print(_report_line(report))
    elif command == "ablate":
        table = pipeline.ablate(cfg, cfg.features_dir, cfg.text_teacher_ckpt,
                                cfg.audio_teacher_ckpt, out)
        print(table.read_text(encoding="utf-8"), end="")
    elif command == "run":
        result = pipeline.run_full(cfg, out)
        print(f"student: {_report_line(result['student_report'])}")
        print(f"artifacts under {out}")
    else:  # pragma: no cover - argparse rejects unknown commands first
        raise ConfigError(f"unknown command {command!r}")
    # Written last, so a stage that fails on its inputs leaves no directory.
    save_config(cfg, out / "config.txt")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    try:
        cfg = resolve_config(args.config, overrides)
        _dispatch(args.command, cfg)
    except (ValueError, OSError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
