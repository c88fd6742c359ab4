"""Run configuration: declared defaults, ``key = value`` config files, and
flag overlays. Precedence: built-in defaults < config file < CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .files import atomic_write

__all__ = ["ConfigError", "RunConfig", "parse_config_file", "resolve_config", "save_config"]


class ConfigError(ValueError):
    """Unknown key or unparseable value in a config source."""


@dataclass
class RunConfig:
    # run identity / paths
    seed: int = 0
    data_dir: str = ""
    features_dir: str = ""
    out_dir: str = ""
    checkpoint: str = ""
    text_teacher_ckpt: str = ""
    audio_teacher_ckpt: str = ""
    eval_split: str = "test"
    threads: int = 0  # preprocess workers; 0 = one per CPU

    # text front end
    interviewer: str = "Ellie"
    min_count: int = 1
    max_len: int = 512

    # audio front end
    sample_rate: int = 16000
    fir_cutoff_hz: float = 7000.0
    fir_taps: int = 101
    vad_frame_ms: float = 25.0
    vad_hop_ms: float = 10.0
    vad_threshold_ratio: float = 0.1
    n_fft: int = 512
    hop: int = 160
    n_mels: int = 26
    n_coeffs: int = 13
    fmin: float = 0.0
    fmax: float = 7000.0
    target_frames: int = 60

    # encoders
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    lstm_hidden: int = 32
    lora_rank: int = 8
    lora_alpha: float = 32.0

    # fusion
    fusion_dim: int = 64
    fusion_heads: int = 4
    multi_head: bool = True

    # distillation
    alpha: float = 0.5
    teacher_mix_beta: float = 0.5
    temperature: float = 1.0

    # optimization
    batch_size: int = 4
    epochs_text: int = 20
    epochs_audio: int = 30
    epochs_student: int = 60
    epochs_qat: int = 3
    optimizer_text: str = "adamw"
    optimizer_audio: str = "adam"
    optimizer_student: str = "adamw"
    lr_text: float = 1e-3
    lr_audio: float = 1e-3
    lr_student: float = 3e-3
    lr_qat: float = 1e-4
    weight_decay: float = 0.01
    plateau_factor: float = 0.5
    plateau_patience: int = 2
    plateau_min_lr: float = 1e-6

    # quantization
    quant_scheme: str = "symmetric"

    # synthetic corpus
    synth_n: int = 600
    synth_sample_rate: int = 8000


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if ftype == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {raw!r}")
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected {ftype}, got {raw!r}") from None
    return raw


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines; blank lines and '#' comments are ignored,
    and a key set twice raises ConfigError naming both lines."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path} line {lineno}: unknown config key {key!r}")
            if key in line_of:
                raise ConfigError(f"{path} line {lineno}: config key {key!r} already set "
                                  f"on line {line_of[key]}")
            line_of[key] = lineno
            out[key] = value.strip()
    return out


def resolve_config(config_path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid by the config file, overlaid by explicit overrides.

    Override values may be strings (coerced by field type) or already-typed.
    """
    values: dict = {}
    if config_path:
        for k, v in parse_config_file(config_path).items():
            values[k] = _coerce(k, v)
    for k, v in (overrides or {}).items():
        if k not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {k!r}")
        values[k] = _coerce(k, v) if isinstance(v, str) else v
    return RunConfig(**values)


def save_config(cfg: RunConfig, path) -> None:
    """Write the resolved configuration as parseable ``key = value`` lines."""
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    atomic_write(path, "\n".join(lines) + "\n")
