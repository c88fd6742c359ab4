"""Configuration tests: default values, the key = value file format,
precedence (defaults < file < overrides), typed coercion, and save/parse
round-trips.
"""

import pytest

from distillfuse.config import (
    ConfigError,
    RunConfig,
    parse_config_file,
    resolve_config,
    save_config,
)


class TestDefaults:
    def test_selected_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 0
        assert cfg.sample_rate == 16000
        assert cfg.n_mels == 26
        assert cfg.n_coeffs == 13
        assert cfg.d_model == 64
        assert cfg.multi_head is True
        assert cfg.alpha == 0.5
        assert cfg.temperature == 1.0
        assert cfg.quant_scheme == "symmetric"
        assert cfg.eval_split == "test"
        assert cfg.threads == 0

    def test_resolve_without_sources_is_defaults(self):
        assert resolve_config() == RunConfig()


class TestParseConfigFile:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# comment line\n"
            "\n"
            "seed = 11\n"
            "alpha=0.25\n"
            "  optimizer_student =  sgd  \n"
        )
        out = parse_config_file(p)
        assert out == {"seed": "11", "alpha": "0.25", "optimizer_student": "sgd"}

    def test_unknown_key_reports_line_number(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="line 2.*learning_rate"):
            parse_config_file(p)

    def test_duplicate_key_names_file_key_and_both_lines(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\nalpha = 0.5\n  seed = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(p)
        assert str(err.value) == f"{p} line 3: config key 'seed' already set on line 1"

    def test_missing_equals_reports_line_number(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\nalpha 0.5\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_file(p)


class TestResolveConfig:
    def test_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 42\nlr_student = 0.01\nmulti_head = false\n")
        cfg = resolve_config(p)
        assert cfg.seed == 42
        assert cfg.lr_student == 0.01
        assert cfg.multi_head is False
        assert cfg.alpha == 0.5  # untouched default

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 42\nalpha = 0.9\n")
        cfg = resolve_config(p, {"alpha": 0.1})
        assert cfg.seed == 42
        assert cfg.alpha == 0.1

    def test_string_overrides_coerced(self):
        cfg = resolve_config(overrides={"seed": "7", "alpha": "0.75",
                                        "multi_head": "false",
                                        "optimizer_text": "sgd"})
        assert cfg.seed == 7
        assert cfg.alpha == 0.75
        assert cfg.multi_head is False
        assert cfg.optimizer_text == "sgd"

    def test_typed_overrides_pass_through(self):
        cfg = resolve_config(overrides={"seed": 5, "multi_head": False})
        assert cfg.seed == 5
        assert cfg.multi_head is False

    def test_bool_coercion_table(self):
        for raw, expected in (("true", True), ("1", True), ("yes", True),
                              ("on", True), ("false", False), ("0", False),
                              ("no", False), ("off", False), ("TRUE", True)):
            assert resolve_config(overrides={"multi_head": raw}).multi_head is expected
        with pytest.raises(ConfigError, match="boolean"):
            resolve_config(overrides={"multi_head": "maybe"})

    def test_numeric_coercion_errors(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(overrides={"seed": "eleven"})
        with pytest.raises(ConfigError, match="alpha"):
            resolve_config(overrides={"alpha": "half"})

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config(overrides={"momentum": "0.9"})


class TestSaveConfig:
    def test_round_trip_through_file(self, tmp_path):
        cfg = resolve_config(overrides={
            "seed": 13, "alpha": 0.3, "multi_head": False,
            "optimizer_student": "sgd", "data_dir": str(tmp_path / "d"),
        })
        out = tmp_path / "saved" / "config.txt"
        save_config(cfg, out)
        assert out.exists()
        assert resolve_config(out) == cfg

    def test_format_is_key_equals_value(self, tmp_path):
        out = tmp_path / "config.txt"
        save_config(RunConfig(), out)
        lines = out.read_text().strip().split("\n")
        from dataclasses import fields

        assert len(lines) == len(fields(RunConfig))
        assert "seed = 0" in lines
        assert "multi_head = true" in lines
        for line in lines:
            assert " = " in line

    def test_saved_file_is_deterministic(self, tmp_path):
        save_config(RunConfig(seed=3), tmp_path / "a.txt")
        save_config(RunConfig(seed=3), tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
