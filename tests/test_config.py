from pathlib import Path

import pytest

from promptscan.config import (
    RunConfig,
    format_config,
    format_model_config,
    load_config,
    parse_config,
    parse_model_config,
)
from promptscan.errors import ConfigError, ParseError
from promptscan.network import ModelConfig, build_model

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\n   \nmodel.channels=16\n")
    assert cfg.model.channels == 16
    assert cfg.train.steps == RunConfig().train.steps


def test_format_parse_format_is_identity():
    cfg = RunConfig()
    cfg.model.channels = 12
    cfg.model.scale = 4
    cfg.loss.lambda_freq = 0.35
    cfg.train.lr = 3e-4
    text = format_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert format_config(again) == text


def test_float_values_round_trip_exactly():
    cfg = RunConfig()
    cfg.train.lr = 1.0000000000000002e-4
    assert parse_config(format_config(cfg)).train.lr == cfg.train.lr


def test_all_sections_present_in_canonical_form():
    text = format_config(RunConfig())
    for key in ("model.channels", "loss.lambda_freq", "loss.lambda_phase",
                "loss.lambda_pix", "train.steps", "train.lr"):
        assert any(line.startswith(key + "=") for line in text.splitlines()), key


def test_missing_equals_sign():
    with pytest.raises(ParseError, match="line 2"):
        parse_config("# ok\nmodel.channels 16\n")


def test_non_dotted_key():
    with pytest.raises(ParseError, match="not section.field"):
        parse_config("channels=16\n")


def test_unknown_section():
    with pytest.raises(ParseError, match="unknown section 'data'"):
        parse_config("data.root=/tmp\n")


def test_unknown_key():
    with pytest.raises(ParseError, match="unknown key 'model.layers'"):
        parse_config("model.layers=3\n")


def test_duplicate_key():
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse_config("model.channels=8\n# x\nmodel.channels=16\n")


def test_type_mismatch_names_line_and_type():
    with pytest.raises(ParseError, match="line 1.*not a valid int"):
        parse_config("model.channels=eight\n")
    with pytest.raises(ParseError, match="not a valid float"):
        parse_config("train.lr=fast\n")


def test_validation_error_mapped_to_offending_line():
    text = "model.channels=8\nmodel.scale=3\n"
    with pytest.raises(ParseError, match="line 2.*scale"):
        parse_config(text)


@pytest.mark.parametrize(
    "text, field",
    [
        ("train.eps=1e-8\ntrain.steps=0\n", "steps"),
        ("train.log_every=1\ntrain.ckpt_every=0\n", "ckpt_every"),
        ("train.beta1=0.9\ntrain.beta2=1.5\n", "beta2"),
        ("model.blocks=2\nmodel.modules_per_block=0\n", "modules_per_block"),
    ],
)
def test_validation_error_names_the_line_of_its_field_not_of_a_substring(text, field):
    """The first line's field name is part of the second's ("eps" of
    "steps") or of the same message, yet the error names line 2."""
    with pytest.raises(ParseError, match=f"line 2: {field} must"):
        parse_config(text)


@pytest.mark.parametrize(
    "line",
    [
        "model.seed=-1",
        "model.temperature=nan",
        "model.temperature=inf",
        "train.lr=nan",
        "train.lr=inf",
        "train.eps=inf",
    ],
)
def test_values_the_program_cannot_run_are_parse_errors_naming_their_line(line):
    key = line.partition("=")[0].split(".")[1]
    with pytest.raises(ParseError, match=f"line 2: {key} must be"):
        parse_config(f"model.channels=8\n{line}\n")


def test_negative_seed_cannot_build_a_model():
    with pytest.raises(ConfigError, match="seed"):
        build_model(ModelConfig(seed=-1))


def test_source_name_appears_in_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("model.scale=5\n")
    with pytest.raises(ParseError, match="bad.cfg"):
        load_config(p)


def test_load_config_round_trip(tmp_path):
    cfg = RunConfig()
    cfg.model.pool_size = 4
    cfg.train.steps = 7
    p = tmp_path / "run.cfg"
    p.write_text(format_config(cfg))
    assert load_config(p) == cfg


def test_model_config_round_trip():
    m = ModelConfig(channels=6, blocks=1, modules_per_block=1, pool_size=2,
                    scale=4, temperature=0.5, prompts="off", seed=11)
    assert parse_model_config(format_model_config(m)) == m


def test_string_fields_parse():
    cfg = parse_config("model.prompts=off\n")
    assert cfg.model.prompts == "off"


def test_bad_string_choice_is_a_parse_error():
    with pytest.raises(ParseError, match="prompts"):
        parse_config("model.prompts=oracle\n")


def test_presets_parse_and_set_every_key():
    """desk.cfg restates the defaults, and both presets name every key, so
    a key added to or dropped from the config classes shows up here."""
    want = {line.partition("=")[0] for line in format_config(RunConfig()).splitlines()}
    for name in ("desk.cfg", "fullscale.cfg"):
        path = CONFIGS / name
        load_config(path)
        lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
        keys = {ln.partition("=")[0] for ln in lines if ln and not ln.startswith("#")}
        assert keys == want, name
    assert load_config(CONFIGS / "desk.cfg") == RunConfig()
