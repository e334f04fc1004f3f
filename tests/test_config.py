"""Run-configuration tests: defaults, validation, file parsing and layering."""

import argparse
import dataclasses
import math
import pathlib
import re

import pytest

from emocue import cli, config
from emocue.config import RunConfig, make_config, parse_config_file


def test_defaults_are_standard_setup():
    cfg = RunConfig()
    assert cfg.alpha == 0.5
    assert cfg.num_states == 9
    assert cfg.num_mixtures == 10
    assert cfg.num_supra_mixtures == 3
    assert cfg.num_supra_states == 3
    assert cfg.train_sentences == (1, 2, 3, 4)
    assert cfg.test_sentences == (5, 6, 7, 8)
    assert cfg.length_normalize is False


def test_string_fields_are_coerced():
    cfg = RunConfig(num_states=3, num_supra_states="2",
                    train_sentences="1,2", test_sentences="3,4")
    assert cfg.num_supra_states == 2
    assert cfg.train_sentences == (1, 2)


def test_validation_errors():
    with pytest.raises(ValueError):
        RunConfig(alpha=1.2)
    with pytest.raises(ValueError, match=r"num_supra_states must lie in "
                                         r"\[1, num_states 2\], got 3"):
        RunConfig(num_states=2)  # fewer acoustic than prosodic states
    with pytest.raises(ValueError, match="num_supra_states"):
        RunConfig(num_supra_states=0)
    with pytest.raises(ValueError):
        RunConfig(train_sentences=(1, 2), test_sentences=(2, 3),
                  num_states=9)
    with pytest.raises(ValueError):
        RunConfig(variance_floor=0.0)
    with pytest.raises(ValueError):
        RunConfig(em_max_iters=0)
    with pytest.raises(ValueError):
        RunConfig(num_supra_mixtures=0)


@pytest.mark.parametrize("value", [math.nan, "nan", math.inf, -math.inf,
                                   0.0, -1e-5])
@pytest.mark.parametrize("name", ["variance_floor", "em_tol"])
def test_non_finite_or_non_positive_setting_is_refused_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and "
                                         f"positive"):
        make_config(**{name: value})


def test_derived_views():
    cfg = RunConfig(alpha=0.25, length_normalize=True)
    assert cfg.protocol.train_sentences == (1, 2, 3, 4)
    assert cfg.fusion.alpha == 0.25
    assert cfg.fusion.length_normalize is True


def test_parsers_cover_every_field():
    for f in dataclasses.fields(RunConfig):
        parse = config.FIELD_PARSERS[f.type]
        default = getattr(RunConfig(), f.name)
        text = ",".join(map(str, default)) if isinstance(default, tuple) \
            else str(default)
        assert parse(text) == default


def test_readme_table_lists_every_field_with_its_default():
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    table = readme.read_text().split(
        "| key | default | meaning | commands |\n", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|[^|]+\| ([^|]+) \|$",
                      table.split("\n\n")[0], flags=re.MULTILINE)
    fields = dataclasses.fields(RunConfig)
    assert [name for name, _, _ in rows] == [f.name for f in fields]
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for (name, text, listed), f in zip(rows, fields):
        assert config.FIELD_PARSERS[f.type](text.strip()) == \
            getattr(RunConfig(), name), name
        listed = set(re.findall(r"`([\w*-]+)`", listed))
        assert {c for c in commands if c in listed or c.startswith("train-")
                and "train-*" in listed} == \
            {c for c, sub in commands.items()
             if name in {a.dest for a in sub._actions}}, name


def test_make_config_reads_only_the_named_file_settings(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nnum_supra_states = 12\n")
    assert make_config(path, only=("seed",)) == RunConfig(seed=3)
    with pytest.raises(ValueError, match="num_supra_states must lie in"):
        make_config(path)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "alpha = 0.9\n"
        "\n"
        "num_supra_states = 2   # trailing comment\n"
        "num_states = 3\n"
        "length_normalize = yes\n")
    values = parse_config_file(path)
    assert values == {"alpha": 0.9, "num_supra_states": 2,
                      "num_states": 3, "length_normalize": True}


def test_parse_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("states = 3\n")
    with pytest.raises(ValueError, match="unknown setting"):
        parse_config_file(path)


def test_parse_config_file_rejects_bare_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_file(path)


def test_parse_config_file_reports_line_of_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.5\nem_max_iters = soon\n")
    with pytest.raises(ValueError, match=r":2:"):
        parse_config_file(path)


def test_make_config_layering(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.9\nseed = 5\n")
    cfg = make_config(config_path=path, alpha=0.1)
    assert cfg.alpha == 0.1   # explicit override beats the file
    assert cfg.seed == 5      # file beats the default
    assert cfg.num_states == 9


def test_make_config_ignores_none_overrides():
    cfg = make_config(alpha=None, seed=None)
    assert cfg == RunConfig()


def test_make_config_parses_string_overrides():
    cfg = make_config(num_states="3", num_supra_states="1",
                      length_normalize="true")
    assert cfg.num_states == 3
    assert cfg.num_supra_states == 1
    assert cfg.length_normalize is True


def test_make_config_rejects_unknown_override():
    with pytest.raises(ValueError):
        make_config(states=3)


def test_bool_parsing():
    assert config._parse_bool("ON") is True
    assert config._parse_bool("0") is False
    with pytest.raises(ValueError):
        config._parse_bool("maybe")
