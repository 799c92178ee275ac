"""Scenario file parsing and schema validation."""

from __future__ import annotations

import pytest

from urllckit.scenario import (
    Field,
    ScenarioError,
    apply_schema,
    bool_field,
    choice_field,
    float_field,
    int_field,
    list_field,
    parse_kv_file,
    parse_kv_text,
)


def test_parse_kv_text_basic():
    text = """
    # a comment
    alpha = 1
    beta = two words   # trailing comment

    gamma=3
    """
    assert parse_kv_text(text) == {"alpha": "1", "beta": "two words", "gamma": "3"}


def test_parse_kv_text_missing_separator_reports_line():
    with pytest.raises(ScenarioError, match=":3:"):
        parse_kv_text("a = 1\n# fine\nbroken line\n", source="f")


def test_parse_kv_text_duplicate_key():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_kv_text("a = 1\na = 2\n")


def test_parse_kv_text_empty_value():
    with pytest.raises(ScenarioError):
        parse_kv_text("a =\n")


def test_parse_kv_file(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("x = 4\n")
    assert parse_kv_file(p) == {"x": "4"}
    with pytest.raises(ScenarioError, match="cannot read"):
        parse_kv_file(tmp_path / "missing.txt")


_SCHEMA = {
    "count": Field(int_field(1), 3),
    "scale": Field(float_field(0.0, strict=True), 1.0),
    "mode": Field(choice_field(("a", "b")), "a"),
    "pair": Field(list_field(float, 2), (0.0, 1.0)),
    "flag": Field(bool_field(), False),
}


def test_apply_schema_defaults_and_conversion():
    cfg = apply_schema({"count": "7", "flag": "yes"}, _SCHEMA)
    assert cfg == {"count": 7, "scale": 1.0, "mode": "a",
                   "pair": (0.0, 1.0), "flag": True}


def test_apply_schema_unknown_key():
    with pytest.raises(ScenarioError, match="unknown keys: typo"):
        apply_schema({"typo": "1"}, _SCHEMA)


def test_apply_schema_reports_offending_key():
    with pytest.raises(ScenarioError, match="invalid count"):
        apply_schema({"count": "0"}, _SCHEMA)


def test_int_field_bounds():
    conv = int_field(1)
    assert conv("1") == 1
    assert conv("6") == 6
    with pytest.raises(ValueError, match="must be >= 1, got 0"):
        conv("0")


def test_float_field_open_lower_bound():
    conv = float_field(0.0, strict=True)
    assert conv("0.5") == 0.5
    with pytest.raises(ValueError):
        conv("0.0")
    closed = float_field(0.0)
    assert closed("0.0") == 0.0
    with pytest.raises(ValueError):
        float_field(0.0, 1.0)("1.5")


def test_float_field_rejects_nan_and_strict_upper_bound():
    for conv in (float_field(), float_field(0.0), float_field(None, 1.0),
                 float_field(0.0, 1.0, strict=True)):
        with pytest.raises(ValueError):
            conv("nan")
    prob_open = float_field(0.0, 1.0, strict=True)
    assert prob_open("0.5") == 0.5
    with pytest.raises(ValueError):
        prob_open("1.0")
    assert float_field(0.0, 1.0)("1.0") == 1.0


def test_choice_field():
    conv = choice_field(("x", "y"))
    assert conv("x") == "x"
    with pytest.raises(ValueError):
        conv("z")


def test_list_field_length_and_items():
    conv = list_field(int, 3)
    assert conv("1, 2,3") == (1, 2, 3)
    with pytest.raises(ValueError):
        conv("1,2")
    with pytest.raises(ValueError):
        list_field(int)("")


def test_bool_field():
    conv = bool_field()
    for s in ("1", "true", "Yes", "ON"):
        assert conv(s) is True
    for s in ("0", "False", "no", "off"):
        assert conv(s) is False
    with pytest.raises(ValueError):
        conv("maybe")
