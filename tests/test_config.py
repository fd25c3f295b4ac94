import json
from dataclasses import asdict

import pytest

from proofopt import prompting
from proofopt.config import RunConfig, parse_schedule
from proofopt.errors import ConfigError, TemplateMissing
from proofopt.prompting import load_template, render
from proofopt.records import Measure, ProofRecord, from_json


def test_parse_schedule():
    assert parse_schedule("4x2") == [(4, 1.0), (4, 1.0)]
    assert parse_schedule("64x2,1024x1@1.5") == [(64, 1.0), (64, 1.0), (1024, 1.5)]
    assert parse_schedule("8x1@0.2") == [(8, 0.2)]


@pytest.mark.parametrize(
    "bad",
    ["", "4", "x2", "4x0", "0x4", "4x2@", "4x2@hot", "4 x 2", "2x1@1.2.3", "2x1@.", "2x1@1..5"],
)
def test_parse_schedule_rejects(bad):
    with pytest.raises(ConfigError):
        parse_schedule(bad)


def test_runconfig_load(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "backends": {"verifier": {"kind": "mock"}},
                "schedule": "8x3",
                "measure": "heartbeats",
            }
        )
    )
    cfg = RunConfig.load(path)
    assert cfg.schedule == "8x3"
    assert cfg.measure is Measure.HEARTBEATS
    assert cfg.backend("verifier").kind == "mock"
    with pytest.raises(ConfigError):
        cfg.backend("simplifier")


def test_runconfig_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    with pytest.raises(ConfigError):
        RunConfig.from_json({"measure": "pages"})


@pytest.mark.parametrize(
    "raw",
    [
        [1, 2],
        {"repair_budget": None},
        {"schedule": 4},
        {"workdir": ["a"]},
        {"repair_budget": -1},
        {"backends": ["verifier"]},
        {"backends": {"verifier": "mock"}},
        {"backends": {"verifier": {"kind": "mock", "timeout": "abc"}}},
        {"backends": {"verifier": {"kind": "mock", "max_parallel": 2.5}}},
        {"backends": {"verifier": {"kind": "mock", "options": []}}},
        {"backends": {"verifier": {"kind": "mock", "timeout": float("nan")}}},
        {"backends": {"verifier": {"kind": "mock", "timeout": float("inf")}}},
        {"backends": {"verifier": {"kind": "mock", "temperature": float("-inf")}}},
        {"backends": {"verifier": {"kind": "mock", "timeout": 1e10}}},
    ],
    ids=["top-level-list", "repair-budget-null", "schedule-number", "workdir-list",
         "negative-repair-budget", "backends-list", "backend-text", "timeout-text",
         "max-parallel-float", "options-list", "timeout-nan", "timeout-infinite",
         "temperature-infinite", "timeout-over-the-wait-limit"],
)
def test_runconfig_rejects_values_of_the_wrong_type(raw):
    with pytest.raises(ConfigError):
        RunConfig.from_json(raw)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_runconfig_repair_takes_a_json_boolean(value):
    """Only JSON true and false are taken, so a "false" string cannot turn repair on."""
    with pytest.raises(ConfigError, match="repair must be true or false"):
        RunConfig.from_json({"repair": value})


def test_runconfig_repair_flag():
    assert RunConfig.from_json({}).repair is False
    assert RunConfig.from_json({"repair": False}).repair is False
    assert RunConfig.from_json({"repair": True}).repair is True


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="repair_budjet"):
        RunConfig.from_json({"repair_budjet": 1})


def test_templates_ship_with_package():
    simplify = load_template("simplify")
    assert "{statement}" in simplify
    repair = load_template("repair")
    for name in ("{formal_statement}", "{lean_proof}", "{error_message_for_prev_round}"):
        assert name in repair
    with pytest.raises(TemplateMissing):
        load_template("does_not_exist")


def test_a_template_is_read_once_per_process(monkeypatch):
    """A second render of a template opens no file; an unknown id is looked
    up, and raises, at every call."""
    fields = {"formal_statement": "s", "lean_proof": "p", "error_message_for_prev_round": "e"}
    first = render("repair", **fields)
    opened = []
    files = prompting.resources.files
    monkeypatch.setattr(prompting.resources, "files", lambda *a: opened.append(a) or files(*a))
    assert render("repair", **fields) == first
    assert opened == []
    for calls in (1, 2):
        with pytest.raises(TemplateMissing):
            load_template("does_not_exist")
        assert len(opened) == calls


def test_render_literal_braces_survive():
    # Lean sources are full of braces; rendering must not treat them as fields
    out = render("simplify", statement="theorem t : {x : ℕ} := by rfl")
    assert "{x : ℕ}" in out
    assert "{statement}" not in out


def test_render_reports_missing_fields():
    with pytest.raises(TemplateMissing):
        render("repair", formal_statement="t")


def test_proof_record_round_trip():
    source = "theorem t (h : a := by cases h) : 1 = 1 := by\n  rfl"
    record = ProofRecord.from_source(source, id="t")
    # splits at the FIRST delimiter, even one buried in a binder
    assert record.statement == "theorem t (h : a"
    again = from_json(ProofRecord, json.loads(json.dumps(asdict(record))), "proof record")
    assert again == ProofRecord(
        id=record.id, statement=record.statement, proof=record.proof
    )
    with pytest.raises(ValueError):
        ProofRecord.from_source("no delimiter here")
