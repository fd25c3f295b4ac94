"""The benchmark's traced run wraps proofopt's functions by attribute name
(bench/tracing.py). This runs that tracer over a mock `proofopt shorten`, so
a rename that would break the traced benchmark fails here first."""

import importlib.util
import json
from pathlib import Path

from proofopt.cli import main

from conftest import CliRunner

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_records_spans_of_a_mock_shorten(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "backends": {
                    "verifier": {"kind": "mock", "options": {"noop_tactics": ["skip"]}},
                    "simplifier": {"kind": "mock", "options": {"mode": "drop_lines"}},
                },
                "schedule": "2x2",
            }
        )
    )
    proofs = tmp_path / "in.jsonl"
    proofs.write_text(
        json.dumps({"id": "p", "statement": "theorem p : 1 = 1", "proof": "  skip\n  rfl"}) + "\n"
    )
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(main, ["--config", str(config), "shorten", str(proofs)])
    finally:
        tracer.uninstall()
    assert result.exit_code == 0, result.output
    names = {span.name for span in tracer.spans}
    assert {"backends.verify", "backends.simplify", "shortener.iteration"} <= names


def test_bench_tracer_records_spans_of_a_mock_repair(tmp_path):
    # every sampled candidate fails, so every iteration repairs and lints
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "backends": {
                    "verifier": {
                        "kind": "mock",
                        "options": {"fail_token": "zeta", "noop_tactics": ["skip"]},
                    },
                    "simplifier": {
                        "kind": "mock",
                        "options": {"mode": "constant", "proof_body": "zeta"},
                    },
                    "repairer": {
                        "kind": "mock",
                        "options": {"mode": "shorter", "proof_body": "skip\n  rfl"},
                    },
                },
                "schedule": "2x2",
                "repair": True,
            }
        )
    )
    proofs = tmp_path / "in.jsonl"
    proofs.write_text(
        json.dumps({"id": "p", "statement": "theorem p : 1 = 1", "proof": "  skip\n  rfl"}) + "\n"
    )
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        result = CliRunner().invoke(main, ["--config", str(config), "shorten", str(proofs)])
    finally:
        tracer.uninstall()
    assert result.exit_code == 0, result.output
    names = {span.name for span in tracer.spans}
    expected = {"backends.repair", "shortener.repair", "linter.lint_fixpoint", "linter.lint_once"}
    assert expected <= names
    # the fix's skip: _lint_once_info reads the count from lint_once's (text, removed)
    assert sum(s.info["removed"] for s in tracer.spans if s.name == "linter.lint_once") >= 1
