"""The benchmark's own command lines, run in process over mock backends.

bench/run.py's ShortenWorkload.commands builds them; a stub stands in for
the workload's config (mock backends with the benchmark's schedule and
repair budget, not the fake checker and endpoint), input and repair switch.
So a CLI change that would end a benchmark run as failed, a dropped flag or
a renamed option, fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from proofopt.cli import main

from conftest import DATA_DIR, CliRunner

ROOT = Path(__file__).parents[1]
BENCH = ROOT / "bench"
BENCH_MODULES = ("answer_key", "checks", "inputs", "model", "tracing")


@pytest.fixture(scope="module")
def run():
    """bench/run.py as a module; the bench modules it imports by their bare
    names leave sys.path and sys.modules afterwards."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCH))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def stub_workload(run, tmp_path, repair):
    """What commands reads of a ShortenWorkload. With repair every sampled
    candidate fails, so every iteration repairs, as in repair-length."""
    model = run.model
    simplifier = {"mode": "constant", "proof_body": "FAIL"} if repair else {"mode": "drop_lines"}
    backends = {
        "verifier": {"kind": "mock", "max_parallel": model.CONCURRENCY},
        "simplifier": {"kind": "mock", "options": simplifier},
        "repairer": {"kind": "mock", "options": {"mode": "shorter"}},
    }

    def config(directory, run_id):
        path = directory / "config.json"
        path.write_text(json.dumps({
            "backends": backends,
            "schedule": model.SCHEDULE,
            "repair_budget": model.REPAIR_BUDGET,
        }))
        return path

    records = run.inputs.fixture_records(DATA_DIR)
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return SimpleNamespace(config=config, input=path, repair=repair), records


@pytest.mark.parametrize("repair", [False, True], ids=["repair-off", "repair-on"])
def test_the_benchmark_command_lines_run(run, tmp_path, repair):
    workload, records = stub_workload(run, tmp_path, repair)
    oracle = run.checks.load_oracle(ROOT)
    outputs = {}
    for name, argv, output in run.ShortenWorkload.commands(workload, tmp_path, "inv0", oracle):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, (name, result.output)
        outputs[name] = output.read_text(encoding="utf-8")
    assert list(outputs) == ["shorten", "estimate", "atk"]

    rows, summary = run.checks.parse_shorten(outputs["shorten"])
    assert list(rows) == [record["id"] for record in records]
    assert summary["count"] == len(records)
    repaired = [row["repair"] is not None for its in rows.values() for row in its]
    assert all(repaired) if repair else not any(repaired)

    samples = [json.loads(line) for line in (tmp_path / "samples.jsonl").read_text().splitlines()]
    reference = run.checks.reference_atk(samples, run.inputs.ATK_KS)
    for name in ("estimate", "atk"):
        assert run.checks.check_atk(outputs[name], reference, name) == []
