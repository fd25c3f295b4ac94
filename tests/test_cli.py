import json
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner

from proofopt import backends
from proofopt.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, **overrides) -> str:
    cfg = {
        "backends": {
            "verifier": {"kind": "mock", "options": {"noop_tactics": ["skip"]}},
            "simplifier": {"kind": "mock", "options": {"mode": "drop_lines"}},
            "repairer": {"kind": "mock", "options": {"mode": "delete_flagged"}},
        },
        "schedule": "4x2",
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


PROOFS = [
    {"id": "p1", "statement": "theorem p1 : 1 = 1", "proof": "  have h : 1 = 1 := rfl\n  skip\n  exact h"},
    {"id": "p2", "statement": "theorem p2 : 2 = 2", "proof": "  norm_num\n  ring\n  skip"},
]


def write_jsonl_file(tmp_path, name, rows) -> str:
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def test_length_files_and_stdin(runner, tmp_path):
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    by_file = runner.invoke(main, ["length", proofs])
    assert by_file.exit_code == 0
    assert by_file.output == "p1\t11\np2\t3\n"
    stdin = runner.invoke(main, ["length"], input=Path(proofs).read_text())
    assert stdin.output == by_file.output

    lean = tmp_path / "one.lean"
    lean.write_text("theorem t : 1 = 1 := by\n  rfl\n")
    raw = runner.invoke(main, ["length", str(lean)])
    assert raw.output == f"{lean}\t1\n"


def test_length_sentinel_for_missing_delimiter(runner, tmp_path):
    rows = [{"id": "bad", "statement": "theorem bad : 1 = 1", "proof": ""}]
    path = tmp_path / "odd.lean"
    path.write_text("theorem nodelim : true\n")
    result = runner.invoke(main, ["length", str(path)])
    assert result.exit_code == 0
    assert f"{path}\t1000000000" in result.output
    del rows


def test_length_rejects_malformed_jsonl(runner, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x"\n')
    result = runner.invoke(main, ["length", str(path)])
    assert result.exit_code == 1


def test_lint_command(runner, tmp_path):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "lint", proofs])
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert all("skip" not in r["proof"] for r in rows)
    assert rows[0]["length"] == 10


def test_lint_needs_verifier_config(runner, tmp_path):
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["lint", proofs])
    assert result.exit_code == 2


def shorten_output(runner, tmp_path, *extra):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, *extra, "shorten", proofs])
    assert result.exit_code == 0, result.output
    return result.output


def test_shorten_deterministic(runner, tmp_path):
    first = shorten_output(runner, tmp_path)
    second = shorten_output(runner, tmp_path)
    assert first == second
    summary = json.loads(first.splitlines()[-1])["summary"]
    assert summary["count"] == 2
    assert summary["mean_after"] <= summary["mean_before"]


def test_shorten_worker_pool_same_output(runner, tmp_path):
    serial = shorten_output(runner, tmp_path)
    parallel = shorten_output(runner, tmp_path, "--workers", "4")
    assert serial == parallel


def test_shorten_respects_schedule_and_seed_flags(runner, tmp_path):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    short = runner.invoke(
        main, ["--config", config, "--seed", "9", "shorten", "--schedule", "2x1", proofs]
    )
    assert short.exit_code == 0
    rows = [json.loads(line) for line in short.output.splitlines()]
    iterations = [r for r in rows if "summary" not in r]
    assert len(iterations) == 2  # one iteration per proof
    assert all(r["k_requested"] == 2 for r in iterations)
    other_seed = runner.invoke(
        main, ["--config", config, "--seed", "10", "shorten", "--schedule", "2x1", proofs]
    )
    assert other_seed.output != short.output


def test_shorten_resume_after_interrupt(runner, tmp_path):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    workdir = tmp_path / "wd"
    args = ["--config", config, "--workdir", str(workdir), "shorten", proofs]
    full = runner.invoke(main, args)
    assert full.exit_code == 0

    # simulate a kill partway through proof p1: drop its second iteration
    trace_file = workdir / "traces" / "p1.jsonl"
    lines = trace_file.read_text().splitlines()
    assert len(lines) == 2
    trace_file.write_text(lines[0] + "\n")

    resumed = runner.invoke(main, args)
    assert resumed.exit_code == 0
    assert resumed.output == full.output
    assert trace_file.read_text().splitlines() == lines


def test_shorten_resume_after_torn_write(runner, tmp_path):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    workdir = tmp_path / "wd"
    args = ["--config", config, "--workdir", str(workdir), "shorten", proofs]
    full = runner.invoke(main, args)
    assert full.exit_code == 0
    trace_file = workdir / "traces" / "p1.jsonl"
    uninterrupted = trace_file.read_bytes()

    # a kill partway through writing p1's second record leaves half a line
    first, second = uninterrupted.splitlines(keepends=True)
    trace_file.write_bytes(first + second[: len(second) // 2])

    resumed = runner.invoke(main, args)
    assert resumed.exit_code == 0
    assert resumed.output == full.output
    assert trace_file.read_bytes() == uninterrupted
    # a further resume finds every record complete and leaves the file alone
    assert runner.invoke(main, args).output == full.output
    assert trace_file.read_bytes() == uninterrupted


def test_shorten_empty_input_is_config_error(runner, tmp_path):
    config = write_config(tmp_path)
    empty = write_jsonl_file(tmp_path, "empty.jsonl", [])
    result = runner.invoke(main, ["--config", config, "shorten", empty])
    assert result.exit_code == 2


def test_shorten_backend_outage_exit_code(runner, tmp_path, monkeypatch):
    def dead_post(*args, **kwargs):
        raise requests.ConnectionError("no route to host")

    monkeypatch.setattr(requests, "post", dead_post)
    monkeypatch.setattr(backends.time, "sleep", lambda s: None)
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "mock"},
            "simplifier": {"kind": "http_simplifier", "endpoint_url": "http://gone", "retries": 2},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "shorten", proofs])
    assert result.exit_code == 3


SAMPLES = [
    {"id": "s1", "original": 40, "scores": [10, 50, 20], "valid": [True, True, False]},
    {"id": "s2", "original": 30, "scores": [5, 7, 30], "valid": [True, True, True]},
]


def test_estimate(runner, tmp_path):
    samples = write_jsonl_file(tmp_path, "samples.jsonl", SAMPLES)
    result = runner.invoke(main, ["estimate", samples, "-k", "1", "-k", "3"])
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert [r["k"] for r in rows] == [1, 3]
    # k=3 takes each proof's best effective score: (10 + 5) / 2
    assert rows[1]["min_at_k"] == pytest.approx(7.5)
    for row in rows:
        assert 0 <= row["red_at_k"] <= 1


def test_estimate_rejects_oversized_k(runner, tmp_path):
    samples = write_jsonl_file(tmp_path, "samples.jsonl", SAMPLES)
    result = runner.invoke(main, ["estimate", samples, "-k", "4"])
    assert result.exit_code == 1


def test_estimate_rejects_ragged_record(runner, tmp_path):
    bad = [{"id": "s", "original": 9, "scores": [1, 2], "valid": [True]}]
    samples = write_jsonl_file(tmp_path, "samples.jsonl", bad)
    result = runner.invoke(main, ["estimate", samples, "-k", "1"])
    assert result.exit_code == 1


def long_proof(n):
    return "\n".join("  rfl" for _ in range(n))


def test_dataset_pipeline(runner, tmp_path):
    seeds = write_jsonl_file(
        tmp_path,
        "seeds.jsonl",
        [
            {"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(10)},
            {"id": "b", "statement": "theorem b : 2 = 2", "proof": long_proof(10)},
        ],
    )
    results = write_jsonl_file(
        tmp_path,
        "results.jsonl",
        [
            {"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(4), "valid": True},
            {"id": "b", "statement": "theorem b : 2 = 2", "proof": long_proof(9), "valid": True},
        ],
    )
    build = runner.invoke(main, ["dataset", "build", "--seeds", seeds, "--results", results])
    assert build.exit_code == 0
    pairs = [json.loads(line) for line in build.output.splitlines()]
    assert len(pairs) == 1  # b misses the ratio gate
    assert pairs[0]["input"]["id"] == "a"

    pairs_file = tmp_path / "pairs.jsonl"
    pairs_file.write_text(build.output)
    sft = runner.invoke(main, ["dataset", "emit-sft", str(pairs_file)])
    assert sft.exit_code == 0
    record = json.loads(sft.output.splitlines()[0])
    assert long_proof(10) in record["meta"]["input_source"]
    assert record["completion"].startswith("```lean4")


def test_dataset_build_requires_verdict(runner, tmp_path):
    seeds = write_jsonl_file(
        tmp_path,
        "seeds.jsonl",
        [{"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(10)}],
    )
    results = write_jsonl_file(
        tmp_path,
        "results.jsonl",
        [{"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(4), "valid": False}],
    )
    result = runner.invoke(main, ["dataset", "build", "--seeds", seeds, "--results", results])
    assert result.exit_code == 1


def test_dataset_filter_trivial(runner, tmp_path):
    proofs = write_jsonl_file(tmp_path, "thms.jsonl", PROOFS)
    easy = write_config(tmp_path, backends={"verifier": {"kind": "mock"}})
    result = runner.invoke(main, ["--config", easy, "dataset", "filter-trivial", proofs])
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "kept 0 discarded 2"

    hard = write_config(
        tmp_path, backends={"verifier": {"kind": "mock", "options": {"fail_token": "AUTO"}}}
    )
    result = runner.invoke(main, ["--config", hard, "dataset", "filter-trivial", proofs])
    # the runner interleaves the stderr tally with stdout; keep the JSON lines
    kept = [json.loads(line) for line in result.output.splitlines() if line.startswith("{")]
    assert [r["id"] for r in kept] == ["p1", "p2"]


def test_reward_command(runner, tmp_path):
    rows = [
        {
            "id": "g",
            "statement": "theorem g : 1 = 1",
            "proof": long_proof(10),
            "candidates": [
                {"proof": long_proof(5), "valid": True},
                {"proof": long_proof(20), "valid": True},
                {"proof": long_proof(2), "valid": False},
            ],
        }
    ]
    groups = write_jsonl_file(tmp_path, "groups.jsonl", rows)
    result = runner.invoke(main, ["reward", groups])
    assert result.exit_code == 0
    group = json.loads(result.output)
    rewards = [e["reward"] for e in group["entries"]]
    assert rewards == pytest.approx([0.5, 0.0, 0.0])
    assert sum(e["advantage"] for e in group["entries"]) == pytest.approx(0.0, abs=1e-12)

    literal = runner.invoke(main, ["reward", groups, "--literal-sign"])
    assert json.loads(literal.output)["entries"][0]["reward"] == pytest.approx(-0.5)


def test_report_corpus_and_csv(runner, tmp_path):
    scores = write_jsonl_file(tmp_path, "scores.jsonl", [{"score": s} for s in (5, 1, 9, 3)])
    csv_path = tmp_path / "stats.csv"
    result = runner.invoke(
        main, ["report", scores, "--kind", "corpus", "--csv", str(csv_path)]
    )
    assert result.exit_code == 0
    row = json.loads(result.output)
    assert row["n"] == 4 and row["min"] == 1 and row["max"] == 9
    assert csv_path.read_text().splitlines()[0] == "n,min,q1,median,q3,max,mean"


def test_report_corpus_accepts_proof_records(runner, tmp_path):
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["report", proofs, "--kind", "corpus"])
    assert result.exit_code == 0
    assert json.loads(result.output)["max"] == 11


def test_report_atk_with_gnuplot(runner, tmp_path):
    samples = write_jsonl_file(tmp_path, "samples.jsonl", SAMPLES)
    csv_path = tmp_path / "atk.csv"
    gp_path = tmp_path / "atk.gp"
    result = runner.invoke(
        main,
        ["report", samples, "--kind", "atk", "-k", "1", "-k", "2",
         "--csv", str(csv_path), "--gnuplot", str(gp_path)],
    )
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == 2
    assert str(csv_path) in gp_path.read_text()


def test_report_repair_reads_traces(runner, tmp_path):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    shortened = runner.invoke(main, ["--config", config, "shorten", proofs])
    traces = tmp_path / "traces.jsonl"
    traces.write_text(shortened.output)
    result = runner.invoke(main, ["report", str(traces), "--kind", "repair"])
    assert result.exit_code == 0
    row = json.loads(result.output)
    assert row["simplify_attempted"] == 16  # 2 proofs x 2 iterations x k=4


def test_report_speedup(runner, tmp_path):
    timings = write_jsonl_file(
        tmp_path, "timings.jsonl", [{"time_orig": 10, "time_new": 4}, {"time_orig": 3, "time_new": 3}]
    )
    result = runner.invoke(main, ["report", timings, "--kind", "speedup"])
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert rows[-1] == {"over_1.1x": 1, "over_1.5x": 1}


def test_report_empty_input(runner, tmp_path):
    empty = write_jsonl_file(tmp_path, "empty.jsonl", [])
    result = runner.invoke(main, ["report", empty, "--kind", "corpus"])
    assert result.exit_code == 2


def test_missing_config_file_rejected_by_click(runner):
    result = runner.invoke(main, ["--config", "/does/not/exist.json", "length"])
    assert result.exit_code != 0
