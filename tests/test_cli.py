import argparse
import functools
import hashlib
import json
import os
import resource
import shlex
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import pytest

from proofopt import backends, cli, prompting, shortener
from proofopt.cli import main
from proofopt.errors import MalformedInput, ProofOptError, TemplateMissing
from proofopt.mocks import MockSimplifier, MockVerifier
from proofopt.records import ProofRecord, from_json, read_jsonl

from conftest import COMMENT_CHECKER, DATA_DIR, CliRunner, ends, pid_in, python_checker


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, **overrides) -> str:
    cfg = {
        "backends": {
            "verifier": {"kind": "mock", "options": {"noop_tactics": ["skip"]}},
            "simplifier": {"kind": "mock", "options": {"mode": "drop_lines", "seed": 3}},
            "repairer": {"kind": "mock", "options": {"mode": "delete_flagged"}},
        },
        "schedule": "4x2",
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


def test_malformed_input_is_a_toolkit_error():
    assert issubclass(MalformedInput, ProofOptError) and issubclass(MalformedInput, ValueError)
    with pytest.raises(MalformedInput, match="line 2"):
        read_jsonl(['{"id": 1}\n', '{"id"\n'])
    with pytest.raises(MalformedInput, match="proof"):
        from_json(ProofRecord, {"id": "x", "statement": "theorem x : 1 = 1"}, "proof record")


def test_lint_command(runner, tmp_path):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "lint", proofs])
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert all("skip" not in r["proof"] for r in rows)
    assert rows[0]["length"] == 10


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_lint_writes_a_record_that_does_not_verify_unchanged_with_a_note(
    runner, tmp_path, to_file
):
    verifier = {"kind": "mock", "options": {"noop_tactics": ["skip"], "require_token": "norm_num"}}
    config = write_config(tmp_path, backends={"verifier": verifier})
    records = [
        {"id": "a", "statement": "theorem a : 1 = 1", "proof": "  norm_num\n  skip"},
        {"id": "b", "statement": "theorem b : 1 = 1", "proof": "  rfl\n  skip"},
        {"id": "c", "statement": "theorem c : 2 = 2", "proof": "  skip\n  norm_num"},
    ]
    argv = ["--config", config, "lint", write_jsonl_file(tmp_path, "in.jsonl", records)]
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, argv + (["-o", str(out)] if to_file else []))
    assert result.exit_code == 0, result.output
    written = out.read_text() if to_file else result.output
    rows = [json.loads(line) for line in written.splitlines()]
    assert [row["id"] for row in rows] == ["a", "b", "c"]
    assert [row["proof"] for row in rows] == ["  norm_num", "  rfl\n  skip", "  norm_num"]
    assert rows[1]["note"] == shortener.SKIPPED_NOTE
    assert "note" not in rows[0] and "note" not in rows[2]


def test_lint_keeps_a_statement_that_binds_a_flagged_name(runner, tmp_path):
    """The mock flags `skip` in the statement too: lint deletes only the
    body's, and keeps the edit because it proves the same statement."""
    row = {"id": "a", "statement": "theorem t (skip : Nat) : 1 = 1", "proof": "  skip\n  rfl"}
    proofs = write_jsonl_file(tmp_path, "in.jsonl", [row])
    result = runner.invoke(main, ["--config", write_config(tmp_path), "lint", proofs])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {**row, "proof": "  rfl", "length": 1}


def test_lint_writes_a_record_that_is_not_admissible_as_read_after_one_check(
    runner, tmp_path, monkeypatch
):
    """The metric reads the string's '--' as a comment, so the record
    verifies but is not admissible: lint keeps no edit of it."""
    checked = []
    verify = MockVerifier._verify
    monkeypatch.setattr(MockVerifier, "_verify", lambda self, text, *rest: (
        checked.append(text) or verify(self, text, *rest)))
    row = {"id": "a", "statement": "theorem a : 1 = 1", "proof": '  have := "a--b"\n  skip\n  rfl'}
    proofs = write_jsonl_file(tmp_path, "in.jsonl", [row])
    result = runner.invoke(main, ["--config", write_config(tmp_path), "lint", proofs])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {**row, "length": 6}
    assert checked == [ProofRecord(**row).full_source]


def test_lint_checks_a_timed_out_record_once(runner, tmp_path, monkeypatch):
    """The memo keeps no timeout, so the note comes from the check result
    lint_fixpoint returns, not from a second check."""
    checked = []
    verify = MockVerifier._verify
    monkeypatch.setattr(MockVerifier, "_verify", lambda self, text, *rest: (
        checked.append(text) or verify(self, text, *rest)))
    verifier = {"kind": "mock", "options": {"noop_tactics": ["skip"], "timeout_token": "slow"}}
    config = write_config(tmp_path, backends={"verifier": verifier})
    row = {"id": "a", "statement": "theorem a : 1 = 1", "proof": "  slow\n  skip"}
    proofs = write_jsonl_file(tmp_path, "in.jsonl", [row])
    result = runner.invoke(main, ["--config", config, "lint", proofs])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {**row, "length": 2, "note": shortener.SKIPPED_NOTE}
    assert checked == [ProofRecord(**row).full_source]


def _cli_env() -> dict:
    """This environment, with the package's source first on PYTHONPATH."""
    src = Path(backends.__file__).parents[1]
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}


def _cli_process(argv) -> subprocess.Popen:
    """`python -m proofopt.cli argv`, its stderr piped, with the default
    handlers of the signals the CLI handles, which a job started in the
    background may have inherited as ignored."""
    def default_handlers():
        for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
            signal.signal(signum, signal.SIG_DFL)

    return subprocess.Popen(
        [sys.executable, "-m", "proofopt.cli", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_cli_env(),
        preexec_fn=default_handlers,
    )


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM, signal.SIGHUP], ids=lambda signum: signum.name
)
def test_a_signal_to_lint_kills_its_running_checker(tmp_path, signum):
    """A checker runs in its own session, which a signal sent to the CLI's
    group misses: the CLI kills the checker's group itself and then ends as
    the signal's default would, without waiting out the check."""
    pidfile = tmp_path / "sleep.pid"
    template = f"sh -c 'sleep 30 & echo $! > {pidfile}; wait' {{file}}"
    config = write_config(tmp_path, backends={
        "verifier": {"kind": "subprocess_verifier", "command_template": template, "timeout": 60},
    })
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS[:1])
    proc = _cli_process(["--config", config, "lint", proofs])
    try:
        pid_in(pidfile)
        proc.send_signal(signum)
        stderr = proc.communicate(timeout=10)[1].decode()
    finally:
        proc.kill()
        proc.wait()
        ended = ends(pid_in(pidfile))
    assert proc.returncode == -signum, stderr
    assert ended


def test_an_interrupted_shorten_starts_no_further_check(tmp_path):
    """After a Ctrl-C, a proof's loop stops at its next check, not at the
    end of its schedule: the first check passes at once, every later one
    writes its pid and sleeps."""
    marker, pidfile = tmp_path / "checked", tmp_path / "sleep.pid"
    checker = python_checker(tmp_path, f"""\
import os, time
if os.path.exists({str(marker)!r}):
    open({str(pidfile)!r}, "w").write(str(os.getpid()))
    time.sleep(30)
open({str(marker)!r}, "w").close()
""")
    config = write_config(tmp_path, backends={
        "verifier": {"kind": "subprocess_verifier", "command_template": checker, "timeout": 60},
        "simplifier": {"kind": "mock", "options": {"mode": "drop_lines", "seed": 3}},
    })
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS[:1])
    proc = _cli_process(["--config", config, "--workdir", str(tmp_path / "w"), "shorten", proofs])
    try:
        pid_in(pidfile)
        start = time.monotonic()
        proc.send_signal(signal.SIGINT)
        stderr = proc.communicate(timeout=20)[1].decode()
    finally:
        proc.kill()
        proc.wait()
        ended = ends(pid_in(pidfile))
    assert proc.returncode == -signal.SIGINT, stderr
    assert time.monotonic() - start < 10 and ended
    trace = tmp_path / "w" / "traces" / "p1.jsonl"  # a killed check is no crash verdict
    assert not trace.exists() or '"crash"' not in trace.read_text()


@pytest.mark.parametrize("line", [0, 1])
def test_a_checker_error_at_line_0_skips_the_record_as_one_at_line_1(runner, tmp_path, line):
    """A checker message at line 0 reads as line 1, an error like any
    other, so the record is skipped and neither command fails."""
    script = tmp_path / "checker.py"
    script.write_text(f"import sys\nprint(sys.argv[1] + ':{line}:0: error: boom')\n")
    checker = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}}"
    config = write_config(tmp_path, backends={
        "verifier": {"kind": "subprocess_verifier", "command_template": checker},
        "simplifier": {"kind": "mock"},
    })
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS[:1])
    for command in ("shorten", "lint"):
        result = runner.invoke(main, ["--config", config, command, proofs])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output.splitlines()[0])["note"] == shortener.SKIPPED_NOTE


def test_a_statement_ending_in_a_line_comment_renders_to_a_text_that_verifies(runner, tmp_path):
    """The delimiter starts its own line after a `--` comment, so a checker
    that reads the comment to the end of its line sees it."""
    row = {"id": "t", "statement": "theorem t : 1 = 1 -- from a .lean file", "proof": "  rfl"}
    record = ProofRecord(**row)
    assert ProofRecord.from_source(record.full_source, id="t") == record
    config = write_config(tmp_path, backends={
        "verifier": {"kind": "subprocess_verifier",
                     "command_template": python_checker(tmp_path, COMMENT_CHECKER)},
    })
    proofs = write_jsonl_file(tmp_path, "in.jsonl", [row])
    result = runner.invoke(main, ["--config", config, "lint", proofs])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {**row, "length": 1}


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


TACTICS = ["skip", "norm_num", "key", "ring", "skip", "simp", "rfl"]
def numbered_proofs(count: int) -> list[dict]:
    """count input rows q1, q2, ..., each proof a different mix of TACTICS."""
    return [
        {"id": f"q{i}", "statement": f"theorem q{i} : {i} = {i}",
         "proof": "\n".join(f"  {t}" for t in TACTICS[i % 3:] + TACTICS[:i // 2])}
        for i in range(1, count + 1)
    ]


MORE_PROOFS = numbered_proofs(6)


def slotted_config(tmp_path, max_parallel, **options) -> str:
    """write_config with every backend at max_parallel slots, and each
    role's mock options from options when given."""
    defaults = {
        "verifier": {"noop_tactics": ["skip"]},
        "simplifier": {"mode": "drop_lines", "seed": 3},
        "repairer": {"mode": "delete_flagged"},
    }
    backends = {
        role: {"kind": "mock", "max_parallel": max_parallel, "options": options.get(role, default)}
        for role, default in defaults.items()
    }
    return write_config(tmp_path, backends=backends)


def test_shorten_worker_pool_same_output(runner, tmp_path):
    """Stdout and every trace file are the same whether the backends run one
    call at a time or four, so that two proofs run at once or all six."""
    proofs = write_jsonl_file(tmp_path, "in.jsonl", MORE_PROOFS)
    # candidates that drop the line `key` fail, so some iterations repair
    options = {
        "verifier": {"require_token": "key", "noop_tactics": ["skip"]},
        "simplifier": {"mode": "drop_lines", "drop_probability": 0.85, "seed": 3},
        "repairer": {"mode": "shorter", "proof_body": "key\n  skip\n  ring"},
    }
    runs = []
    for max_parallel in (1, 4):
        config = slotted_config(tmp_path, max_parallel, **options)
        workdir = tmp_path / f"wd{max_parallel}"
        result = runner.invoke(main, ["--config", config, "--workdir", str(workdir),
                                      "shorten", "--repair", "on", proofs])
        assert result.exit_code == 0, result.output
        traces = {p.name: p.read_text() for p in sorted((workdir / "traces").iterdir())}
        runs.append((result.output, traces))
    assert len(runs[0][1]) == len(MORE_PROOFS)
    assert runs[0] == runs[1]
    rows = [json.loads(line) for line in runs[0][0].splitlines()]
    assert sum(1 for row in rows if row.get("repair")) >= 2  # the repair stage ran


class GatedSimplifier(MockSimplifier):
    """Holds its first request until another proof's check is seen."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.lock = threading.Lock()
        self.held = None  # the statement of the held request
        self.other_checked = threading.Event()
        self.released_by_check = None

    def _simplify(self, source, k, temperature):
        head = source.partition(":= by")[0]
        with self.lock:
            first = self.held is None
            if first:
                self.held = head
        if first:
            self.released_by_check = self.other_checked.wait(3)
        return super()._simplify(source, k, temperature)


def test_shorten_checks_one_proof_while_another_waits_on_its_generator(
    runner, tmp_path, monkeypatch
):
    config = slotted_config(tmp_path, 1)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    simplifier = None

    def gated(cfg):
        nonlocal simplifier
        simplifier = GatedSimplifier(cfg)
        return simplifier

    class SignallingVerifier(MockVerifier):
        def _verify(self, source, want_heartbeats):
            with simplifier.lock:
                held = simplifier.held
            if held is not None and held.strip() not in source:
                simplifier.other_checked.set()
            return super()._verify(source, want_heartbeats)

    monkeypatch.setattr("proofopt.cli.make_simplifier", gated)
    monkeypatch.setattr("proofopt.cli.make_verifier", SignallingVerifier)
    result = runner.invoke(main, ["--config", config, "shorten", proofs])
    assert result.exit_code == 0, result.output
    assert simplifier.released_by_check


@pytest.mark.parametrize(
    "records,max_parallel,repair,widest",
    [(6, 1, "off", 6), (6, 1, "on", 6), (3, 4, "off", 3), (12, 1, "off", 8)],
    ids=["6-records-1+1", "6-records-1+1+1", "3-records-4+4", "12-records-1+1"],
)
def test_shorten_runs_as_many_proofs_as_slots_or_records(
    runner, tmp_path, monkeypatch, records, max_parallel, repair, widest
):
    """Up to four proofs per backend slot start at once: admission, not the
    proof pool, limits the calls in flight, and a longer input waits."""
    config = slotted_config(tmp_path, max_parallel)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", numbered_proofs(records))
    lock = threading.Lock()
    running = peak = 0
    loop = cli.shorten_loop

    def counted(*args, **kwargs):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        try:
            time.sleep(0.2)  # time for every pool thread to start a proof
            return loop(*args, **kwargs)
        finally:
            with lock:
                running -= 1

    monkeypatch.setattr(cli, "shorten_loop", counted)
    result = runner.invoke(main, ["--config", config, "shorten", "--repair", repair, proofs])
    assert result.exit_code == 0, result.output
    assert peak == widest


def test_shorten_threads_are_one_per_record_and_each_backends_pool(
    runner, tmp_path, monkeypatch
):
    """A repairing run over 12 records with max_parallel 2 lives on the main
    thread, one thread per proof and at most 2 pool threads per backend; no
    pool thread outlives the command."""
    proofs = write_jsonl_file(tmp_path, "in.jsonl", numbered_proofs(12))
    # candidates that drop the line `key` fail, so iterations repair
    config = slotted_config(tmp_path, 2, **{
        "verifier": {"require_token": "key", "noop_tactics": ["skip"]},
        "simplifier": {"mode": "drop_lines", "drop_probability": 0.85, "seed": 3},
        "repairer": {"mode": "shorter", "proof_body": "key\n  skip\n  ring"},
    })
    start = threading.active_count()
    peak = 0
    verify, repair = backends.Verifier.verify, backends.Repairer.repair

    def counted(call):
        def wrapper(*args, **kwargs):
            nonlocal peak
            peak = max(peak, threading.active_count())
            time.sleep(0.01)  # time for the other proofs to start their calls
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(backends.Verifier, "verify", counted(verify))
    monkeypatch.setattr(backends.Repairer, "repair", counted(repair))
    result = runner.invoke(main, ["--config", config, "shorten", "--repair", "on", proofs])
    assert result.exit_code == 0, result.output
    assert '"repair": {' in result.output  # the repair stage ran
    assert start + 12 < peak <= start + 12 + 2 * 3
    assert threading.active_count() == start


def test_shorten_holds_open_files_for_only_the_proofs_it_runs(tmp_path):
    """Each running proof holds its trace file open, so a workdir run over
    more records than the process may open files still ends cleanly."""
    limit = 32
    proofs = write_jsonl_file(tmp_path, "in.jsonl", numbered_proofs(4 * limit))
    config = slotted_config(tmp_path, 1)
    src = Path(backends.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}

    def few_files():
        hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
        resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))

    out = subprocess.run(
        [sys.executable, "-m", "proofopt.cli", "--config", config,
         "--workdir", str(tmp_path / "wd"), "shorten", proofs],
        capture_output=True, text=True, env=env, preexec_fn=few_files, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert len(list((tmp_path / "wd" / "traces").iterdir())) == 4 * limit


class SlowVerifier(MockVerifier):
    """Takes 50 ms a check, and proves no odd-numbered theorem by automation."""

    def _verify(self, source, want_heartbeats):
        time.sleep(0.05)
        if "AUTO" in source and int(source.split("theorem q")[1][0]) % 2:
            return backends.Verdict(backends.VerdictStatus.INVALID)
        return super()._verify(source, want_heartbeats)


@pytest.mark.parametrize(
    "command,ids",
    [(["lint"], ["q1", "q2", "q3", "q4", "q5", "q6"]),
     (["dataset", "filter-trivial"], ["q1", "q3", "q5"])],
    ids=["lint", "filter-trivial"],
)
def test_lint_and_filter_trivial_use_every_verifier_slot(
    runner, tmp_path, monkeypatch, command, ids
):
    config = slotted_config(tmp_path, 2)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", MORE_PROOFS)
    verifiers = []

    def slow(cfg):
        verifiers.append(SlowVerifier(cfg))
        return verifiers[-1]

    monkeypatch.setattr("proofopt.cli.make_verifier", slow)
    result = runner.invoke(main, ["--config", config, *command, proofs])
    assert result.exit_code == 0, result.output
    assert verifiers[0].admission.max_observed == 2
    rows = [json.loads(line) for line in result.output.splitlines() if line.startswith("{")]
    assert [row["id"] for row in rows] == ids  # in input order


@pytest.mark.parametrize("command", [["lint"], ["dataset", "filter-trivial"]])
def test_lint_and_filter_trivial_of_an_empty_input_start_no_pool(
    runner, tmp_path, monkeypatch, command
):
    config = slotted_config(tmp_path, 2)
    empty = write_jsonl_file(tmp_path, "empty.jsonl", [])

    def no_thread(*args, **kwargs):
        raise AssertionError("a pool thread was started")

    monkeypatch.setattr(ThreadPoolExecutor, "_adjust_thread_count", no_thread)
    result = runner.invoke(main, ["--config", config, *command, empty])
    assert result.exit_code == 0, result.output
    assert not [line for line in result.output.splitlines() if line.startswith("{")]


@pytest.mark.parametrize(
    "command",
    [["lint"], ["shorten", "--repair", "on"], ["dataset", "filter-trivial"]],
    ids=["lint", "shorten-repair", "filter-trivial"],
)
def test_every_check_goes_through_a_verdict_memo(runner, tmp_path, monkeypatch, command):
    """VerdictMemo.verify is the one caller of Verifier.verify: a check made
    outside a memo's call, on any thread, is recorded."""
    proofs = write_jsonl_file(tmp_path, "in.jsonl", MORE_PROOFS)
    # candidates that drop the line `key` fail, and their repairs lint away `skip`
    config = slotted_config(tmp_path, 2, **{
        "verifier": {"require_token": "key", "noop_tactics": ["skip"]},
        "simplifier": {"mode": "drop_lines", "drop_probability": 0.85},
        "repairer": {"mode": "shorter", "proof_body": "key\n  skip\n  ring"},
    })
    in_memo = threading.local()
    checks, stray, fixpoints = [], [], []
    memo_verify = backends.VerdictMemo.verify
    verifier_verify = backends.Verifier.verify
    lint_fixpoint = shortener.lint_fixpoint

    def through_memo(self, source):
        in_memo.on = True
        try:
            return memo_verify(self, source)
        finally:
            in_memo.on = False

    def check(self, source, *args, **kwargs):
        (checks if getattr(in_memo, "on", False) else stray).append(source)
        return verifier_verify(self, source, *args, **kwargs)

    def counted_fixpoint(*args, **kwargs):
        fixpoints.append(args[0])
        return lint_fixpoint(*args, **kwargs)

    monkeypatch.setattr(backends.VerdictMemo, "verify", through_memo)
    monkeypatch.setattr(backends.Verifier, "verify", check)
    monkeypatch.setattr(shortener, "lint_fixpoint", counted_fixpoint)
    result = runner.invoke(main, ["--config", config, *command, proofs])
    assert result.exit_code == 0, result.output
    assert checks and not stray
    if "shorten" in command:
        assert fixpoints  # the repair stage linted a fix


def test_shorten_respects_schedule_and_seed_flags(runner, tmp_path):
    """--schedule sets the iterations; the simplifier's seed option sets its
    samples, so one seed gives the same output twice and two seeds differ."""
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)

    def shorten(seed):
        config = slotted_config(tmp_path, 4, simplifier={"mode": "drop_lines", "seed": seed})
        return runner.invoke(main, ["--config", config, "shorten", "--schedule", "2x1", proofs])

    short = shorten(9)
    assert short.exit_code == 0
    rows = [json.loads(line) for line in short.output.splitlines()]
    iterations = [r for r in rows if "summary" not in r]
    assert len(iterations) == 2  # one iteration per proof
    assert all(r["k_requested"] == 2 for r in iterations)
    assert shorten(9).output == short.output
    assert shorten(10).output != short.output


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


def test_shorten_resume_of_an_unnormalised_record_is_byte_identical(runner, tmp_path):
    """Every iteration starts from the incumbent's text as it was checked,
    the first from the input's, trailing space and leading blank line kept,
    so a resume checks and records the same text as an uninterrupted run."""
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "mock"},
            "simplifier": {"kind": "mock", "options": {"mode": "echo"}},
        },
        schedule="1x2",
    )
    row = {"id": "a", "statement": "theorem a : 1 = 1 ", "proof": "\n  norm_num\n  rfl"}
    proofs = write_jsonl_file(tmp_path, "in.jsonl", [row])
    workdir = tmp_path / "wd"
    args = ["--config", config, "--workdir", str(workdir), "shorten", proofs]
    full = runner.invoke(main, args)
    assert full.exit_code == 0, full.output
    trace_file = workdir / "traces" / "a.jsonl"
    uninterrupted = trace_file.read_bytes()
    first, _ = uninterrupted.splitlines(keepends=True)
    assert json.loads(first)["source_after"] == "theorem a : 1 = 1  := by\n\n  norm_num\n  rfl"

    trace_file.write_bytes(first)
    resumed = runner.invoke(main, args)
    assert resumed.exit_code == 0, resumed.output
    assert resumed.output == full.output
    assert trace_file.read_bytes() == uninterrupted


def test_a_skipped_proof_is_checked_once_and_resumes_without_a_check(
    runner, tmp_path, monkeypatch
):
    """An input whose check times out is checked once: each later row of its
    schedule is written as skipped without a check, and so is each row that
    a resume adds, so the resumed trace is byte-identical."""
    config = write_config(tmp_path, backends={
        "verifier": {"kind": "mock", "options": {"timeout_token": "slow"}},
        "simplifier": {"kind": "mock"},
    }, schedule="2x4")
    proofs = write_jsonl_file(tmp_path, "in.jsonl", [
        {"id": "a", "statement": "theorem a : 1 = 1", "proof": "  slow\n  skip"}
    ])
    verifiers = []

    def counting(cfg):
        verifiers.append(MockVerifier(cfg))
        return verifiers[-1]

    monkeypatch.setattr("proofopt.cli.make_verifier", counting)
    workdir = tmp_path / "wd"
    args = ["--config", config, "--workdir", str(workdir), "shorten", proofs]
    full = runner.invoke(main, args)
    assert full.exit_code == 0, full.output
    assert verifiers[0].calls == 1
    trace_file = workdir / "traces" / "a.jsonl"
    uninterrupted = trace_file.read_bytes()
    lines = uninterrupted.splitlines(keepends=True)
    assert [json.loads(line)["index"] for line in lines] == [0, 1, 2, 3]
    assert all(json.loads(line)["note"] == cli.SKIPPED_NOTE for line in lines)

    trace_file.write_bytes(b"".join(lines[:2]))
    resumed = runner.invoke(main, args)
    assert resumed.exit_code == 0, resumed.output
    assert verifiers[1].calls == 0
    assert resumed.output == full.output
    assert trace_file.read_bytes() == uninterrupted


def test_a_resume_whose_first_check_times_out_sums_up_as_an_uninterrupted_run(
    runner, tmp_path, monkeypatch
):
    """A resumed proof starts from its last row's incumbent and score, not
    from a check of it: a first check that times out costs a candidate, not
    the incumbent, so no row is skipped and the summary counts no made-up
    reduction."""
    config = write_config(tmp_path, schedule="2x2")
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS[:1])
    workdir = tmp_path / "wd"
    args = ["--config", config, "--workdir", str(workdir), "shorten", proofs]
    full = runner.invoke(main, args)
    assert full.exit_code == 0, full.output
    trace_file = workdir / "traces" / "p1.jsonl"
    trace_file.write_bytes(trace_file.read_bytes().splitlines(keepends=True)[0])

    class TimesOutOnce(MockVerifier):
        def _verify(self, source, want_heartbeats):
            if self.calls == 0:
                self.calls += 1
                return backends.Verdict(backends.VerdictStatus.TIMEOUT)
            return super()._verify(source, want_heartbeats)

    monkeypatch.setattr("proofopt.cli.make_verifier", TimesOutOnce)
    resumed = runner.invoke(main, args)
    assert resumed.exit_code == 0, resumed.output
    *rows, summary = [json.loads(line) for line in resumed.output.splitlines()]
    assert [row["note"] for row in rows] == ["", ""]
    assert rows[1]["score_before"] == rows[0]["score_after"] > 0
    assert summary == json.loads(full.output.splitlines()[-1])
    assert summary["summary"]["mean_reduction"] == 0.0


# under seed 6 no later candidate is the first row's incumbent; under seed 3
# the incumbent is 3 of the later rows' candidates
@pytest.mark.parametrize("seed,incumbent_sampled", [(6, False), (3, True)])
def test_a_resume_makes_no_check_of_its_incumbent(
    runner, tmp_path, monkeypatch, seed, incumbent_sampled
):
    """A resumed run checks only the candidates of the rows it adds other
    than its incumbent, each once, and writes what the uninterrupted run
    wrote."""
    config = write_config(tmp_path, schedule="4x3", backends={
        "verifier": {"kind": "mock", "options": {"noop_tactics": ["skip"]}},
        "simplifier": {"kind": "mock", "options": {"mode": "drop_lines", "seed": seed}},
    })
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS[:1])
    checked = []

    class Recording(MockVerifier):
        def _verify(self, source, want_heartbeats):
            checked.append(source)
            return super()._verify(source, want_heartbeats)

    monkeypatch.setattr("proofopt.cli.make_verifier", Recording)
    workdir = tmp_path / "wd"
    args = ["--config", config, "--workdir", str(workdir), "shorten", proofs]
    full = runner.invoke(main, args)
    assert full.exit_code == 0, full.output
    trace_file = workdir / "traces" / "p1.jsonl"
    uninterrupted = trace_file.read_bytes()
    lines = uninterrupted.splitlines(keepends=True)
    trace_file.write_bytes(lines[0])

    checked.clear()
    resumed = runner.invoke(main, args)
    assert resumed.exit_code == 0, resumed.output
    incumbent = json.loads(lines[0])["source_after"]
    candidates = {c["text"] for line in lines[1:] for c in json.loads(line)["candidates"]}
    assert (incumbent in candidates) == incumbent_sampled
    assert sorted(checked) == sorted(candidates - {incumbent})
    assert resumed.output == full.output
    assert trace_file.read_bytes() == uninterrupted


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


def test_shorten_resume_with_a_shorter_schedule_trims_the_traces(runner, tmp_path):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)

    def run(workdir, schedule):
        args = ["--config", config, "--workdir", str(tmp_path / workdir), "shorten", proofs]
        result = runner.invoke(main, [*args, "--schedule", schedule])
        assert result.exit_code == 0, result.output
        return result.output

    run("wd", "2x4")
    resumed = run("wd", "2x2")
    assert resumed == run("fresh", "2x2")
    for proof in PROOFS:
        name = f"traces/{proof['id']}.jsonl"
        assert (tmp_path / "wd" / name).read_text() == (tmp_path / "fresh" / name).read_text()


def test_shorten_resume_under_a_changed_schedule_redoes_the_iterations_that_differ(
    runner, tmp_path
):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)

    def run(workdir, schedule):
        args = ["--config", config, "--workdir", str(tmp_path / workdir), "shorten", proofs]
        result = runner.invoke(main, [*args, "--schedule", schedule])
        assert result.exit_code == 0, result.output
        return result.output

    run("wd", "2x2")
    resumed = run("wd", "5x2@0.5")
    rows = [json.loads(line) for line in resumed.splitlines()]
    assert {(r["k_requested"], r["temperature"]) for r in rows if "summary" not in r} == {(5, 0.5)}
    assert resumed == run("fresh", "5x2@0.5")
    for proof in PROOFS:
        name = f"traces/{proof['id']}.jsonl"
        assert (tmp_path / "wd" / name).read_text() == (tmp_path / "fresh" / name).read_text()
    # a schedule that keeps the first iteration reuses it and redoes the second
    run("wd", "5x1@0.5,3x1@0.5")
    lines = (tmp_path / "wd" / "traces" / "p1.jsonl").read_text().splitlines()
    assert [json.loads(line)["k_requested"] for line in lines] == [5, 3]
    assert lines[0] == (tmp_path / "fresh" / "traces" / "p1.jsonl").read_text().splitlines()[0]


def test_shorten_resume_under_a_changed_statement_redoes_the_proof(runner, tmp_path):
    """A changed statement changes the input's full_source, so its trace is
    redone from the start."""
    config = write_config(tmp_path)

    def run(workdir, statement):
        row = {"id": "p", "statement": statement, "proof": "  norm_num\n  ring\n  skip"}
        proofs = write_jsonl_file(tmp_path, "in.jsonl", [row])
        args = ["--config", config, "--workdir", str(tmp_path / workdir), "shorten", proofs]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return result.output

    trace_file = tmp_path / "wd" / "traces" / "p.jsonl"
    run("wd", "theorem p : 1 = 1")
    resumed = run("wd", "theorem p : 2 = 2")
    assert "1 = 1" not in resumed
    assert resumed == run("fresh", "theorem p : 2 = 2")
    fresh = (tmp_path / "fresh" / "traces" / "p.jsonl").read_text()
    assert trace_file.read_text() == fresh


RESUMED_ROW = {"id": "p", "statement": "theorem p : 1 = 1",
               "proof": "  simp\n  linarith\n  omega\n  decide"}


def _shorten_in(runner, tmp_path, workdir, row, *flags, **config) -> str:
    """shorten's output for row alone, on the 2x2 schedule, in workdir, under
    write_config's config with the overrides config."""
    proofs = write_jsonl_file(tmp_path, "in.jsonl", [row])
    args = ["--config", write_config(tmp_path, **config), "--workdir", str(tmp_path / workdir),
            "shorten", "--schedule", "2x2", *flags, proofs]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


@pytest.mark.parametrize("first,flags", [
    ({"proof": "  norm_num\n  ring\n  skip"}, []),
    ({}, ["--measure", "heartbeats"]),
], ids=["proof", "measure"])
def test_shorten_resume_redoes_a_proof_whose_input_or_measure_changed(
    runner, tmp_path, first, flags
):
    """A trace is resumed only by a run of the input and measure that made
    it, which inputs/<id>.json names; otherwise it is redone from the start."""
    _shorten_in(runner, tmp_path, "wd", {**RESUMED_ROW, **first})
    resumed = _shorten_in(runner, tmp_path, "wd", RESUMED_ROW, *flags)
    assert resumed == _shorten_in(runner, tmp_path, "fresh", RESUMED_ROW, *flags)
    for name in ("traces/p.jsonl", "inputs/p.json"):
        assert (tmp_path / "wd" / name).read_text() == (tmp_path / "fresh" / name).read_text()
    made = json.loads((tmp_path / "wd" / "inputs" / "p.json").read_text())
    measure = "heartbeats" if flags else "length"
    raw = json.loads(Path(write_config(tmp_path)).read_text())["backends"]
    built = {role: {k: v for k, v in asdict(backends.BackendConfig(**raw[role])).items()
                    if k != "max_parallel"} for role in ("verifier", "simplifier")}
    assert made == {"full_source": ProofRecord(**RESUMED_ROW).full_source, "measure": measure,
                    "backends": built}


@pytest.mark.parametrize("changed,resumed", [
    ({"simplifier": {"kind": "mock", "options": {"mode": "drop_lines", "seed": 4}}}, False),
    ({"simplifier": {"kind": "mock", "max_parallel": 1,
                     "options": {"mode": "drop_lines", "seed": 3}}}, True),
], ids=["seed", "max-parallel"])
def test_shorten_resume_redoes_a_proof_whose_backend_config_changed(
    runner, tmp_path, monkeypatch, changed, resumed
):
    """inputs/<id>.json holds the config of each backend the run builds, but
    for max_parallel: a changed mock seed redoes the proof as a fresh run
    with that seed does, and a changed width alone resumes it."""
    first = _shorten_in(runner, tmp_path, "wd", RESUMED_ROW)
    raw = json.loads(Path(write_config(tmp_path)).read_text())["backends"]
    calls = []
    simplify = MockSimplifier._simplify
    monkeypatch.setattr(MockSimplifier, "_simplify", lambda *a: calls.append(a) or simplify(*a))
    rerun = _shorten_in(runner, tmp_path, "wd", RESUMED_ROW, backends={**raw, **changed})
    assert bool(calls) is not resumed and (rerun == first) is resumed
    assert rerun == _shorten_in(runner, tmp_path, "fresh", RESUMED_ROW, backends={**raw, **changed})
    for name in ("traces/p.jsonl", "inputs/p.json"):
        assert (tmp_path / "wd" / name).read_text() == (tmp_path / "fresh" / name).read_text()


def test_shorten_resume_without_inputs_redoes_the_proof(runner, tmp_path):
    """A workdir without inputs/, as a run that did not write it leaves one,
    cannot tell what made its traces, so each proof is redone."""
    _shorten_in(runner, tmp_path, "wd", {**RESUMED_ROW, "proof": "  norm_num\n  ring\n  skip"})
    shutil.rmtree(tmp_path / "wd" / "inputs", ignore_errors=True)
    resumed = _shorten_in(runner, tmp_path, "wd", RESUMED_ROW)
    assert resumed == _shorten_in(runner, tmp_path, "fresh", RESUMED_ROW)
    for name in ("traces/p.jsonl", "inputs/p.json"):
        assert (tmp_path / "wd" / name).read_text() == (tmp_path / "fresh" / name).read_text()


# Runs the CLI on argv[3:] with MockVerifier killing its own process at the
# argv[1]th check (never for 0), and writes the checks started to argv[2].
KILL_AT_CHECK = """\
import os, signal, sys, threading
from proofopt import cli
from proofopt.mocks import MockVerifier

nth, count_file = int(sys.argv[1]), sys.argv[2]
calls, lock, verify = [0], threading.Lock(), MockVerifier._verify

def killing(self, *args):
    with lock:
        calls[0] += 1
        if calls[0] == nth:
            os.kill(os.getpid(), signal.SIGKILL)
    return verify(self, *args)

MockVerifier._verify = killing
try:
    cli.main(sys.argv[3:])
finally:
    with open(count_file, "w") as handle:
        handle.write(str(calls[0]))
"""


def test_shorten_resumes_byte_for_byte_after_a_kill_at_any_check(tmp_path):
    """A run SIGKILLed at its Nth check, then rerun, prints what an
    uninterrupted run prints and leaves the same workdir files, for every N
    up to the uninterrupted run's check count; some iterations repair."""
    names = ["mathd_algebra_338_orig", "putnam_1990_a1_orig", "extracted_len158"]
    records = [ProofRecord.from_source((DATA_DIR / f"{name}.lean").read_text(), id=name)
               for name in names]
    proofs = write_jsonl_file(tmp_path, "in.jsonl", [asdict(record) for record in records])
    # a candidate that drops every norm_num line fails, and the repairer runs
    config = slotted_config(tmp_path, 2, verifier={"require_token": "norm_num"},
                            simplifier={"mode": "drop_lines", "drop_probability": 0.7, "seed": 3})
    wrapper, count = tmp_path / "kill_at_check.py", tmp_path / "count"
    wrapper.write_text(KILL_AT_CHECK)

    def run(nth: int, workdir: str) -> subprocess.CompletedProcess:
        argv = [sys.executable, str(wrapper), str(nth), str(count), "--config", config,
                "--workdir", str(tmp_path / workdir), "shorten", "--schedule", "2x4",
                "--repair", "on", proofs]
        return subprocess.run(argv, capture_output=True, env=_cli_env(), timeout=60)

    def files(workdir: str) -> dict:
        root = tmp_path / workdir
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    full = run(0, "full")
    assert full.returncode == 0, full.stderr
    assert sum(1 for line in full.stdout.splitlines() if json.loads(line).get("repair")) >= 2
    checks = int(count.read_text())
    assert checks >= 10
    for nth in range(1, checks + 1):
        workdir = f"killed{nth}"
        assert run(nth, workdir).returncode == -signal.SIGKILL
        resumed = run(0, workdir)
        assert (resumed.returncode, resumed.stdout) == (0, full.stdout), (nth, resumed.stderr)
        assert files(workdir) == files("full"), nth


def test_shorten_schedule_uses_the_simplifier_temperature(runner, tmp_path):
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "mock"},
            "simplifier": {"kind": "mock", "temperature": 0.3, "options": {"mode": "drop_lines"}},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS[:1])
    args = ["--config", config, "shorten", "--schedule", "2x1,2x1@1.5", proofs]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert [r["temperature"] for r in rows if "summary" not in r] == [0.3, 1.5]


def test_unknown_run_config_key_exit_code(runner, tmp_path):
    """A misspelt key, or parallel_workers or seed, which are gone: a mock's
    seed is one of its options."""
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    for key in ("repair_budjet", "parallel_workers", "seed"):
        config = write_config(tmp_path, **{key: 2})
        result = runner.invoke(main, ["--config", config, "shorten", proofs])
        assert result.exit_code == 2
        assert result.output == f"error: run config has unknown keys: ['{key}']\n"


@pytest.mark.parametrize("role,typo", [("verifier", "fail_tokn"),
                                       ("simplifier", "drop_probabilty"),
                                       ("repairer", "paddding")])
def test_a_misspelt_mock_option_exits_with_one_error_line_naming_it(runner, tmp_path, role, typo):
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    config = slotted_config(tmp_path, 1, **{role: {typo: 2}})
    result = runner.invoke(main, ["--config", config, "shorten", "--repair", "on", proofs])
    assert result.exit_code == 2
    assert result.output == f"error: mock options has unknown keys: ['{typo}']\n"


@pytest.mark.parametrize(
    "overrides",
    [
        {"repair_budget": "x"},
        {"backends": {"verifier": {"kind": "mock", "timeout": "abc"}}},
        {"backends": {"verifier": {"kind": "mock", "retries": 0}}},
        {"backends": {"verifier": {"kind": "mock"},
                      "simplifier": {"kind": "http_simplifier", "options": {"seed": 3}}}},
    ],
    ids=["run-config", "backend-config", "retries-below-one", "options-on-a-real-kind"],
)
def test_config_value_of_the_wrong_type_exit_code(runner, tmp_path, overrides):
    config = write_config(tmp_path, **overrides)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "lint", proofs])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and len(result.output.splitlines()) == 1


@pytest.mark.parametrize(
    "role,value,message",
    [
        ("verifier", {"timeout": 0},
         f"timeout must be positive and at most {backends._TIMEOUT_MAX} seconds"),
        ("simplifier", {"max_parallel": 0}, "max_parallel must be at least 1"),
        ("repairer", {"retries": 0}, "retries must be at least 1"),
        ("simplifier", {"top_p": 0}, "top_p must be in (0, 1]"),
        ("simplifier", {"kind": "http_simplifier", "options": {"seed": 3}},
         "options are read only by kind 'mock', not 'http_simplifier'"),
    ],
    ids=["timeout", "max_parallel", "retries", "top_p", "options"],
)
def test_a_backend_config_error_names_its_role(runner, tmp_path, role, value, message):
    roles = {name: {"kind": "mock"} for name in ("verifier", "simplifier", "repairer")}
    config = write_config(tmp_path, backends={**roles, role: {**roles[role], **value}})
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "lint", proofs])
    assert result.exit_code == 2
    assert result.output == f"error: run config backends {role}: {message}\n"


@pytest.mark.parametrize(
    "flags,overrides",
    [(["--schedule", "2x1@1.2.3"], {}), (["--schedule", "2x1@."], {}), ([], {"schedule": "2x1@1..5"})],
    ids=["flag-two-points", "flag-point-only", "config-double-point"],
)
def test_malformed_schedule_temperature_exit_code(runner, tmp_path, flags, overrides):
    config = write_config(tmp_path, **overrides)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "shorten", *flags, proofs])
    assert result.exit_code == 2
    assert result.output.startswith("error: bad schedule entry")
    assert len(result.output.splitlines()) == 1


@pytest.mark.parametrize("ids,workdir,error", [
    (["a b", "a_b"], True, "ids 'a b' and 'a_b' share the trace file"),
    (["a", "a"], True, "in.jsonl: id 'a' is given twice"),
    (["a", "a"], False, "in.jsonl: id 'a' is given twice"),
], ids=["same-name", "repeated", "repeated-no-workdir"])
def test_shorten_ids_sharing_a_trace_file_exit_code(
    runner, tmp_path, monkeypatch, ids, workdir, error
):
    """Distinct ids that share a trace file, and an id given twice, with or
    without --workdir, exit 1 with one error line before any backend is
    built: a repeated id's output would hold a proof's iterations twice,
    which reward and report refuse."""
    def unbuilt(cfg):
        raise AssertionError("a backend was built")

    for factory in ("make_verifier", "make_simplifier", "make_repairer"):
        monkeypatch.setattr(f"proofopt.cli.{factory}", unbuilt)
    config = write_config(tmp_path, repair=True)
    rows = [dict(PROOFS[0], id=ids[0]), dict(PROOFS[1], id=ids[1])]
    proofs = write_jsonl_file(tmp_path, "in.jsonl", rows)
    flags = ["--workdir", str(tmp_path / "wd")] if workdir else []
    result = runner.invoke(main, ["--config", config, *flags, "shorten", proofs])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error: ") and len(result.output.splitlines()) == 1
    assert error in result.output
    assert not (tmp_path / "wd" / "traces").exists()


def test_lint_takes_no_rounds_option(runner, tmp_path):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    assert runner.invoke(main, ["--config", config, "lint", "--rounds", "0", proofs]).exit_code == 2


@pytest.mark.parametrize("workers", ["0", "7"])
def test_workers_flag_sets_nothing(runner, tmp_path, workers):
    """--workers is accepted and sets nothing: each backend's max_parallel
    sets the width."""
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    plain = runner.invoke(main, ["--config", config, "shorten", proofs])
    assert plain.exit_code == 0, plain.output
    result = runner.invoke(main, ["--config", config, "--workers", workers, "shorten", proofs])
    assert result.exit_code == 0, result.output
    assert result.output == plain.output


def test_shorten_toolkit_error_exits_without_traceback(runner, tmp_path, monkeypatch, dead_url):
    def missing(template_id):
        raise TemplateMissing(f"no prompt template named {template_id!r}")

    monkeypatch.setattr(prompting, "load_template", missing)
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "mock"},
            "simplifier": {"kind": "http_simplifier", "endpoint_url": dead_url},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "shorten", proofs])
    assert result.exit_code == 1
    assert "no prompt template named 'simplify'" in result.output
    assert result.exc_info[0] is SystemExit
    assert "Traceback" not in result.output


def test_shorten_empty_input_is_config_error(runner, tmp_path):
    config = write_config(tmp_path)
    empty = write_jsonl_file(tmp_path, "empty.jsonl", [])
    result = runner.invoke(main, ["--config", config, "shorten", empty])
    assert result.exit_code == 2


def test_shorten_backend_outage_exit_code(runner, tmp_path, monkeypatch, dead_url):
    monkeypatch.setattr(backends.time, "sleep", lambda s: None)
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "mock"},
            "simplifier": {"kind": "http_simplifier", "endpoint_url": dead_url, "retries": 2},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "shorten", proofs])
    assert result.exit_code == 3


def test_shorten_repairer_outage_exit_code(runner, tmp_path, monkeypatch, dead_url):
    monkeypatch.setattr(backends.time, "sleep", lambda s: None)
    # every candidate fails, so the outage is met in the repair stage's threads
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "mock"},
            "simplifier": {"kind": "mock", "options": {"mode": "constant", "proof_body": "FAIL"}},
            "repairer": {"kind": "http_repairer", "endpoint_url": dead_url, "retries": 2},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "shorten", "--repair", "on", proofs])
    assert result.exit_code == 3
    assert f"{dead_url} unreachable" in result.output
    assert result.exc_info[0] is SystemExit
    assert "Traceback" not in result.output


def test_a_malformed_api_key_exits_2_before_any_backend_call(
    runner, tmp_path, monkeypatch, endpoint
):
    monkeypatch.setenv(backends.API_KEY_ENV, "sekrit\r\nX-Injected: 1")
    log = tmp_path / "checks.log"
    checker = f"sh -c 'echo {{file}} >> {log}'"
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "subprocess_verifier", "command_template": checker},
            "simplifier": {"kind": "http_simplifier", "endpoint_url": endpoint.url},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "shorten", proofs])
    assert result.exit_code == 2
    assert result.output == f"error: {backends.API_KEY_ENV} must be printable ASCII\n"
    assert not log.exists() and endpoint.requests == []


def test_shorten_reply_without_completions_exit_code(runner, tmp_path, monkeypatch, endpoint):
    monkeypatch.setattr(backends.time, "sleep", lambda s: None)
    endpoint.replies = [(200, {}, {})]
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "mock"},
            "simplifier": {"kind": "http_simplifier", "endpoint_url": endpoint.url, "retries": 2},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "shorten", proofs])
    assert result.exit_code == 3
    assert result.exc_info[0] is SystemExit


@pytest.mark.parametrize("timeout", [float("inf"), 1e10], ids=["infinite", "over-the-wait-limit"])
def test_shorten_with_an_http_timeout_out_of_range_exits_2(runner, tmp_path, dead_url, timeout):
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "mock"},
            "simplifier": {"kind": "http_simplifier", "endpoint_url": dead_url, "timeout": timeout},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "shorten", proofs])
    assert result.exit_code == 2, result.output
    assert result.exc_info[0] is SystemExit
    [line] = result.output.splitlines()
    assert line.startswith("error: ") and "timeout" in line


@pytest.mark.parametrize("template", ["lean '{file}", "true"], ids=["unbalanced-quote", "no-file"])
def test_shorten_rejects_a_bad_command_template(runner, tmp_path, template):
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "subprocess_verifier", "command_template": template},
            "simplifier": {"kind": "mock"},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    result = runner.invoke(main, ["--config", config, "shorten", proofs])
    assert result.exit_code == 2
    assert "command_template" in result.output
    assert result.exc_info[0] is SystemExit


HEAVY_MODULES = {
    "numpy", "requests", "http.client", "click", "statistics", "decimal", "fractions", "csv",
    "proofopt.reports", "proofopt.training_data",
}


def test_cli_import_loads_no_heavy_modules():
    """Start-up cost: the CLI module loads no array library, no HTTP client,
    no argument library from outside the standard library, and none of the
    modules that only the dataset and report commands use."""
    src = Path(backends.__file__).parents[1]  # the proofopt under test
    code = f"import sys, proofopt.cli; print(sorted({HEAVY_MODULES!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_http_request_loads_no_tls_or_urllib(endpoint):
    """Footprint: a completion request to an http:// endpoint loads neither
    TLS nor urllib's client and e-mail stack."""
    src = Path(backends.__file__).parents[1]
    code = (
        "import sys\n"
        "from proofopt.backends import BackendConfig, HttpCompletionClient\n"
        "cfg = BackendConfig(kind='http_simplifier', endpoint_url=sys.argv[1], retries=1)\n"
        "assert HttpCompletionClient(cfg).complete('p', 1, None)\n"
        "print(sorted({'ssl', 'email', 'http.client', 'urllib.request'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    out = subprocess.run(
        [sys.executable, "-c", code, endpoint.url], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    assert len(endpoint.requests) == 1


def test_http_request_with_only_no_proxy_loads_no_tls_or_urllib(endpoint, monkeypatch):
    """Footprint: no_proxy alone, in either case, is no proxy variable of
    the request's scheme, so the guard still keeps urllib and TLS unloaded."""
    monkeypatch.setenv("NO_PROXY", "example.com")
    monkeypatch.setenv("no_proxy", "example.com")
    test_http_request_loads_no_tls_or_urllib(endpoint)


def test_cli_runs_without_click(tmp_path):
    """The runtime needs nothing outside the standard library: with click
    made unimportable, `length` and a mock `shorten` still run."""
    src = Path(backends.__file__).parents[1]
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    code = (
        "import sys\n"
        "class NoClick:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'click':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoClick())\n"
        "from proofopt.cli import main\n"
        "main(sys.argv[1:])\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    for argv, lines in ((["length", proofs], 2), (["--config", config, "shorten", proofs], 5)):
        out = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert len(out.stdout.splitlines()) == lines


def test_closed_stdout_ends_the_command_quietly(tmp_path):
    """A reader that leaves early, as `proofopt length big.jsonl | head -1`
    does, ends the command with exit 1 and no traceback."""
    src = Path(backends.__file__).parents[1]
    rows = [{**PROOFS[0], "id": f"{'p' * 100}{i}"} for i in range(2000)]
    proofs = write_jsonl_file(tmp_path, "big.jsonl", rows)  # 200 kB of output
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "proofopt.cli", "length", proofs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.readline()
    proc.stdout.close()
    try:
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert stderr == ""


def test_mocks_load_only_for_a_mock_config(tmp_path):
    """proofopt.mocks is imported by a config that names kind mock, and by
    nothing else."""
    src = Path(backends.__file__).parents[1]
    checker = {"kind": "subprocess_verifier", "command_template": "true {file}"}
    real = write_config(tmp_path, backends={"verifier": checker})
    mock = str(Path(real).with_name("mock.json"))
    Path(mock).write_text(json.dumps({"backends": {"verifier": {"kind": "mock"}}}))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = (
        "import sys, proofopt.cli as cli\n"
        "loaded = ['proofopt.mocks' in sys.modules]\n"
        "for config in sys.argv[2:]:\n"
        "    cli.main(['--config', config, 'lint', sys.argv[1]], standalone_mode=False)\n"
        "    loaded.append('proofopt.mocks' in sys.modules)\n"
        "print(loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    out = subprocess.run(
        [sys.executable, "-c", code, str(empty), real, mock],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[False, False, True]"


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


def trace_row(proof_id, before, after, index=0) -> dict:
    """An iteration row of shorten's output for proof_id, whose proof of
    before rfl lines met one valid candidate of after lines, adopted when
    it is shorter."""
    statement = f"theorem {proof_id} : 1 = 1"
    text = f"{statement} := by\n{long_proof(after)}"
    adopted = 0 if after < before else None
    return {
        "proof_id": proof_id, "index": index, "k_requested": 1, "temperature": 1.0,
        "candidates": [{"text": text, "status": "valid", "score": after}], "adopted": adopted,
        "score_before": before, "score_after": min(before, after),
        "source_after": text if adopted == 0 else f"{statement} := by\n{long_proof(before)}",
    }


def test_dataset_pipeline(runner, tmp_path):
    seeds = write_jsonl_file(
        tmp_path,
        "seeds.jsonl",
        [
            {"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(10)},
            {"id": "b", "statement": "theorem b : 1 = 1", "proof": long_proof(10)},
        ],
    )
    # a's second iteration adopts nothing: its result is still the first's
    rows = [trace_row("a", 10, 4), trace_row("a", 4, 6, index=1), trace_row("b", 10, 9)]
    results = write_jsonl_file(tmp_path, "results.jsonl", rows + [{"summary": {"count": 2}}])
    build = runner.invoke(main, ["dataset", "build", "--seeds", seeds, "--results", results])
    assert build.exit_code == 0, build.output
    pairs = [json.loads(line) for line in build.output.splitlines()]
    assert len(pairs) == 1  # b misses the ratio gate
    # the seed's text, and the adopted source_after as it was checked
    assert pairs[0] == {"id": "a", "input": f"theorem a : 1 = 1 := by\n{long_proof(10)}",
                        "output": rows[0]["source_after"], "iteration": 0, "transitive": False}

    # the earlier round's seeds are the ancestry: a's ancestor makes a transitive pair
    earlier = {"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(30)}
    ancestry = write_jsonl_file(tmp_path, "round0.jsonl", [earlier])
    argv = ["dataset", "build", "--seeds", seeds, "--results", results, "--ancestry", ancestry]
    transitive = [json.loads(line) for line in runner.invoke(main, argv).output.splitlines()]
    assert transitive[0] == pairs[0]
    assert transitive[1] == {"id": "a", "input": ProofRecord(**earlier).full_source,
                             "output": pairs[0]["output"], "iteration": 0, "transitive": True}

    pairs_file = tmp_path / "pairs.jsonl"
    pairs_file.write_text(build.output)
    sft = runner.invoke(main, ["dataset", "emit-sft", str(pairs_file)])
    assert sft.exit_code == 0
    record = json.loads(sft.output.splitlines()[0])
    assert record["meta"] == {"id": "a", "iteration": 0, "transitive": False,
                              "input_source": pairs[0]["input"],
                              "output_source": pairs[0]["output"]}
    assert record["completion"] == f"```lean4\n{pairs[0]['output']}\n```"


def test_dataset_build_requires_verdict(runner, tmp_path):
    """A candidate that did not verify is never adopted, so a proof whose
    candidates all failed makes no pair, however short they were. Its
    source_after is shorten's input, here 60% of the seed's length, which
    is no result either."""
    seeds = write_jsonl_file(tmp_path, "seeds.jsonl", [SEED])
    row = trace_row("a", 6, 6)
    row["candidates"] = [{"text": f"theorem a : 1 = 1 := by\n{long_proof(4)}", "status": "invalid"}]
    results = write_jsonl_file(tmp_path, "results.jsonl", [row])
    result = runner.invoke(main, ["dataset", "build", "--seeds", seeds, "--results", results])
    assert result.exit_code == 0, result.output
    assert result.output == ""


def test_dataset_build_rejects_an_adopted_result_without_a_tactic_block(runner, tmp_path):
    seeds = write_jsonl_file(tmp_path, "seeds.jsonl", [SEED])
    row = {**trace_row("a", 10, 4), "source_after": "theorem a : 1 = 1 := rfl"}
    results = write_jsonl_file(tmp_path, "results.jsonl", [row])
    result = runner.invoke(main, ["dataset", "build", "--seeds", seeds, "--results", results])
    assert result.exit_code == 1
    assert result.output == (
        "error: proof 'a': its result is not an admissible proof of its seed's statement\n"
    )


def test_dataset_build_rejects_an_adopted_result_that_proves_another_statement(runner, tmp_path):
    seed = {"id": "a", "statement": "theorem a : 2 + 2 = 4", "proof": long_proof(10)}
    seeds = write_jsonl_file(tmp_path, "seeds.jsonl", [seed])
    row = {**trace_row("a", 10, 1), "source_after": "theorem z : True := by trivial"}
    results = write_jsonl_file(tmp_path, "results.jsonl", [row])
    result = runner.invoke(main, ["dataset", "build", "--seeds", seeds, "--results", results])
    assert result.exit_code == 1
    assert result.output == (
        "error: proof 'a': its result is not an admissible proof of its seed's statement\n"
    )


def test_dataset_build_rejects_an_ancestor_that_proves_another_statement(runner, tmp_path):
    seed = {"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(10)}
    ancestor = {"id": "a", "statement": "theorem zz : False", "proof": long_proof(30)}
    seeds = write_jsonl_file(tmp_path, "seeds.jsonl", [seed])
    results = write_jsonl_file(tmp_path, "results.jsonl", [trace_row("a", 10, 1)])
    ancestry = write_jsonl_file(tmp_path, "ancestry.jsonl", [ancestor])
    result = runner.invoke(main, ["dataset", "build", "--seeds", seeds, "--results", results,
                                  "--ancestry", ancestry])
    assert result.exit_code == 1
    assert result.output == "error: proof 'a': its ancestor's statement differs from its seed's\n"


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
    row = trace_row("g", 10, 5)
    row["candidates"] += [
        {"text": f"theorem g : 1 = 1 := by\n{long_proof(20)}", "status": "valid", "score": 20},
        {"text": f"theorem g : 1 = 1 := by\n{long_proof(2)}", "status": "invalid"},
    ]
    groups = write_jsonl_file(tmp_path, "groups.jsonl", [row, {"summary": {"count": 1}}])
    result = runner.invoke(main, ["reward", groups])
    assert result.exit_code == 0, result.output
    group = json.loads(result.output)
    assert (group["id"], group["group_size"]) == ("g#0", 3)
    rewards = [e["reward"] for e in group["entries"]]
    assert rewards == pytest.approx([0.5, 0.0, 0.0])
    assert [e["valid"] for e in group["entries"]] == [True, True, False]
    assert sum(e["advantage"] for e in group["entries"]) == pytest.approx(0.0, abs=1e-12)

    literal = runner.invoke(main, ["reward", groups, "--literal-sign"])
    assert json.loads(literal.output)["entries"][0]["reward"] == pytest.approx(-0.5)


@pytest.mark.parametrize("text", ["theorem g : 1 = 1 := rfl", "theorem z : True := by\n  trivial"],
                         ids=["term-mode", "another-statement"])
def test_reward_pays_nothing_for_a_candidate_that_shorten_would_not_adopt(runner, tmp_path, text):
    """A valid candidate scored far below the original earns 0 when it is
    not admissible: a term-mode proof, or a proof of another statement."""
    row = trace_row("g", 10, 10)
    row["candidates"] = [{"text": text, "status": "valid", "score": 1}]
    groups = write_jsonl_file(tmp_path, "groups.jsonl", [row])
    result = runner.invoke(main, ["reward", groups])
    assert result.exit_code == 0, result.output
    [entry] = json.loads(result.output)["entries"]
    assert (entry["reward"], entry["valid"]) == (0.0, True)


def test_reward_rejects_a_row_whose_source_after_has_no_tactic_block(runner, tmp_path):
    row = {**trace_row("g", 10, 5), "source_after": "theorem g : 1 = 1 := rfl"}
    groups = write_jsonl_file(tmp_path, "groups.jsonl", [row])
    result = runner.invoke(main, ["reward", groups])
    assert result.exit_code == 1
    assert result.output == "error: record 'g': source has no ':= by' delimiter\n"


def test_reward_makes_no_group_of_an_iteration_without_candidates(runner, tmp_path):
    row = {**trace_row("g", 10, 10), "candidates": [], "note": shortener.SKIPPED_NOTE}
    groups = write_jsonl_file(tmp_path, "groups.jsonl", [row])
    result = runner.invoke(main, ["reward", groups])
    assert result.exit_code == 0, result.output
    assert result.output == ""


def test_reward_names_a_group_whose_original_has_no_length(runner, tmp_path):
    groups = write_jsonl_file(tmp_path, "groups.jsonl", [trace_row("g", 0, 0, index=2)])
    result = runner.invoke(main, ["reward", groups])
    assert result.exit_code == 1
    [line] = result.output.splitlines()
    assert line.startswith("error: reward group 'g#2': ")


@pytest.mark.parametrize("command", ["reward", "dataset build"])
def test_a_training_data_command_rejects_a_row_without_proof_id(runner, tmp_path, command):
    row = trace_row("a", 10, 4)
    del row["proof_id"]
    rows = write_jsonl_file(tmp_path, "rows.jsonl", [{"summary": {}}, row])
    seeds = write_jsonl_file(tmp_path, "seeds.jsonl", [SEED])
    argv = {"reward": ["reward", rows],
            "dataset build": ["dataset", "build", "--seeds", seeds, "--results", rows]}[command]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert result.output == "error: trace row 1 has no proof_id\n"


@pytest.mark.parametrize("option", ["--seeds", "--results", "--ancestry"])
def test_dataset_build_refuses_an_id_given_twice(runner, tmp_path, option):
    record = {"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(10)}
    rows = {"--seeds": [record], "--results": [trace_row("a", 10, 4)], "--ancestry": [record]}
    rows[option] = rows[option] * 2
    argv = ["dataset", "build"]
    for name, file_rows in rows.items():
        argv += [name, write_jsonl_file(tmp_path, name.strip("-") + ".jsonl", file_rows)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    [line] = result.output.splitlines()
    assert line.startswith("error: ") and "'a'" in line and option.strip("-") + ".jsonl" in line


@pytest.mark.parametrize("argv", [["reward"], ["report", "--kind", "repair"]],
                         ids=["reward", "report-repair"])
def test_a_proof_iteration_given_twice_in_shorten_output_is_refused(runner, tmp_path, argv):
    rows = write_jsonl_file(tmp_path, "rows.jsonl", [trace_row("a", 10, 4)] * 2)
    result = runner.invoke(main, [*argv, rows])
    assert result.exit_code == 1
    [line] = result.output.splitlines()
    assert line.startswith("error: ") and line.endswith(f"{rows}: proof 'a' iteration 0 is given twice")


def test_report_repair_does_not_compare_the_rows_of_trace_files(runner, tmp_path):
    """A trace file's rows carry no proof_id, and the traces of two proofs
    may be read together: their iterations are not compared."""
    row = trace_row("a", 10, 4)
    del row["proof_id"]
    rows = write_jsonl_file(tmp_path, "rows.jsonl", [row] * 2)
    result = runner.invoke(main, ["report", rows, "--kind", "repair"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("missing", ["proof", "id"])
def test_dataset_build_rejects_a_malformed_ancestry_row(runner, tmp_path, missing):
    """The second row of --ancestry, and then of --seeds, lacks a field: the
    error names the row by its id, or else by its index."""
    record = {"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(10)}
    row = {**record, "id": "b"}
    del row[missing]
    files = {"--seeds": [record], "--results": [trace_row("a", 10, 4)], "--ancestry": [record]}
    for option, what in [("--ancestry", "ancestry record"), ("--seeds", "proof record")]:
        argv = ["dataset", "build"]
        for name, rows in files.items():
            rows = rows + [row] if name == option else rows
            argv += [name, write_jsonl_file(tmp_path, name.strip("-") + ".jsonl", rows)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert result.exc_info[0] is SystemExit
        named = f"{what} 1" if missing == "id" else f"{what} 'b'"
        assert result.output == f"error: {named} missing field '{missing}'\n"


SEED = {"id": "a", "statement": "theorem a : 1 = 1", "proof": long_proof(10)}
SAMPLE = {"id": "s", "original": 9, "scores": [1, 2], "valid": [True, False]}
PAIR = {"id": "a", "input": ProofRecord(**SEED).full_source,
        "output": ProofRecord(**{**SEED, "proof": long_proof(4)}).full_source, "iteration": 0,
        "transitive": False}
MOCK_VERIFIER = {"kind": "mock", "options": {"noop_tactics": ["skip"]}}
TRUE_CHECKER = {"kind": "subprocess_verifier", "command_template": "true {file}"}
ITERATION = {"index": 0, "k_requested": 1, "temperature": 1.0, "candidates": [], "adopted": None,
             "score_before": 9, "score_after": 9, "source_after": "theorem a : 1 = 1 := by\n  rfl"}
GROUP = trace_row("a", 10, 4)  # a row of shorten's output, read by reward and dataset build
[CANDIDATE] = GROUP["candidates"]

# (command, config overrides or the one input row it reads, exit code): a value
# of the wrong JSON type is never coerced. Configs exit 2, input rows exit 1.
WRONG_TYPES = [
    pytest.param("config", {"repair_budget": True}, 2, id="repair-budget-bool"),
    pytest.param("config", {"repair_budget": "3"}, 2, id="repair-budget-text"),
    pytest.param("config", {"backends": {"verifier": {**MOCK_VERIFIER, "max_parallel": True}}}, 2,
                 id="max-parallel-bool"),
    pytest.param("config", {"backends": {"verifier": {**MOCK_VERIFIER, "timeout": True}}}, 2,
                 id="timeout-bool"),
    pytest.param("config", {"backends": {"verifier": {**MOCK_VERIFIER, "options": {
        "heartbeats_per_token": "5"}}}}, 2, id="mock-option-text"),
    pytest.param("config", {"measure": "pages"}, 2, id="measure-unknown"),
    pytest.param("mock", {"simplifier": {"mode": "strip_noops"}}, 2, id="simplifier-mode-unknown"),
    pytest.param("mock", {"repairer": {"mode": "typo"}}, 2, id="repairer-mode-unknown"),
    pytest.param("config", {"backends": {"verifier": None}}, 2, id="backend-null"),
    pytest.param("estimate", {**SAMPLE, "scores": 5}, 1, id="estimate-scores-number"),
    pytest.param("estimate", {**SAMPLE, "scores": ["x", 2]}, 1, id="estimate-score-text"),
    pytest.param("estimate", {**SAMPLE, "scores": [2.5, 2]}, 1, id="estimate-score-float"),
    pytest.param("estimate", {**SAMPLE, "scores": [True, 2]}, 1, id="estimate-score-bool"),
    pytest.param("estimate", {**SAMPLE, "original": "9"}, 1, id="estimate-original-text"),
    pytest.param("estimate", {**SAMPLE, "valid": 5}, 1, id="estimate-valid-number"),
    pytest.param("estimate", {**SAMPLE, "valid": ["yes", False]}, 1, id="estimate-valid-text"),
    pytest.param("atk", {**SAMPLE, "scores": 5}, 1, id="atk-scores-number"),
    pytest.param("atk", {**SAMPLE, "valid": ["yes", False]}, 1, id="atk-valid-text"),
    # a candidate is valid by its status, a verdict's name
    pytest.param("reward", {**GROUP, "candidates": [{**CANDIDATE, "status": "false"}]}, 1,
                 id="reward-valid-text"),
    pytest.param("reward", {**GROUP, "candidates": [{"text": 4, "status": "valid"}]}, 1,
                 id="reward-proof-number"),
    pytest.param("reward", {**GROUP, "candidates": [5]}, 1, id="reward-candidate-number"),
    pytest.param("emit-sft", {**PAIR, "iteration": "0"}, 1, id="emit-sft-iteration-text"),
    pytest.param("emit-sft", {**PAIR, "transitive": "no"}, 1, id="emit-sft-transitive-text"),
    pytest.param("emit-sft", {**PAIR, "input": 5}, 1, id="emit-sft-input-number"),
    pytest.param("ancestry", {**SEED, "id": None}, 1, id="ancestry-id-null"),
    # an ancestry row is the ancestor's proof record
    pytest.param("ancestry", [5], 1, id="ancestry-ancestor-number"),
    pytest.param("dataset build", {**GROUP, "candidates": [{**CANDIDATE, "status": "no"}]}, 1,
                 id="build-valid-text"),
    pytest.param("length", {**SEED, "proof": None}, 1, id="length-proof-null"),
    pytest.param("length", {**SEED, "statement": 5}, 1, id="length-statement-number"),
    pytest.param("length", {**SEED, "id": None}, 1, id="length-id-null"),
    pytest.param("speedup", {"time_orig": "1", "time_new": 2}, 1, id="speedup-time-text"),
    pytest.param("speedup", {"time_orig": 1, "time_new": True}, 1, id="speedup-time-bool"),
    pytest.param("corpus", {"score": None}, 1, id="corpus-score-null"),
    pytest.param("repair", {**ITERATION, "proof_id": 5}, 1, id="repair-proof-id-number"),
    # a lone surrogate escape is JSON that no UTF-8 text can hold
    pytest.param("config", {"schedule": "\ud800"}, 2, id="schedule-surrogate"),
    pytest.param("length", {**SEED, "proof": "  rfl \ud800"}, 1, id="length-proof-surrogate"),
    pytest.param("reward", {**GROUP, "candidates": [{"text": "\udfff", "status": "valid"}]}, 1,
                 id="reward-proof-surrogate"),
    # JSON has no NaN or infinity, and a number out of float range ends in an error line
    pytest.param("config", {"backends": {"verifier": {**TRUE_CHECKER, "timeout": float("nan")}}},
                 2, id="timeout-nan"),
    pytest.param("config", {"backends": {"verifier": {**TRUE_CHECKER, "timeout": 1e10}}},
                 2, id="timeout-over-the-wait-limit"),
    pytest.param("speedup", {"time_orig": float("nan"), "time_new": 1}, 1, id="speedup-time-nan"),
    pytest.param("speedup", {"time_orig": 1e308, "time_new": 1e-308}, 1,
                 id="speedup-ratio-infinite"),
    pytest.param("corpus", [{"score": 1e308}, {"score": 1e308}], 1, id="corpus-mean-overflow"),
    pytest.param("corpus", [{"score": 1e308}, {"score": 1}], 1, id="corpus-median-overflow"),
    pytest.param("estimate", {"id": "s", "original": 10**400, "scores": [1, 2],
                              "valid": [True, False]}, 1, id="estimate-original-overflow"),
]


def wrong_type_argv(tmp_path, command, data) -> list[str]:
    if command == "config":
        proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
        return ["--config", write_config(tmp_path, **data), "lint", proofs]
    if command == "mock":  # a role's mock options, read when shorten builds every backend
        proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
        config = slotted_config(tmp_path, 1, **data)
        return ["--config", config, "shorten", "--repair", "on", proofs]
    rows = write_jsonl_file(tmp_path, "in.jsonl", data if isinstance(data, list) else [data])
    seeds = write_jsonl_file(tmp_path, "seeds.jsonl", [SEED])
    results = write_jsonl_file(tmp_path, "results.jsonl", [GROUP])
    return {
        "length": ["length", rows],
        "estimate": ["estimate", rows, "-k", "1"],
        "atk": ["report", "--kind", "atk", rows, "-k", "1"],
        "speedup": ["report", "--kind", "speedup", rows],
        "corpus": ["report", "--kind", "corpus", rows],
        "repair": ["report", "--kind", "repair", rows],
        "reward": ["reward", rows],
        "dataset build": ["dataset", "build", "--seeds", seeds, "--results", rows],
        "emit-sft": ["dataset", "emit-sft", rows],
        "ancestry": ["dataset", "build", "--seeds", seeds, "--results", results,
                     "--ancestry", rows],
    }[command]


@pytest.mark.parametrize("command,data,code", WRONG_TYPES)
def test_a_value_of_the_wrong_type_exits_with_one_error_line(runner, tmp_path, command, data, code):
    result = runner.invoke(main, wrong_type_argv(tmp_path, command, data))
    assert result.exit_code == code, result.output
    assert result.exc_info[0] is SystemExit
    assert "Traceback" not in result.output
    [line] = result.output.splitlines()
    assert line.startswith("error: ")
    if "id" in data:  # the error names the row
        assert repr(data["id"]) in line


@pytest.mark.parametrize("command", ["config", "length", "lean", "estimate", "atk", "corpus",
                                     "repair", "reward", "dataset build"])
def test_an_input_that_is_not_utf8_exits_with_one_error_line(runner, tmp_path, command):
    if command == "lean":
        path = tmp_path / "t.lean"
        argv = ["length", str(path)]
    else:
        argv = wrong_type_argv(tmp_path, command, {})
        path = Path(argv[1] if command == "config" else tmp_path / "in.jsonl")
    path.write_bytes(b'{"id": "\xff"}\n')
    result = runner.invoke(main, argv)
    assert result.exit_code == (2 if command == "config" else 1), result.output
    assert result.exc_info[0] is SystemExit
    [line] = result.output.splitlines()
    assert line.startswith("error: ") and "utf-8" in line.lower()


def failing_write(tmp_path, case) -> tuple[list, Path]:
    """The argv of a command whose write of a file fails, and that file."""
    samples = write_jsonl_file(tmp_path, "samples.jsonl", SAMPLES)
    report = ["report", samples, "--kind", "atk", "-k", "1", "--csv"]
    missing = tmp_path / "missing"
    if case == "csv":
        return [*report, str(missing / "a.csv")], missing / "a.csv"
    if case == "gnuplot":
        gnuplot = missing / "a.gp"
        return [*report, str(tmp_path / "a.csv"), "--gnuplot", str(gnuplot)], gnuplot
    workdir = tmp_path / "wd"
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    argv = ["--config", write_config(tmp_path), "--workdir", str(workdir), "shorten", proofs]
    if case == "traces-is-a-file":
        target = workdir / "traces"
        workdir.mkdir()
        target.write_text("")
    else:
        target = workdir / "traces" / "p2.jsonl"
        target.mkdir(parents=True)
    return argv, target


@pytest.mark.parametrize("case", ["csv", "gnuplot", "traces-is-a-file", "trace-is-a-directory"])
def test_a_write_that_fails_exits_with_one_error_line(runner, tmp_path, case):
    argv, target = failing_write(tmp_path, case)
    result = runner.invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert result.exc_info[0] is SystemExit
    [line] = result.output.splitlines()
    assert line.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize("csv_before", [None, "old,table\n"], ids=["absent", "present"])
@pytest.mark.parametrize("failing", ["gnuplot", "output"])
def test_a_report_that_fails_to_write_leaves_every_output_file_as_it_was(
    runner, tmp_path, csv_before, failing
):
    samples = write_jsonl_file(tmp_path, "samples.jsonl", SAMPLES)
    csv_path, gnuplot, output = tmp_path / "a.csv", tmp_path / "a.gp", tmp_path / "out.jsonl"
    if csv_before is not None:
        csv_path.write_text(csv_before)
    missing = tmp_path / "missing" / "x"
    if failing == "gnuplot":
        gnuplot = missing
    else:
        output = missing
    argv = ["report", samples, "--kind", "atk", "-k", "1", "--csv", str(csv_path),
            "--gnuplot", str(gnuplot), "-o", str(output)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert result.output.startswith(f"error: cannot write {missing}: ")
    # no file was created, and a.csv, when it was there, is as it was
    kept = ["a.csv", "samples.jsonl"] if csv_before else ["samples.jsonl"]
    assert sorted(p.name for p in tmp_path.iterdir()) == kept
    if csv_before:
        assert csv_path.read_text() == csv_before


def test_stdin_and_stdout_are_utf8_whatever_the_stream_encoding(tmp_path):
    src = Path(backends.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}",
           "PYTHONIOENCODING": "ascii"}
    row = {**PROOFS[0], "id": "ℕ"}
    proofs = write_jsonl_file(tmp_path, "in.jsonl", [row])
    cli = [sys.executable, "-m", "proofopt.cli"]
    out = subprocess.run([*cli, "length", proofs], capture_output=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ℕ\t11\n".encode()
    raw = (json.dumps(row, ensure_ascii=False) + "\n").encode()
    out = subprocess.run([*cli, "report", "-", "--kind", "corpus"], input=raw,
                         capture_output=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["max"] == 11


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


@pytest.mark.parametrize("row,named", [
    ({"proof": "x"}, "corpus record 1 missing field 'id'"),
    ({"id": "b", "proof": "x"}, "corpus record 'b' missing field 'statement'"),
], ids=["by-index", "by-id"])
def test_report_corpus_names_a_bad_proof_record(runner, tmp_path, row, named):
    rows = write_jsonl_file(tmp_path, "in.jsonl", [{"score": 3}, row])
    result = runner.invoke(main, ["report", rows, "--kind", "corpus"])
    assert result.exit_code == 1
    assert result.output == f"error: bad report input: {named}\n"


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


# Ways to spoil a good trace line so that it no longer reads as an iteration record.
BAD_TRACE_LINES = [
    pytest.param(lambda row: {**row, "candidates": 5}, id="candidates-number"),
    pytest.param(lambda row: 7, id="not-an-object"),
    pytest.param(lambda row: {**row, "candidates": [{**row["candidates"][0], "text": 5}]},
                 id="candidate-text-number"),
    pytest.param(lambda row: {**row, "k_requested": "4"}, id="k-text"),
    pytest.param(lambda row: {**row, "repair": {"attempted": 1, "valid": 0, "candidates": [
        {"status": "invalid", "score": "x", "linted_score": None}]}}, id="repair-score-text"),
    pytest.param(lambda row: {**row, "candidates": [{**row["candidates"][0], "status": "great"}]},
                 id="candidate-status-unknown"),
    pytest.param(lambda row: {**row, "repair": {"attempted": 1, "valid": 0, "candidates": [
        {"score": None, "linted_score": None}]}}, id="repair-entry-no-status"),
    pytest.param(lambda row: {**row, "repair": []}, id="repair-list"),
    pytest.param(lambda row: {**row, "adopted": "0"}, id="adopted-text"),
]


@pytest.mark.parametrize("spoil", BAD_TRACE_LINES)
def test_report_repair_rejects_a_malformed_trace_line(runner, tmp_path, spoil):
    row = json.loads(shorten_output(runner, tmp_path).splitlines()[0])
    traces = write_jsonl_file(tmp_path, "traces.jsonl", [spoil(row)])
    result = runner.invoke(main, ["report", traces, "--kind", "repair"])
    assert result.exit_code == 1, result.output
    assert result.exc_info[0] is SystemExit
    [line] = result.output.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("spoil", BAD_TRACE_LINES)
def test_shorten_resume_redoes_a_malformed_trace_line(runner, tmp_path, spoil):
    config = write_config(tmp_path)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    workdir = tmp_path / "wd"
    args = ["--config", config, "--workdir", str(workdir), "shorten", proofs]
    full = runner.invoke(main, args)
    trace_file = workdir / "traces" / "p1.jsonl"
    uninterrupted = trace_file.read_text()
    first, second = uninterrupted.splitlines(keepends=True)
    trace_file.write_text(json.dumps(spoil(json.loads(first))) + "\n" + second)

    resumed = runner.invoke(main, args)
    assert resumed.exit_code == 0, resumed.output
    assert resumed.output == full.output
    assert trace_file.read_text() == uninterrupted


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--bogus", "length"],
        ["frobnicate"],
        ["shorten", "{proofs}", "--measure", "bogus"],
        ["estimate", "{samples}"],
        ["--config", "/does/not/exist.json", "length"],
        ["lint", "/does/not/exist.jsonl"],
        ["report", "{samples}", "--kind", "atk", "-k", "1", "--gnuplot", "{gnuplot}"],
        ["--seed", "3", "length", "{proofs}"],
    ],
    ids=["unknown-option", "unknown-command", "bad-choice", "missing-k", "missing-config",
         "missing-input", "gnuplot-without-csv", "seed-flag"],
)
def test_usage_error_exits_2(runner, tmp_path, argv):
    files = {
        "proofs": write_jsonl_file(tmp_path, "in.jsonl", PROOFS),
        "samples": write_jsonl_file(tmp_path, "samples.jsonl", SAMPLES),
        "gnuplot": str(tmp_path / "a.gp"),
    }
    result = runner.invoke(main, [arg.format(**files) for arg in argv])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    [error] = [line for line in result.output.splitlines() if "error:" in line]
    if "--gnuplot" in argv:
        assert "--gnuplot" in error and "--csv" in error
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "samples.jsonl"]


def test_failed_command_leaves_its_output_file_alone(runner, tmp_path):
    config = write_config(tmp_path, repair_budjet=1)
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    existing = tmp_path / "existing.jsonl"
    existing.write_text("kept\n")
    fresh = tmp_path / "fresh.jsonl"
    for output in (existing, fresh):
        result = runner.invoke(main, ["--config", config, "shorten", proofs, "-o", str(output)])
        assert result.exit_code == 2
    assert existing.read_text() == "kept\n"
    assert not fresh.exists()


def output_commands(parser=None, prefix=()) -> list[str]:
    """Every subcommand that takes -o, read from the CLI's parser."""
    found = []
    for action in (parser or cli._parser())._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += output_commands(sub, (*prefix, name))
        elif "-o" in action.option_strings:
            found.append(" ".join(prefix))
    return found


def output_argv(tmp_path, command) -> list[str]:
    """A command line on which command succeeds, its -o not yet given."""
    config = ["--config", write_config(tmp_path)]
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    samples = write_jsonl_file(tmp_path, "samples.jsonl", SAMPLES)
    seeds = write_jsonl_file(tmp_path, "seeds.jsonl", [SEED])
    results = write_jsonl_file(tmp_path, "results.jsonl", [GROUP])
    pairs = write_jsonl_file(tmp_path, "pairs.jsonl", [PAIR])
    return {
        "lint": [*config, "lint", proofs],
        "shorten": [*config, "shorten", proofs],
        "estimate": ["estimate", samples, "-k", "1"],
        "dataset build": ["dataset", "build", "--seeds", seeds, "--results", results],
        "dataset filter-trivial": [*config, "dataset", "filter-trivial", proofs],
        "dataset emit-sft": ["dataset", "emit-sft", pairs],
        "reward": ["reward", results],
        "report": ["report", samples, "--kind", "atk", "-k", "1", "--csv",
                   str(tmp_path / "a.csv"), "--gnuplot", str(tmp_path / "a.gp")],
    }[command]


class RaisingSimplifier(MockSimplifier):
    def _simplify(self, source, k, temperature):
        raise AssertionError("a generator was called")


@pytest.mark.parametrize("command", output_commands())
def test_an_unwritable_output_fails_before_the_command_does_any_work(
    runner, tmp_path, monkeypatch, command
):
    verifiers = []

    def counted(cfg):
        verifiers.append(MockVerifier(cfg))
        return verifiers[-1]

    monkeypatch.setattr(cli, "make_verifier", counted)
    monkeypatch.setattr(cli, "make_simplifier", RaisingSimplifier)
    argv = output_argv(tmp_path, command)
    files = sorted(tmp_path.iterdir())
    missing = tmp_path / "missing" / "x.jsonl"
    result = runner.invoke(main, [*argv, "-o", str(missing)])
    assert result.exit_code == 1, result.output
    [line] = result.output.splitlines()
    assert line.startswith(f"error: cannot write {missing}: ")
    assert sorted(tmp_path.iterdir()) == files
    assert sum(v.calls for v in verifiers) == 0

    # with a writable -o, the same command line does its work
    monkeypatch.setattr(cli, "make_simplifier", backends.make_simplifier)
    output = tmp_path / "out.jsonl"
    result = runner.invoke(main, [*argv, "-o", str(output)])
    assert result.exit_code == 0, result.output
    assert output.is_file()
    if "--config" in argv:
        assert sum(v.calls for v in verifiers) > 0


@pytest.mark.parametrize("statement", [
    "theorem t : 1 = 1 -- was := by simp",
    "theorem t (h : 1 = 1 := by simp) : 1 = 1",
], ids=["comment", "autoparam"])
@pytest.mark.parametrize("command", ["shorten", "lint", "dataset build"])
def test_a_statement_holding_the_delimiter_is_refused_at_read(
    runner, tmp_path, monkeypatch, command, statement
):
    """Its text would split inside the statement (or not at all, where the
    first ':= by' is a comment's), so the record is refused before any check."""
    verifiers = []

    def counted(cfg):
        verifiers.append(MockVerifier(cfg))
        return verifiers[-1]

    monkeypatch.setattr(cli, "make_verifier", counted)
    config = write_config(tmp_path)
    rows = write_jsonl_file(tmp_path, "in.jsonl",
                            [{"id": "t", "statement": statement, "proof": "  skip\n  rfl"}])
    results = write_jsonl_file(tmp_path, "results.jsonl", [trace_row("t", 10, 4)])
    argv = {"shorten": ["--config", config, "shorten", rows],
            "lint": ["--config", config, "lint", rows],
            "dataset build": ["dataset", "build", "--seeds", rows, "--results", results]}[command]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert result.output == (f"error: proof record 't': statement {statement!r} holds ':= by',"
                             " or a comment or string it does not close\n")
    assert sum(v.calls for v in verifiers) == 0


def test_a_backend_outage_removes_only_the_output_file_the_command_created(
    runner, tmp_path, monkeypatch, dead_url
):
    monkeypatch.setattr(backends.time, "sleep", lambda s: None)
    config = write_config(
        tmp_path,
        backends={
            "verifier": {"kind": "mock"},
            "simplifier": {"kind": "http_simplifier", "endpoint_url": dead_url, "retries": 2},
        },
    )
    proofs = write_jsonl_file(tmp_path, "in.jsonl", PROOFS)
    existing = tmp_path / "existing.jsonl"
    existing.write_text("kept\n")
    fresh = tmp_path / "fresh.jsonl"
    for output in (existing, fresh):
        result = runner.invoke(main, ["--config", config, "shorten", proofs, "-o", str(output)])
        assert result.exit_code == 3, result.output
    assert existing.read_text() == "kept\n"
    assert not fresh.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_an_output_to_a_named_pipe_reaches_its_reader(tmp_path):
    """A FIFO is not opened before the command writes, so its reader sees
    no early end of file."""
    src = Path(backends.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    samples = write_jsonl_file(tmp_path, "samples.jsonl", SAMPLES)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, encoding="utf-8") as handle:
            got.append(handle.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    out = subprocess.run(
        [sys.executable, "-m", "proofopt.cli", "estimate", samples, "-k", "1", "-o", str(fifo)],
        capture_output=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    reader.join(10)
    assert [json.loads(line)["k"] for line in got[0].splitlines()] == [1]


def mock_comparison(runner, tmp_path, drop_probability, mode) -> dict[str, bytes]:
    """The outputs of one configuration of the mock comparison: the 13
    fixtures, each given a `key` line that the verifier requires and two
    `skip` lines that it flags, through `shorten --workdir` (schedule 4x3,
    repair at budget 3, simplifier seed 5; only a `shorter` repairer's fixes,
    `key`, `skip` and `rfl`, can verify), its rerun over the same workdir,
    `reward`, `report --kind repair`, `dataset build` and `lint`. Each
    command's stdout, the two shorten runs' followed by their trace files."""
    rows = []
    for path in sorted(DATA_DIR.glob("*.lean")):
        record = ProofRecord.from_source(path.read_text(encoding="utf-8"), id=path.stem)
        proof = f"  key\n{record.proof}\n  skip\n  skip"
        rows.append({"id": record.id, "statement": record.statement, "proof": proof})
    seeds = write_jsonl_file(tmp_path, "seeds.jsonl", rows)
    config = write_config(
        tmp_path, schedule="4x3", repair=True, repair_budget=3, backends={
            "verifier": {"kind": "mock",
                         "options": {"require_token": "key", "noop_tactics": ["skip"]}},
            "simplifier": {"kind": "mock", "options": {"mode": "drop_lines", "seed": 5,
                                                       "drop_probability": drop_probability}},
            "repairer": {"kind": "mock",
                         "options": {"mode": mode, "proof_body": "key\n  skip\n  rfl"}},
        },
    )
    workdir = tmp_path / "wd"
    results = tmp_path / "results.jsonl"

    def run(*args) -> bytes:
        result = runner.invoke(main, ["--config", config, *args])
        assert result.exit_code == 0, result.output
        return result.output.encode()

    outputs = {}
    for name in ("shorten", "rerun"):
        stdout = run("--workdir", str(workdir), "shorten", seeds)
        traces = sorted((workdir / "traces").iterdir())
        outputs[name] = stdout + b"".join(path.read_bytes() for path in traces)
    results.write_bytes(stdout)
    outputs["reward"] = run("reward", str(results))
    outputs["report"] = run("report", "--kind", "repair", str(results))
    outputs["dataset build"] = run("dataset", "build", "--seeds", seeds, "--results", str(results))
    outputs["lint"] = run("lint", seeds)
    return outputs


# sha256 of each output of mock_comparison, by (drop probability, repairer
# mode). An edit that claims to leave every command's output as it was
# keeps these.
MOCK_COMPARISON_DIGESTS = {
    (0.5, "delete_flagged"): {
        "shorten": "ad4d7325e27b8a2aa4185c48b5cdd8e202613815580f6f45f050cd59a7f9230b",
        "rerun": "ad4d7325e27b8a2aa4185c48b5cdd8e202613815580f6f45f050cd59a7f9230b",
        "reward": "5e6da81468b5f5f3e91d6bca7a210b73b651b11a3330d1fc02fa139be92b562f",
        "report": "9b05e9906dfb7804c78dfb1db0a76c64181439d8d65e0526edc64b51edbb6a5e",
        "dataset build": "790fb6778e949b93205cf435b371a7b4daa0dcd0e738c2a18f9d9d8fbbe04cee",
        "lint": "6e2347c17f480cfee2d86d85ab7e0349988daa418c52acaf34118524073bfa47",
    },
    (0.5, "shorter"): {
        "shorten": "ec64cb08ea26d4334b723d1fb9142337acc542cae7ab51b2ada8b483b09b6dc8",
        "rerun": "ec64cb08ea26d4334b723d1fb9142337acc542cae7ab51b2ada8b483b09b6dc8",
        "reward": "edfaeba0f23a9ab399e68e7303c362ab23b8ba896c35228286f70ee41f6d5cee",
        "report": "a23bfa70e89167c8eb2277567fdb32ba4390ac73baf1d68fc51d2dc1afe40ba3",
        "dataset build": "0118cb82abd8f9fa6f77835d4a9c02f251ae85793b715dab79d5744b7c48ac1d",
        "lint": "6e2347c17f480cfee2d86d85ab7e0349988daa418c52acaf34118524073bfa47",
    },
    (0.5, "longer"): {
        "shorten": "ad4d7325e27b8a2aa4185c48b5cdd8e202613815580f6f45f050cd59a7f9230b",
        "rerun": "ad4d7325e27b8a2aa4185c48b5cdd8e202613815580f6f45f050cd59a7f9230b",
        "reward": "5e6da81468b5f5f3e91d6bca7a210b73b651b11a3330d1fc02fa139be92b562f",
        "report": "9b05e9906dfb7804c78dfb1db0a76c64181439d8d65e0526edc64b51edbb6a5e",
        "dataset build": "790fb6778e949b93205cf435b371a7b4daa0dcd0e738c2a18f9d9d8fbbe04cee",
        "lint": "6e2347c17f480cfee2d86d85ab7e0349988daa418c52acaf34118524073bfa47",
    },
    (0.75, "delete_flagged"): {
        "shorten": "8a9646956ff1b1f0bf624c540e6938d4bf679a177588039130e738ddaefe2367",
        "rerun": "8a9646956ff1b1f0bf624c540e6938d4bf679a177588039130e738ddaefe2367",
        "reward": "32301bce15348a1a186e850e0006a62e771799d1414c9d34e2896f60acf6fc1c",
        "report": "123c7139dbd93da8be307f2e125fb07cbebdd02347a305bc08dce21c402dc65d",
        "dataset build": "0b087e0db71fbb0d29c47e4a6905fb1952fa6afe4cdcd03d25fea373c0b18810",
        "lint": "6e2347c17f480cfee2d86d85ab7e0349988daa418c52acaf34118524073bfa47",
    },
    (0.75, "shorter"): {
        "shorten": "a1f61ae4a5b8967ad7c068c848fc734e1ace54982ff876a7d1c69a480e6c5c3a",
        "rerun": "a1f61ae4a5b8967ad7c068c848fc734e1ace54982ff876a7d1c69a480e6c5c3a",
        "reward": "038ee27dd692a5913bc9dd0c80f2943a309a03b7a0e3440e58ee47319c02f5be",
        "report": "a3ef3141628aa8228d621d15fb4a994d21edc11e0e51576caa2b998be3cea964",
        "dataset build": "1c372ce4d4ec07b8161d1426c41082eaa4f320d3786bb900d3b39380b52d55d2",
        "lint": "6e2347c17f480cfee2d86d85ab7e0349988daa418c52acaf34118524073bfa47",
    },
    (0.75, "longer"): {
        "shorten": "8a9646956ff1b1f0bf624c540e6938d4bf679a177588039130e738ddaefe2367",
        "rerun": "8a9646956ff1b1f0bf624c540e6938d4bf679a177588039130e738ddaefe2367",
        "reward": "32301bce15348a1a186e850e0006a62e771799d1414c9d34e2896f60acf6fc1c",
        "report": "123c7139dbd93da8be307f2e125fb07cbebdd02347a305bc08dce21c402dc65d",
        "dataset build": "0b087e0db71fbb0d29c47e4a6905fb1952fa6afe4cdcd03d25fea373c0b18810",
        "lint": "6e2347c17f480cfee2d86d85ab7e0349988daa418c52acaf34118524073bfa47",
    },
}


@pytest.mark.parametrize("drop_probability,mode", list(MOCK_COMPARISON_DIGESTS))
def test_mock_comparison_outputs_keep_their_digests(runner, tmp_path, drop_probability, mode):
    outputs = mock_comparison(runner, tmp_path, drop_probability, mode)
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in outputs.items()}
    assert digests == MOCK_COMPARISON_DIGESTS[(drop_probability, mode)]


@pytest.mark.parametrize("drop_probability,mode", list(MOCK_COMPARISON_DIGESTS))
def test_every_training_text_is_a_text_that_shorten_checked(
    runner, tmp_path, monkeypatch, drop_probability, mode
):
    """Each dataset build pair's input and output, and each emit-sft row's
    fenced completion and meta sources, is verbatim a text that the mock
    comparison's shorten runs gave their verifier."""
    checked, shortening = set(), []
    verify, shorten = MockVerifier._verify, cli.shorten

    def spy(self, source, want_heartbeats):
        if shortening:
            checked.add(source)
        return verify(self, source, want_heartbeats)

    @functools.wraps(shorten)
    def spied_shorten(args):
        shortening.append(True)
        try:
            return shorten(args)
        finally:
            shortening.clear()

    monkeypatch.setattr(MockVerifier, "_verify", spy)
    monkeypatch.setattr(cli, "shorten", spied_shorten)
    build = mock_comparison(runner, tmp_path, drop_probability, mode)["dataset build"]
    pairs = [json.loads(line) for line in build.decode().splitlines()]
    assert pairs and all({p["input"], p["output"]} <= checked for p in pairs)
    (tmp_path / "pairs.jsonl").write_bytes(build)
    sft = runner.invoke(main, ["dataset", "emit-sft", str(tmp_path / "pairs.jsonl")])
    assert sft.exit_code == 0, sft.output
    rows = [json.loads(line) for line in sft.output.splitlines()]
    assert len(rows) == len(pairs)
    for row in rows:
        fence, completion = "```lean4\n", row["completion"]
        assert completion.startswith(fence) and completion.endswith("\n```")
        meta = row["meta"]
        texts = {completion[len(fence):-len("\n```")], meta["input_source"], meta["output_source"]}
        assert texts <= checked
