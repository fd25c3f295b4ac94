import contextlib
import json
import os
import shlex
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from proofopt import backends
from proofopt.backends import (
    SORRY_WARNING,
    BackendConfig,
    Diagnostic,
    HttpCompletionClient,
    SubprocessVerifier,
    VerdictMemo,
    VerdictStatus,
    extract_code_block,
    format_error_report,
    judge,
    make_repairer,
    make_simplifier,
    make_verifier,
    parse_diagnostics,
)
from proofopt.errors import BackendUnavailable, ConfigError
from proofopt.linter import lint_fixpoint
from proofopt.mocks import MockRepairer, MockSimplifier, MockVerifier
from proofopt.records import from_json

from conftest import HANG_UP, choices, ends, mock_cfg, pid_in, running


def test_config_validation():
    with pytest.raises(ConfigError):
        BackendConfig(kind="mock", timeout=0)
    with pytest.raises(ConfigError):
        BackendConfig(kind="mock", max_parallel=0)
    with pytest.raises(ConfigError):
        BackendConfig(kind="mock", retries=0)
    with pytest.raises(ConfigError):
        BackendConfig(kind="mock", top_p=0)


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="frobnicate"):
        from_json(BackendConfig, {"kind": "mock", "frobnicate": 1}, "backend", ConfigError, True)
    with pytest.raises(ConfigError, match="missing field 'kind'"):
        from_json(BackendConfig, {"timeout": 5}, "backend", ConfigError, True)


def test_factories_reject_wrong_kinds():
    with pytest.raises(ConfigError):
        make_verifier(BackendConfig(kind="http_simplifier", endpoint_url="http://x"))
    with pytest.raises(ConfigError):
        make_simplifier(BackendConfig(kind="subprocess_verifier", command_template="x"))
    with pytest.raises(ConfigError):
        make_repairer(BackendConfig(kind="subprocess_verifier", command_template="x"))
    with pytest.raises(ConfigError):
        make_verifier(BackendConfig(kind="subprocess_verifier"))


def test_parse_diagnostics():
    out = "foo.lean:3:7: error: unknown identifier 'zz'\nnoise\nfoo.lean:1:0: warning: hm"
    diags = parse_diagnostics(out)
    assert [(d.severity, d.line, d.column) for d in diags] == [("error", 3, 7), ("warning", 1, 0)]
    # a line that starts no message continues the one before it
    assert diags[0].message == "unknown identifier 'zz'\nnoise"
    # lines before the first message, and a message's trailing blank lines, are dropped
    assert parse_diagnostics("lake: building\n" + out + "\n\n  \n") == diags


def test_extract_code_block():
    assert extract_code_block("text\n```lean4\nrfl\n```\nmore") == "rfl"
    assert extract_code_block("```lean\na\nb\n```") == "a\nb"
    assert extract_code_block("no fence") is None
    assert extract_code_block("```lean4\n\n```") is None


def test_format_error_report_marks_lines():
    source = "theorem t : x := by\n  bad_tactic\n  rfl"
    diags = parse_diagnostics("f.lean:2:2: error: unknown tactic")
    report = format_error_report(source, diags)
    lines = report.splitlines()
    i = lines.index("  bad_tactic")
    assert lines[i + 1 : i + 4] == ["<error>", "unknown tactic", "</error>"]


_LINT = Diagnostic("warning", 2, 2, "'skip' tactic does nothing")


@pytest.mark.parametrize(
    "diagnostics, clean_exit, status",
    [
        ((Diagnostic("error", 2, 2, "unknown tactic"), _LINT), True, VerdictStatus.INVALID),
        ((Diagnostic("warning", 1, 0, SORRY_WARNING),), True, VerdictStatus.INVALID),
        ((Diagnostic("info", 1, 0, SORRY_WARNING),), True, VerdictStatus.INVALID),
        ((_LINT, Diagnostic("info", 1, 0, "linter enabled")), True, VerdictStatus.VALID),
        ((_LINT,), False, VerdictStatus.INVALID),
    ],
    ids=["error", "sorry-warning", "sorry-info", "lint-only", "unclean-exit-warnings-only"],
)
def test_judge_decides_a_finished_check(diagnostics, clean_exit, status):
    verdict = judge(list(diagnostics), clean_exit, heartbeats=7)
    assert verdict.status is status
    assert verdict.diagnostics == diagnostics
    assert verdict.heartbeats == 7


def test_mock_verdict_carries_its_wall_time():
    verifier = MockVerifier(mock_cfg(fail_token="FAIL"))
    for source in ("t := by\n  rfl", "t := by\n  FAIL", "no delimiter"):
        assert verifier.verify(source).wall_time > 0


def test_mock_verifier_rules():
    verifier = MockVerifier(mock_cfg(fail_token="FAIL", timeout_token="SLOW"))
    assert verifier.verify("t := by\n  rfl").ok
    bad = verifier.verify("t := by\n  FAIL")
    assert bad.status is VerdictStatus.INVALID
    assert bad.diagnostics[0].severity == "error"
    assert verifier.verify("t := by\n  SLOW").status is VerdictStatus.TIMEOUT
    assert verifier.verify("no delimiter").status is VerdictStatus.INVALID
    assert verifier.calls == 4


@pytest.mark.parametrize("token", ["sorry", "admit"])
def test_mock_verifier_rejects_a_sorry(token):
    verdict = MockVerifier(mock_cfg()).verify(f"theorem t : 1 = 2 := by\n  {token}")
    assert verdict.status is VerdictStatus.INVALID
    assert [(d.severity, d.message) for d in verdict.diagnostics] == [
        ("warning", "declaration uses 'sorry'")
    ]


def test_mock_verifier_reads_a_sorry_as_lean_does():
    """Lean reads the sorry between two block comments, which the metric's
    greedy rule deletes with them."""
    verdict = MockVerifier(mock_cfg()).verify("theorem a : 1 = 1 := by\n  /- -/ sorry /- -/")
    assert verdict.status is VerdictStatus.INVALID


def test_mock_verifier_require_token():
    verifier = MockVerifier(mock_cfg(require_token="rfl"))
    assert verifier.verify("t := by\n  rfl").ok
    assert not verifier.verify("t := by\n  simp").ok


def test_mock_verifier_lint_and_heartbeats():
    verifier = MockVerifier(mock_cfg(noop_tactics=["skip"], heartbeats_per_token=10))
    verdict = verifier.verify("t := by\n  skip\n  rfl", want_heartbeats=True)
    assert verdict.ok
    assert verdict.heartbeats == 20  # two proof-body tokens, statement not counted
    noops = [d for d in verdict.diagnostics if "does nothing" in d.message]
    assert len(noops) == 1 and noops[0].line == 2


def test_mock_simplifier_determinism():
    cfg = mock_cfg(mode="drop_lines", seed=42)
    source = "t := by\n  a\n  b\n  c\n  d"
    first = MockSimplifier(cfg).simplify(source, 8, temperature=1.0)
    second = MockSimplifier(cfg).simplify(source, 8, temperature=1.0)
    assert first == second
    assert len(first) == 8
    different_temp = MockSimplifier(cfg).simplify(source, 8, temperature=0.5)
    assert first != different_temp


def test_mock_simplifier_modes():
    source = "t := by\n  skip\n  rfl"
    const = MockSimplifier(mock_cfg(mode="constant", proof_body="simp"))
    assert const.simplify(source, 2) == ["t := by\n  simp"] * 2
    echo = MockSimplifier(mock_cfg(mode="echo"))
    assert echo.simplify(source, 1) == ["t := by\n  skip\n  rfl"]
    with pytest.raises(ValueError):
        echo.simplify(source, 0)


def test_mock_repairer_modes():
    report = "  bad\n<error>\nboom\n</error>"
    delete = MockRepairer(mock_cfg(mode="delete_flagged"))
    fixed = delete.repair("t", "  bad\n  rfl", report)
    assert fixed == ["t := by\n  rfl"]
    shorter = MockRepairer(mock_cfg(mode="shorter", proof_body="rfl"))
    assert shorter.repair("t", "  x", report) == ["t := by\n  rfl"]
    longer = MockRepairer(mock_cfg(mode="longer", padding=2))
    assert longer.repair("t", "  x", report)[0].count("skip") == 2
    with pytest.raises(ValueError):
        delete.repair("t", "  x", "")


def _fake_checker(tmp_path, script: str) -> str:
    path = tmp_path / "checker.sh"
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_subprocess_verifier_valid(tmp_path):
    command = _fake_checker(tmp_path, 'exit 0\n')
    verifier = SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=f"{command} {{file}}")
    )
    verdict = verifier.verify("t := by\n  rfl")
    assert verdict.ok
    assert verdict.wall_time > 0


def test_subprocess_verifier_diagnostics(tmp_path):
    command = _fake_checker(
        tmp_path, 'echo "$1:2:0: error: unsolved goals"\nexit 1\n'
    )
    verifier = SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=f"{command} {{file}}")
    )
    verdict = verifier.verify("t := by\n  sorry")
    assert verdict.status is VerdictStatus.INVALID
    assert verdict.diagnostics[0].message == "unsolved goals"


def test_subprocess_verifier_rejects_a_sorry(tmp_path):
    command = _fake_checker(tmp_path, "echo \"$1:3:2: warning: declaration uses 'sorry'\"\nexit 0\n")
    verifier = SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=f"{command} {{file}}")
    )
    verdict = verifier.verify("theorem t : 1 = 2 := by\n  sorry")
    assert verdict.status is VerdictStatus.INVALID
    assert [(d.severity, d.line, d.message) for d in verdict.diagnostics] == [
        ("warning", 2, "declaration uses 'sorry'")
    ]


def test_subprocess_verifier_timeout(tmp_path):
    command = _fake_checker(tmp_path, "sleep 5\n")
    verifier = SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=f"{command} {{file}}", timeout=0.2)
    )
    assert verifier.verify("t := by rfl").status is VerdictStatus.TIMEOUT


def _sleeper_verifier(pidfile, timeout, sleep="sleep 6") -> SubprocessVerifier:
    """A checker whose shell starts sleep in the background, writes its pid
    to pidfile and waits for it."""
    template = f"sh -c '{sleep} & echo $! > {pidfile}; wait' {{file}}"
    return SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=template, timeout=timeout)
    )


def test_a_timed_out_check_kills_its_checkers_whole_process_group(tmp_path):
    pidfile = tmp_path / "sleep.pid"
    verdict = _sleeper_verifier(pidfile, 1).verify("t := by rfl")
    assert verdict.status is VerdictStatus.TIMEOUT
    assert ends(pid_in(pidfile))


@pytest.mark.skipif(shutil.which("setsid") is None, reason="needs setsid(1)")
def test_a_timed_out_check_returns_while_a_process_outside_its_group_holds_the_pipes(tmp_path):
    """A process the checker started in a new session escapes the group
    kill and keeps the output pipes open; the check still ends on time."""
    pidfile = tmp_path / "sleep.pid"
    start = time.monotonic()
    try:
        verdict = _sleeper_verifier(pidfile, 0.5, "setsid sleep 6").verify("t := by rfl")
        assert verdict.status is VerdictStatus.TIMEOUT
        assert time.monotonic() - start < 3
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid_in(pidfile), signal.SIGKILL)


def test_an_interrupted_check_kills_its_checkers_group_and_removes_its_file(
    tmp_path, monkeypatch
):
    checked_dir = tmp_path / "checked"
    checked_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(checked_dir))
    pidfile = tmp_path / "sleep.pid"
    interrupted = []

    def interrupt(proc, *args, **kwargs):
        interrupted.append(proc.pid)
        pid_in(pidfile)
        raise KeyboardInterrupt

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupt)
    with pytest.raises(KeyboardInterrupt):
        _sleeper_verifier(pidfile, 30).verify("t := by rfl")
    assert ends(pid_in(pidfile)) and not running(interrupted[0])
    assert list(checked_dir.iterdir()) == []


def test_subprocess_verifier_crash(tmp_path):
    command = _fake_checker(tmp_path, 'echo "segfault" >&2\nexit 139\n')
    verifier = SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=f"{command} {{file}}")
    )
    verdict = verifier.verify("t := by rfl")
    assert verdict.status is VerdictStatus.CRASH
    assert "segfault" in verdict.diagnostics[0].message


def test_subprocess_verifier_heartbeats_and_lint_wrappers(tmp_path):
    command = _fake_checker(
        tmp_path,
        'if grep -q count_heartbeats "$1"; then echo "used 4200 heartbeats"; fi\nexit 0\n',
    )
    verifier = SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=f"{command} {{file}}")
    )
    verdict = verifier.verify("t := by rfl", want_heartbeats=True)
    assert verdict.heartbeats == 4200
    assert verifier.verify("t := by rfl").heartbeats is None


# Flags `skip` lines under the lint option at their line in the checked file,
# the way Lean does, and reports heartbeats under #count_heartbeats.
_LINE_CHECKER = """\
if grep -q unusedTactic "$1"; then
  grep -n '^  skip$' "$1" | while IFS=: read -r n rest; do
    echo "$1:$n:2: warning: 'skip' tactic does nothing"
  done
  echo "$1:1:0: info: linter enabled"
fi
if grep -q count_heartbeats "$1"; then
  echo "$1:2:0: info: Used 4711 heartbeats, which is less than the current maximum of 200000"
fi
exit 0
"""


def _line_checker_verifier(tmp_path) -> SubprocessVerifier:
    command = _fake_checker(tmp_path, _LINE_CHECKER)
    return SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=f"{command} {{file}}")
    )


def test_subprocess_verifier_reports_source_lines(tmp_path):
    verifier = _line_checker_verifier(tmp_path)
    source = "theorem t : 1 = 1 := by\n  skip\n  rfl"
    for want_heartbeats in (False, True):
        verdict = verifier.verify(source, want_heartbeats=want_heartbeats)
        lines = {d.message: d.line for d in verdict.diagnostics}
        assert lines["'skip' tactic does nothing"] == 2
        # a position inside the prepended directives is reported as line 1
        assert lines["linter enabled"] == 1


def test_subprocess_verifier_heartbeats_ignore_digits_in_path(tmp_path, monkeypatch):
    digit_dir = tmp_path / "run7"
    digit_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(digit_dir))
    verifier = _line_checker_verifier(tmp_path)
    assert verifier.verify("t := by rfl", want_heartbeats=True).heartbeats == 4711
    assert SubprocessVerifier._parse_heartbeats("used 12 HEARTBEATS") == 12
    assert SubprocessVerifier._parse_heartbeats("/tmp/x9.lean:1:0: info: done") is None


# Echoes the checked file's last line in an error diagnostic, as UTF-8 with a
# byte that is not UTF-8 after it.
_ECHO_CHECKER = """\
import sys
last = open(sys.argv[1], encoding="utf-8").read().splitlines()[-1].strip()
sys.stdout.buffer.write(f"{sys.argv[1]}:2:0: error: {last} ".encode() + b"\\xff\\n")
"""


def _python_checker_verifier(tmp_path, checker=_ECHO_CHECKER) -> SubprocessVerifier:
    script = tmp_path / "checker.py"
    script.write_text(checker, encoding="utf-8")
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}}"
    return SubprocessVerifier(BackendConfig(kind="subprocess_verifier", command_template=command))


def test_subprocess_verifier_checker_io_is_utf8(tmp_path):
    verdict = _python_checker_verifier(tmp_path).verify("theorem t (n : ℕ) : n = n := by\n  rfl ⟨⟩")
    assert verdict.status is VerdictStatus.INVALID
    assert [d.message for d in verdict.diagnostics] == ["rfl ⟨⟩ �"]


# Reports unsolved goals at the checked file's line 3 as Lean does, the goal
# lines under the message's first line, and a line of its own on stderr.
_GOALS_CHECKER = """\
import sys
report = f"{sys.argv[1]}:3:2: error: unsolved goals\\nx : Nat\\n⊢ x + 0 = x\\n\\n"
sys.stdout.buffer.write(report.encode())
sys.stderr.write("checker finished\\n")
sys.exit(1)
"""


def test_subprocess_verifier_keeps_a_whole_message(tmp_path):
    source = "theorem t (x : Nat) : x + 0 = x := by\n  skip"
    verdict = _python_checker_verifier(tmp_path, _GOALS_CHECKER).verify(source)
    assert verdict.status is VerdictStatus.INVALID
    [diag] = verdict.diagnostics
    assert (diag.line, diag.message) == (2, "unsolved goals\nx : Nat\n⊢ x + 0 = x")
    report = format_error_report(source, verdict.diagnostics).splitlines()
    assert report[report.index("<error>"):] == [
        "<error>", "unsolved goals", "x : Nat", "⊢ x + 0 = x", "</error>"
    ]


@pytest.mark.parametrize("want_heartbeats", [False, True])
def test_subprocess_verifier_reads_a_message_at_line_0_as_line_1(tmp_path, want_heartbeats):
    checker = "import sys\nprint(sys.argv[1] + ':0:0: error: boom')\n"
    verifier = _python_checker_verifier(tmp_path, checker)
    verdict = verifier.verify("theorem t : 1 = 1 := by\n  rfl", want_heartbeats)
    assert verdict.status is VerdictStatus.INVALID
    assert [(d.line, d.message) for d in verdict.diagnostics] == [(1, "boom")]
    assert parse_diagnostics("f.lean:0:0: error: boom")[0].line == 1


def test_subprocess_verifier_leaves_no_file_for_a_source_that_is_not_utf8(tmp_path, monkeypatch):
    checked_dir = tmp_path / "checked"
    checked_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(checked_dir))
    verdict = _python_checker_verifier(tmp_path).verify("theorem t : 1 = 1 := by\n  \ud800")
    assert verdict.status is VerdictStatus.INVALID
    assert "not UTF-8" in verdict.diagnostics[0].message
    assert list(checked_dir.iterdir()) == []


def test_lint_fixpoint_on_subprocess_verifier_removes_skip(tmp_path):
    verifier = _line_checker_verifier(tmp_path)
    start = "theorem t : 1 = 1 := by\n  skip\n  rfl"
    assert lint_fixpoint(start, VerdictMemo(verifier), "theorem t : 1 = 1").text == (
        "theorem t : 1 = 1 := by\n  rfl"
    )


@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(backends.time, "sleep", slept.append)
    return slept


@pytest.fixture
def make_client():
    """HttpCompletionClient factory."""

    def make(url, **fields):
        return HttpCompletionClient(BackendConfig(kind="http_simplifier", endpoint_url=url, **fields))

    return make


def test_http_simplifier_retries_then_succeeds(endpoint, sleeps, monkeypatch):
    endpoint.replies = [
        HANG_UP,
        HANG_UP,
        (200, choices("```lean4\nt := by\n  rfl\n```", "no fence"), {}),
    ]
    monkeypatch.setenv(backends.API_KEY_ENV, "sekrit")
    simplifier = make_simplifier(
        BackendConfig(kind="http_simplifier", endpoint_url=endpoint.url, model="m", retries=3)
    )
    out = simplifier.simplify("theorem t : 1 = 1 := by\n  norm_num", 2, temperature=0.7)
    assert out == ["t := by\n  rfl"]
    assert simplifier.dropped_completions == 1
    calls = [r["payload"] for r in endpoint.requests]
    assert len(calls) == 3
    assert calls[-1]["n"] == 2 and calls[-1]["temperature"] == 0.7
    assert endpoint.requests[-1]["headers"]["Authorization"] == "Bearer sekrit"
    assert sleeps == [1.0, 2.0]


def test_http_client_gives_up_after_retries(endpoint, sleeps):
    endpoint.replies = [(503, {}, {})]
    simplifier = make_simplifier(
        BackendConfig(kind="http_simplifier", endpoint_url=endpoint.url, retries=2)
    )
    with pytest.raises(BackendUnavailable):
        simplifier.simplify("t := by rfl", 1)
    assert len(endpoint.requests) == 2


def test_http_client_does_not_retry_client_errors(endpoint, sleeps):
    endpoint.replies = [(400, {}, {})]
    simplifier = make_simplifier(
        BackendConfig(kind="http_simplifier", endpoint_url=endpoint.url, retries=3)
    )
    with pytest.raises(BackendUnavailable):
        simplifier.simplify("t := by rfl", 1)
    assert len(endpoint.requests) == 1  # a 4xx is the caller's fault, retrying cannot help


def test_http_repairer_renders_report(endpoint):
    repairer = make_repairer(
        BackendConfig(kind="http_repairer", endpoint_url=endpoint.url, retries=1)
    )
    out = repairer.repair("theorem t : 1 = 1", "  bad", "boom goes the proof")
    assert out == ["t := by\n  rfl"]
    prompts = [r["payload"]["messages"][0]["content"] for r in endpoint.requests]
    assert "boom goes the proof" in prompts[0]
    assert "theorem t : 1 = 1" in prompts[0]


@pytest.mark.parametrize(
    "body",
    [{}, {"choices": [{"message": {"content": None}}]}, {"choices": [{"text": "x"}]}, b"not json"],
    ids=["empty", "null-content", "no-message", "not-json"],
)
def test_http_client_retries_a_reply_without_completions(endpoint, sleeps, body, make_client):
    endpoint.replies = [(200, body, {})]
    client = make_client(endpoint.url, retries=2)
    with pytest.raises(BackendUnavailable):
        client.complete("p", 1, None)
    assert len(endpoint.requests) == 2
    assert sleeps == [1.0]


@pytest.mark.parametrize(
    "headers, slept",
    [
        ({"Retry-After": "7"}, [7]),
        ({}, [1.0]),
        ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, [1.0]),
        ({"Retry-After": "\u00b2"}, [1.0]),
        ({"Retry-After": "86400"}, [60.0]),  # capped at the backend's timeout
    ],
    ids=["seconds", "absent", "date", "superscript", "capped"],
)
def test_http_client_backs_off_on_429(endpoint, sleeps, headers, slept, make_client):
    endpoint.replies = [(429, {}, headers), (200, choices("done"), {})]
    client = make_client(endpoint.url, retries=3)
    assert client.complete("p", 1, None) == ["done"]
    assert len(endpoint.requests) == 2
    assert sleeps == slept


def test_http_client_does_not_follow_redirects(endpoint, sleeps, make_client):
    endpoint.replies = [(302, {}, {"Location": endpoint.url + "/elsewhere"})]
    client = make_client(endpoint.url, retries=3)
    with pytest.raises(BackendUnavailable):
        client.complete("p", 1, None)
    assert len(endpoint.requests) == 1
    assert sleeps == []


def test_http_client_resends_on_a_stale_connection(endpoint, sleeps, make_client):
    """The server closes each connection after its reply without saying so.
    Each request goes out on a new connection, so the second one costs no
    retry either."""
    endpoint.drop_after_reply = True
    client = make_client(endpoint.url, retries=1)
    assert client.complete("p", 1, None) == ["```lean4\nt := by\n  rfl\n```"]
    assert client.complete("p", 1, None) == ["```lean4\nt := by\n  rfl\n```"]
    assert sleeps == []
    assert len({r["client_port"] for r in endpoint.requests}) == 2


def test_http_client_uses_the_environment_proxy(endpoint, monkeypatch, make_client):
    monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{endpoint.server_address[1]}")
    target = "http://api.example.invalid/v1/chat/completions"
    client = make_client(target)
    client.complete("p", 1, None)
    assert endpoint.requests[0]["line"] == f"POST {target} HTTP/1.1"
    assert endpoint.requests[0]["headers"]["Host"] == "api.example.invalid"
    # no_proxy exempts a host: the request goes straight to it, in origin form
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    client = make_client(endpoint.url)
    client.complete("p", 1, None)
    assert endpoint.requests[1]["line"] == "POST /v1/chat/completions HTTP/1.1"
    # https goes through a CONNECT tunnel, which carries the proxy's credentials
    monkeypatch.setenv("https_proxy", f"http://user:pw@127.0.0.1:{endpoint.server_address[1]}")
    client = make_client("https://api.example.invalid/v1", retries=1)
    with pytest.raises(BackendUnavailable):  # the fixture refuses every tunnel
        client.complete("p", 1, None)
    assert endpoint.requests[2]["line"] == "CONNECT api.example.invalid:443 HTTP/1.0"
    assert endpoint.requests[2]["headers"]["Proxy-Authorization"] == "Basic dXNlcjpwdw=="


PROXY_ENVIRONMENTS = [
    {},
    {"http_proxy": "http://lower:1"},
    {"HTTP_PROXY": "http://upper:2"},
    {"HTTP_PROXY": "http://upper:2", "http_proxy": "http://lower:1"},
    {"http_proxy": "http://lower:1", "HTTP_PROXY": "http://upper:2"},
    {"HTTP_PROXY": "http://upper:2", "http_proxy": ""},
    {"HTTP_PROXY": "http://upper:2", "REQUEST_METHOD": "GET"},
    {"http_proxy": "http://lower:1", "REQUEST_METHOD": "POST"},
    {"HTTPS_PROXY": "http://upper:3", "REQUEST_METHOD": "GET"},
    {"all_proxy": "http://all:4", "ALL_PROXY": "http://all:5"},
    {"http_proxy": "p:8", "https_proxy": "http://u:pw@s:9", "no_proxy": "*"},
    {"https_proxy": "s:9", "no_proxy": "example.com"},
    {"http_proxy": "p:8", "NO_PROXY": ".Example.COM, 127.0.0.1:8080"},
    {"http_proxy": "p:8", "no_proxy": "localhost,,x.internal:1,[::1]"},
    {"http_proxy": "p:8", "no_proxy": "."},
    {"http_proxy": "p:8", "NO_PROXY": "example.com", "no_proxy": ""},
]
PROXY_HOSTS = [
    "example.com", "api.example.com", "EXAMPLE.com:8080", "notexample.com", "127.0.0.1",
    "127.0.0.1:8080", "127.0.0.1:80", "localhost:1", "x.internal:1", "x.internal:2",
    "[::1]:8080", "host.",
]


@pytest.mark.parametrize("environment", PROXY_ENVIRONMENTS, ids=range(len(PROXY_ENVIRONMENTS)))
def test_proxy_selection_matches_urllib(no_proxy_env, monkeypatch, environment):
    """The proxy for each scheme and host is the one urllib.request's
    environment rules choose, the guard in front of them included."""
    import urllib.request

    monkeypatch.delenv("REQUEST_METHOD", raising=False)
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    proxies = urllib.request.getproxies_environment()
    for scheme in ("http", "https"):
        for host in PROXY_HOSTS:
            bypassed = urllib.request.proxy_bypass_environment(host)
            expected = None if bypassed else proxies.get(scheme)
            assert backends._env_proxy(scheme, host) == expected, (scheme, host)


BODY = json.dumps(choices("first", "second")).encode()


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        + f"{20:x};ext=1\r\n".encode() + BODY[:20] + b"\r\n"
        + f"{len(BODY) - 20:X}\r\n".encode() + BODY[20:] + b"\r\n"
        + b"0\r\nX-Trailer: 1\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + BODY,
        b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n\r\n" + BODY,
    ],
    ids=["chunked", "until-close", "after-100-continue"],
)
def test_http_client_reads_replies_without_a_length(endpoint, sleeps, reply, make_client):
    endpoint.replies = [reply]
    assert make_client(endpoint.url, retries=1).complete("p", 2, None) == ["first", "second"]


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1f4\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n" + BODY,
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\n" + BODY,
        b"ICY 200 OK\r\n\r\n" + BODY,
    ],
    ids=["cut-short", "chunk-cut-short", "negative-length", "negative-chunk", "not-http"],
)
def test_http_client_retries_a_broken_reply(endpoint, sleeps, reply, make_client):
    """A reply that breaks HTTP framing is a transport failure: retried,
    never a traceback."""
    endpoint.replies = [reply, (200, choices("done"), {})]
    assert make_client(endpoint.url, retries=2).complete("p", 1, None) == ["done"]
    assert len(endpoint.requests) == 2
    assert sleeps == [1.0]


@pytest.mark.parametrize("via_proxy", [False, True], ids=["https-endpoint", "https-proxy"])
def test_https_to_a_plain_http_server_fails_after_retries(
    endpoint, sleeps, monkeypatch, make_client, via_proxy
):
    """An https hop, to the endpoint or (as urllib has it) to the proxy of
    an http request, is wrapped in TLS from ssl.create_default_context,
    which checks certificates and hostnames; a plain HTTP server fails the
    handshake on every attempt."""
    import ssl

    contexts = []
    default_context = ssl.create_default_context

    def spy():
        contexts.append(default_context())
        return contexts[-1]

    monkeypatch.setattr(ssl, "create_default_context", spy)
    url = endpoint.url.replace("http://", "https://")
    if via_proxy:
        monkeypatch.setenv("http_proxy", f"https://127.0.0.1:{endpoint.server_address[1]}")
        url = "http://api.example.invalid/v1"
    client = make_client(url, retries=2, timeout=0.5)
    with pytest.raises(BackendUnavailable, match="after 2 attempts"):
        client.complete("p", 1, None)
    assert sleeps == [1.0]
    assert len(contexts) == 2
    assert all(c.verify_mode == ssl.CERT_REQUIRED and c.check_hostname for c in contexts)
    assert endpoint.requests == []


def test_http_client_rejects_a_malformed_proxy(no_proxy_env, monkeypatch, make_client):
    for proxy in ("http://:3128", "http://proxy:port"):
        monkeypatch.setenv("https_proxy", proxy)
        with pytest.raises(ConfigError, match="proxy"):
            make_client("https://api.example.invalid/v1")


def test_http_client_refuses_an_api_key_that_would_split_a_header(endpoint, make_client, monkeypatch):
    monkeypatch.setenv(backends.API_KEY_ENV, "sekrit\r\nX-Injected: 1")
    with pytest.raises(ConfigError, match=backends.API_KEY_ENV):
        make_client(endpoint.url).complete("p", 1, None)
    assert endpoint.requests == []


@pytest.mark.parametrize(
    "url", ["", "api/v1", "ftp://host/v1", "http://host:port/v1", "http://host/v 1"]
)
def test_http_backends_reject_a_malformed_endpoint_url(url):
    with pytest.raises(ConfigError):
        make_simplifier(BackendConfig(kind="http_simplifier", endpoint_url=url))


def test_generator_counts_dropped_completions_exactly():
    generator = MockSimplifier(mock_cfg())
    unfenced = ["no fence here"] * 50
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(generator._extract_all, unfenced) for _ in range(400)]
            assert all(f.result(timeout=30) == [] for f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert generator.dropped_completions == 400 * 50


def test_admission_limits_concurrency():
    verifier = MockVerifier(mock_cfg(max_parallel=3))
    barrier = threading.Barrier(3, timeout=5)

    original = verifier._verify

    def slow_verify(source, want_heartbeats):
        barrier.wait()
        return original(source, want_heartbeats)

    verifier._verify = slow_verify
    with ThreadPoolExecutor(max_workers=12) as pool:
        list(pool.map(lambda i: verifier.verify("t := by rfl"), range(12)))
    assert verifier.admission.max_observed == 3


def test_api_key_not_read_from_config():
    cfg = BackendConfig(kind="http_simplifier", endpoint_url="http://api")
    assert not hasattr(cfg, "api_key")
    assert "api_key" not in BackendConfig.__dataclass_fields__
    assert backends.API_KEY_ENV == "PROOFOPT_API_KEY"
