import os
import stat
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from proofopt import backends
from proofopt.backends import (
    BackendConfig,
    MockRepairer,
    MockSimplifier,
    MockVerifier,
    SubprocessVerifier,
    VerdictStatus,
    extract_code_block,
    format_error_report,
    make_repairer,
    make_simplifier,
    make_verifier,
    parse_diagnostics,
    truncate_error_report,
)
from proofopt.errors import BackendUnavailable, ConfigError
from proofopt.linter import lint_fixpoint
from proofopt.records import ProofRecord

from conftest import mock_cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        BackendConfig(kind="mock", timeout=0)
    with pytest.raises(ConfigError):
        BackendConfig(kind="mock", max_parallel=0)
    with pytest.raises(ConfigError):
        BackendConfig(kind="mock", top_p=0)


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        BackendConfig.from_json({"kind": "mock", "frobnicate": 1})
    with pytest.raises(ConfigError):
        BackendConfig.from_json({"timeout": 5})


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
    assert diags[0].message == "unknown identifier 'zz'"


def test_extract_code_block():
    assert extract_code_block("text\n```lean4\nrfl\n```\nmore") == "rfl"
    assert extract_code_block("```lean\na\nb\n```") == "a\nb"
    assert extract_code_block("no fence") is None
    assert extract_code_block("```lean4\n\n```") is None


def test_truncate_error_report():
    assert truncate_error_report("abc", 10) == ("abc", False)
    assert truncate_error_report("abcdef", 4) == ("abcd", True)


def test_format_error_report_marks_lines():
    source = "theorem t : x := by\n  bad_tactic\n  rfl"
    diags = parse_diagnostics("f.lean:2:2: error: unknown tactic")
    report = format_error_report(source, diags)
    lines = report.splitlines()
    i = lines.index("  bad_tactic")
    assert lines[i + 1 : i + 4] == ["<error>", "unknown tactic", "</error>"]


def test_mock_verifier_rules():
    verifier = MockVerifier(mock_cfg(fail_token="FAIL", timeout_token="SLOW"))
    assert verifier.verify("t := by\n  rfl").ok
    bad = verifier.verify("t := by\n  FAIL")
    assert bad.status is VerdictStatus.INVALID
    assert bad.diagnostics[0].severity == "error"
    assert verifier.verify("t := by\n  SLOW").status is VerdictStatus.TIMEOUT
    assert verifier.verify("no delimiter").status is VerdictStatus.INVALID
    assert verifier.calls == 4


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
    strip = MockSimplifier(mock_cfg(mode="strip_noops", noop_lines=["skip"]))
    assert strip.simplify(source, 1) == ["t := by\n  rfl"]
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
    assert shorter.repair("t", "  x", report, n=2) == ["t := by\n  rfl"] * 2
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


def test_subprocess_verifier_timeout(tmp_path):
    command = _fake_checker(tmp_path, "sleep 5\n")
    verifier = SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=f"{command} {{file}}", timeout=0.2)
    )
    assert verifier.verify("t := by rfl").status is VerdictStatus.TIMEOUT


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


def test_lint_fixpoint_on_subprocess_verifier_removes_skip(tmp_path):
    verifier = _line_checker_verifier(tmp_path)
    start = ProofRecord(id="t", statement="theorem t : 1 = 1", proof="  skip\n  rfl")
    assert lint_fixpoint(start, verifier).proof == "  rfl"


class _Response:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        return self._payload


def _choices(*texts):
    return {"choices": [{"message": {"content": t}} for t in texts]}


def test_http_simplifier_retries_then_succeeds(monkeypatch):
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append(json)
        if len(calls) < 3:
            raise requests.ConnectionError("down")
        return _Response(payload=_choices("```lean4\nt := by\n  rfl\n```", "no fence"))

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(backends.time, "sleep", lambda s: None)
    monkeypatch.setenv(backends.API_KEY_ENV, "sekrit")
    simplifier = make_simplifier(
        BackendConfig(kind="http_simplifier", endpoint_url="http://api", model="m", retries=3)
    )
    out = simplifier.simplify("theorem t : 1 = 1 := by\n  norm_num", 2, temperature=0.7)
    assert out == ["t := by\n  rfl"]
    assert simplifier.dropped_completions == 1
    assert len(calls) == 3
    assert calls[-1]["n"] == 2 and calls[-1]["temperature"] == 0.7


def test_http_client_gives_up_after_retries(monkeypatch):
    def fake_post(url, json=None, headers=None, timeout=None):
        return _Response(status_code=503)

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(backends.time, "sleep", lambda s: None)
    simplifier = make_simplifier(
        BackendConfig(kind="http_simplifier", endpoint_url="http://api", retries=2)
    )
    with pytest.raises(BackendUnavailable):
        simplifier.simplify("t := by rfl", 1)


def test_http_client_does_not_retry_client_errors(monkeypatch):
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append(1)
        return _Response(status_code=400)

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(backends.time, "sleep", lambda s: None)
    simplifier = make_simplifier(
        BackendConfig(kind="http_simplifier", endpoint_url="http://api", retries=3)
    )
    with pytest.raises(BackendUnavailable):
        simplifier.simplify("t := by rfl", 1)
    assert len(calls) == 1  # a 4xx is the caller's fault, retrying cannot help


def test_http_repairer_renders_report(monkeypatch):
    prompts = []

    def fake_post(url, json=None, headers=None, timeout=None):
        prompts.append(json["messages"][0]["content"])
        return _Response(payload=_choices("```lean4\nt := by\n  rfl\n```"))

    monkeypatch.setattr(requests, "post", fake_post)
    repairer = make_repairer(
        BackendConfig(kind="http_repairer", endpoint_url="http://api", retries=1)
    )
    out = repairer.repair("theorem t : 1 = 1", "  bad", "boom goes the proof")
    assert out == ["t := by\n  rfl"]
    assert "boom goes the proof" in prompts[0]
    assert "theorem t : 1 = 1" in prompts[0]


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
