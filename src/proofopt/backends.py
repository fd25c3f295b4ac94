"""Verifier, simplifier, and repairer backends.

Three families: subprocess proof checkers, HTTP completion endpoints, and
deterministic mocks for tests and dry runs. Every backend enforces its own
max_parallel admission, so callers may fan out freely.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import shlex
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import requests

from . import lexer, prompting
from .errors import BackendUnavailable, ConfigError

API_KEY_ENV = "PROOFOPT_API_KEY"


class VerdictStatus(str, Enum):
    VALID = "valid"
    INVALID = "invalid"
    TIMEOUT = "timeout"
    CRASH = "crash"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # error | warning | info
    line: int  # 1-based
    column: int  # 0-based
    message: str

    def __post_init__(self):
        if self.line < 1:
            raise ValueError("diagnostic line numbers are 1-based")


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    diagnostics: tuple[Diagnostic, ...] = ()
    heartbeats: int | None = None
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is VerdictStatus.VALID


@dataclass
class BackendConfig:
    kind: str  # subprocess_verifier | http_simplifier | http_repairer | mock
    command_template: str = ""
    endpoint_url: str = ""
    model: str = ""
    timeout: float = 60.0
    max_parallel: int = 4
    temperature: float = 1.0
    top_p: float = 0.95
    prompt_template_id: str = ""
    retries: int = 3
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.max_parallel < 1:
            raise ConfigError("max_parallel must be at least 1")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")

    @classmethod
    def from_json(cls, obj: dict) -> "BackendConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown backend config keys: {sorted(unknown)}")
        if "kind" not in obj:
            raise ConfigError("backend config needs a 'kind'")
        return cls(**obj)


# A checker diagnostic line: file:line:column: severity: message.
_DIAGNOSTIC = re.compile(
    r"^[^:\n]*:(?P<line>\d+):(?P<column>\d+): (?P<severity>error|warning|info): (?P<message>.*)$"
)
LINT_DIRECTIVE = "set_option linter.unusedTactic true in\n"
HEARTBEAT_DIRECTIVE = "set_option Elab.async false in\n#count_heartbeats in\n"
_HEARTBEAT_COUNT = re.compile(r"used\s+(\d+)\s+heartbeats", re.IGNORECASE)


def parse_diagnostics(output: str) -> tuple[Diagnostic, ...]:
    return tuple(
        Diagnostic(
            severity=m.group("severity"),
            line=int(m.group("line")),
            column=int(m.group("column")),
            message=m.group("message"),
        )
        for m in map(_DIAGNOSTIC.match, output.splitlines())
        if m
    )


_FENCE = re.compile(r"```lean4?\n(.*?)```", re.DOTALL)


def extract_code_block(completion: str) -> str | None:
    """First lean-fenced code block of a completion, or None."""
    m = _FENCE.search(completion)
    if m is None:
        return None
    block = m.group(1).strip("\n")
    return block if block.strip() else None


def truncate_error_report(report: str, limit: int) -> tuple[str, bool]:
    """Trim a long error report from the tail to fit a prompt budget."""
    if len(report) <= limit:
        return report, False
    return report[:limit], True


def format_error_report(source: str, diagnostics) -> str:
    """Render checker diagnostics with <error></error> markers at the
    offending source lines."""
    lines = source.splitlines()
    by_line: dict[int, list[Diagnostic]] = {}
    for diag in diagnostics:
        if diag.severity == "error":
            by_line.setdefault(diag.line, []).append(diag)
    if not by_line:
        return "\n".join(d.message for d in diagnostics)
    out = []
    for number, text in enumerate(lines, start=1):
        out.append(text)
        for diag in by_line.get(number, ()):
            out.append("<error>")
            out.append(diag.message)
            out.append("</error>")
    return "\n".join(out)


class _Admission:
    """Counting gate that also records the highest concurrency it saw."""

    def __init__(self, limit: int):
        self._sem = threading.BoundedSemaphore(limit)
        self._lock = threading.Lock()
        self._inflight = 0
        self.max_observed = 0

    def __enter__(self):
        self._sem.acquire()
        with self._lock:
            self._inflight += 1
            self.max_observed = max(self.max_observed, self._inflight)
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._inflight -= 1
        self._sem.release()
        return False


class Verifier:
    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self.admission = _Admission(cfg.max_parallel)

    def verify(self, source: str, want_heartbeats: bool = False) -> Verdict:
        """Check a source with the unused-tactic linter on. The lint option
        only adds warnings, so it never changes a verdict's status."""
        with self.admission:
            return self._verify(source, want_heartbeats)

    def _verify(self, source, want_heartbeats) -> Verdict:
        raise NotImplementedError


class SubprocessVerifier(Verifier):
    """Runs a checker command on a temp file holding the source.

    The command template takes {file} and {timeout} placeholders. A proof is
    valid iff the process exits zero and emits no error diagnostics. The
    lint directive is always prepended, the heartbeat directive when asked
    for. Diagnostics come back at lines of the source: the checker reports
    lines of the file, so the lines of the prepended directives are
    subtracted, and a line inside the directives is reported as line 1.
    """

    def _verify(self, source, want_heartbeats):
        text = LINT_DIRECTIVE + source
        if want_heartbeats:
            text = HEARTBEAT_DIRECTIVE + text
        offset = text.count("\n", 0, len(text) - len(source))
        start = time.monotonic()
        with tempfile.NamedTemporaryFile("w", suffix=".lean", delete=False) as handle:
            handle.write(text)
            path = handle.name
        try:
            command = [
                part.replace("{file}", path).replace("{timeout}", str(self.cfg.timeout))
                for part in shlex.split(self.cfg.command_template)
            ]
            try:
                proc = subprocess.run(
                    command, capture_output=True, text=True, timeout=self.cfg.timeout
                )
            except subprocess.TimeoutExpired:
                return Verdict(VerdictStatus.TIMEOUT, wall_time=time.monotonic() - start)
            except OSError as exc:
                return Verdict(
                    VerdictStatus.CRASH,
                    diagnostics=(Diagnostic("error", 1, 0, str(exc)),),
                    wall_time=time.monotonic() - start,
                )
            elapsed = time.monotonic() - start
            diagnostics = tuple(
                replace(d, line=max(1, d.line - offset))
                for d in parse_diagnostics(proc.stdout + "\n" + proc.stderr)
            )
            errors = [d for d in diagnostics if d.severity == "error"]
            if proc.returncode != 0 and not diagnostics:
                crash_info = (Diagnostic("error", 1, 0, proc.stderr.strip() or "checker died"),)
                return Verdict(VerdictStatus.CRASH, diagnostics=crash_info, wall_time=elapsed)
            status = (
                VerdictStatus.VALID
                if proc.returncode == 0 and not errors
                else VerdictStatus.INVALID
            )
            heartbeats = None
            if want_heartbeats and status in (VerdictStatus.VALID, VerdictStatus.INVALID):
                heartbeats = self._parse_heartbeats(proc.stdout)
            return Verdict(status, diagnostics=diagnostics, heartbeats=heartbeats, wall_time=elapsed)
        finally:
            os.unlink(path)

    @staticmethod
    def _parse_heartbeats(stdout: str) -> int | None:
        m = _HEARTBEAT_COUNT.search(stdout)
        return int(m.group(1)) if m else None


_NOOP_MESSAGE = "'{}' tactic does nothing"


class MockVerifier(Verifier):
    """Deterministic verifier for tests.

    Rules, all configurable through BackendConfig.options:
      fail_token      proof is invalid iff this token occurs (default FAIL)
      require_token   when set, proof must also contain this token to be valid
      noop_tactics    tokens reported as do-nothing tactics (default none)
      heartbeats_per_token  heartbeat count is tokens * this factor
      timeout_token   presence forces a timeout verdict
    """

    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        opts = cfg.options
        self.fail_token = opts.get("fail_token", "FAIL")
        self.require_token = opts.get("require_token")
        self.noop_tactics = frozenset(opts.get("noop_tactics", ()))
        self.heartbeats_per_token = int(opts.get("heartbeats_per_token", 100))
        self.timeout_token = opts.get("timeout_token")
        self.calls = 0

    def _verify(self, source, want_heartbeats):
        self.calls += 1
        try:
            body = lexer.strip_comments(lexer.strip_statement(source))
        except Exception:
            return Verdict(
                VerdictStatus.INVALID,
                diagnostics=(Diagnostic("error", 1, 0, "no proof body"),),
            )
        token_lines = lexer.lex(body)
        flat = [t for line in token_lines for t in line if t]
        if self.timeout_token and self.timeout_token in flat:
            return Verdict(VerdictStatus.TIMEOUT)
        diagnostics = []
        status = VerdictStatus.VALID
        if self.fail_token in flat:
            status = VerdictStatus.INVALID
            line, col = self._locate(source, self.fail_token)
            diagnostics.append(Diagnostic("error", line, col, f"unknown identifier '{self.fail_token}'"))
        if self.require_token and self.require_token not in flat:
            status = VerdictStatus.INVALID
            diagnostics.append(Diagnostic("error", 1, 0, f"missing '{self.require_token}'"))
        diagnostics.extend(self._lint_diagnostics(source))
        heartbeats = None
        if want_heartbeats:
            heartbeats = len(flat) * self.heartbeats_per_token
        return Verdict(status, diagnostics=tuple(diagnostics), heartbeats=heartbeats)

    @staticmethod
    def _locate(source: str, token: str) -> tuple[int, int]:
        for number, text in enumerate(source.splitlines(), start=1):
            col = text.find(token)
            if col != -1:
                return number, col
        return 1, 0

    def _lint_diagnostics(self, source: str):
        found = []
        for number, text in enumerate(source.splitlines(), start=1):
            for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_']*", text):
                if m.group(0) in self.noop_tactics:
                    found.append(
                        Diagnostic("warning", number, m.start(), _NOOP_MESSAGE.format(m.group(0)))
                    )
        return found


class Generator:
    """Shared machinery for simplifier and repairer backends."""

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self.admission = _Admission(cfg.max_parallel)
        self.dropped_completions = 0

    def _extract_all(self, completions: list[str]) -> list[str]:
        candidates = []
        for completion in completions:
            block = extract_code_block(completion)
            if block is None:
                self.dropped_completions += 1
            else:
                candidates.append(block)
        return candidates


class Simplifier(Generator):
    def simplify(
        self, source: str, k: int, temperature: float | None = None, context: str = ""
    ) -> list[str]:
        """Request k candidate rewrites of a statement-plus-proof.

        ``context`` is extra prompt material (dependency statements) shown
        to the model but never part of the returned candidates.
        """
        if k < 1:
            raise ValueError("k must be positive")
        with self.admission:
            return self._simplify(source, k, temperature, context)

    def _simplify(self, source, k, temperature, context) -> list[str]:
        raise NotImplementedError


class Repairer(Generator):
    def repair(
        self,
        statement: str,
        failed_proof: str,
        error_report: str,
        n: int = 1,
        temperature: float | None = None,
    ) -> list[str]:
        if not error_report:
            raise ValueError("repair needs a nonempty error report")
        with self.admission:
            return self._repair(statement, failed_proof, error_report, n, temperature)

    def _repair(self, statement, failed_proof, error_report, n, temperature) -> list[str]:
        raise NotImplementedError


class HttpCompletionClient:
    """Chat-completion endpoint client with retry on transport failures."""

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg

    def complete(self, prompt: str, n: int, temperature: float | None) -> list[str]:
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.cfg.temperature if temperature is None else temperature,
            "top_p": self.cfg.top_p,
            "n": n,
        }
        headers = {}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        delay = 1.0
        last_error: Exception | None = None
        for attempt in range(self.cfg.retries):
            try:
                response = requests.post(
                    self.cfg.endpoint_url,
                    json=payload,
                    headers=headers,
                    timeout=self.cfg.timeout,
                )
                if response.status_code >= 500:
                    raise requests.RequestException(f"server error {response.status_code}")
                if response.status_code >= 400:
                    # the request itself is bad; retrying cannot help
                    raise BackendUnavailable(
                        f"endpoint {self.cfg.endpoint_url} rejected the request "
                        f"with status {response.status_code}"
                    )
                body = response.json()
                return [choice["message"]["content"] for choice in body["choices"]]
            except requests.RequestException as exc:
                last_error = exc
                if attempt + 1 < self.cfg.retries:
                    time.sleep(delay)
                    delay *= 2
        raise BackendUnavailable(
            f"endpoint {self.cfg.endpoint_url} unreachable after {self.cfg.retries} attempts"
        ) from last_error


class HttpSimplifier(Simplifier):
    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        self.client = HttpCompletionClient(cfg)

    def _simplify(self, source, k, temperature, context):
        shown = f"{context}\n\n{source}" if context else source
        prompt = prompting.render(self.cfg.prompt_template_id or "simplify", statement=shown)
        return self._extract_all(self.client.complete(prompt, k, temperature))


class HttpRepairer(Repairer):
    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        self.client = HttpCompletionClient(cfg)

    def _repair(self, statement, failed_proof, error_report, n, temperature):
        prompt = prompting.render(
            self.cfg.prompt_template_id or "repair",
            formal_statement=statement,
            lean_proof=failed_proof,
            error_message_for_prev_round=error_report,
        )
        if temperature is None:
            temperature = self.cfg.temperature
        return self._extract_all(self.client.complete(prompt, n, temperature))


def _seeded_rng(*parts) -> random.Random:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class MockSimplifier(Simplifier):
    """Deterministic candidate generator for tests.

    Modes (options["mode"]):
      strip_noops   delete lines whose stripped text is in options["noop_lines"]
      drop_lines    per-candidate seeded random deletion of proof lines
      echo          return the input unchanged
      constant      always return options["proof_body"] as the proof
    The seeded modes derive their randomness from (seed, source, temperature,
    candidate index) only, so runs and resumed runs agree.
    """

    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        opts = cfg.options
        self.mode = opts.get("mode", "echo")
        self.seed = opts.get("seed", 0)
        self.noop_lines = tuple(opts.get("noop_lines", ()))
        self.proof_body = opts.get("proof_body", "rfl")
        self.drop_probability = float(opts.get("drop_probability", 0.35))

    def _simplify(self, source, k, temperature, context):
        head, sep, proof = source.partition(":= by")
        if not sep:
            return []
        out = []
        for index in range(k):
            out.append(self._candidate(head, proof, temperature, index))
        return out

    def _candidate(self, head, proof, temperature, index) -> str:
        lines = proof.strip("\n").splitlines()
        if self.mode == "strip_noops":
            kept = [l for l in lines if l.strip() not in self.noop_lines]
            return head + ":= by\n" + "\n".join(kept)
        if self.mode == "constant":
            return head + ":= by\n  " + self.proof_body
        if self.mode == "drop_lines":
            rng = _seeded_rng(self.seed, head, proof, temperature, index)
            kept = [l for l in lines if not (l.strip() and rng.random() < self.drop_probability)]
            if not kept:
                kept = lines[:1]
            return head + ":= by\n" + "\n".join(kept)
        return head + ":= by\n" + "\n".join(lines)


class MockRepairer(Repairer):
    """Deterministic repairer for tests.

    Modes: delete_flagged (drop lines named in <error> blocks), shorter
    (return options["proof_body"]), longer (append options["padding"] copies
    of a no-op line).
    """

    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        opts = cfg.options
        self.mode = opts.get("mode", "delete_flagged")
        self.proof_body = opts.get("proof_body", "rfl")
        self.padding = int(opts.get("padding", 8))

    def _repair(self, statement, failed_proof, error_report, n, temperature):
        if self.mode == "shorter":
            fixed = statement + " := by\n  " + self.proof_body
        elif self.mode == "longer":
            pad = "\n".join("  skip" for _ in range(self.padding))
            fixed = statement + " := by\n" + failed_proof.rstrip("\n") + "\n" + pad
        else:
            flagged = self._flagged_lines(error_report)
            kept = [l for l in failed_proof.splitlines() if l not in flagged]
            fixed = statement + " := by\n" + "\n".join(kept)
        return [fixed] * n

    @staticmethod
    def _flagged_lines(error_report: str) -> set[str]:
        lines = error_report.splitlines()
        flagged = set()
        for i, text in enumerate(lines):
            if text == "<error>" and i > 0:
                flagged.add(lines[i - 1])
        return flagged


def make_verifier(cfg: BackendConfig) -> Verifier:
    if cfg.kind == "subprocess_verifier":
        if not cfg.command_template:
            raise ConfigError("subprocess verifier needs a command_template")
        return SubprocessVerifier(cfg)
    if cfg.kind == "mock":
        return MockVerifier(cfg)
    raise ConfigError(f"not a verifier kind: {cfg.kind!r}")


def make_simplifier(cfg: BackendConfig) -> Simplifier:
    if cfg.kind == "http_simplifier":
        if not cfg.endpoint_url:
            raise ConfigError("http simplifier needs an endpoint_url")
        return HttpSimplifier(cfg)
    if cfg.kind == "mock":
        return MockSimplifier(cfg)
    raise ConfigError(f"not a simplifier kind: {cfg.kind!r}")


def make_repairer(cfg: BackendConfig) -> Repairer:
    if cfg.kind == "http_repairer":
        if not cfg.endpoint_url:
            raise ConfigError("http repairer needs an endpoint_url")
        return HttpRepairer(cfg)
    if cfg.kind == "mock":
        return MockRepairer(cfg)
    raise ConfigError(f"not a repairer kind: {cfg.kind!r}")
