"""Verifier, simplifier, and repairer backends, one class per role.

The make_* factories build a role's backend from its config's kind: a
subprocess checker, a chat-completion endpoint, or for kind mock the
deterministic mocks of proofopt.mocks. Every backend enforces its own
max_parallel admission, so callers may fan out freely.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from urllib.parse import urlsplit

from . import prompting
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


# What a JSON value must be to fill a BackendConfig field of each annotated type.
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "dict": dict}


@dataclass
class BackendConfig:
    kind: str  # a key of _BACKENDS, or mock
    command_template: str = ""
    endpoint_url: str = ""
    model: str = ""
    timeout: float = 60.0
    max_parallel: int = 4
    temperature: float = 1.0
    top_p: float = 0.95
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
    def from_json(cls, obj) -> "BackendConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"a backend config is a JSON object, not {obj!r}")
        fields = cls.__dataclass_fields__
        unknown = set(obj) - set(fields)
        if unknown:
            raise ConfigError(f"unknown backend config keys: {sorted(unknown)}")
        if "kind" not in obj:
            raise ConfigError("backend config needs a 'kind'")
        for name, value in obj.items():
            kind = fields[name].type
            if not isinstance(value, _JSON_TYPES[kind]):
                raise ConfigError(f"backend config {name} must be {kind}, not {value!r}")
        return cls(**obj)


# A checker diagnostic line: file:line:column: severity: message.
_DIAGNOSTIC = re.compile(
    r"^[^:\n]*:(?P<line>\d+):(?P<column>\d+): (?P<severity>error|warning|info): (?P<message>.*)$"
)
LINT_DIRECTIVE = "set_option linter.unusedTactic true in\n"
HEARTBEAT_DIRECTIVE = "set_option Elab.async false in\n#count_heartbeats in\n"
SORRY_WARNING = "declaration uses 'sorry'"
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
        only adds warnings, so it never changes a verdict's status. A
        subclass checks in _verify(source, want_heartbeats)."""
        with self.admission:
            return self._verify(source, want_heartbeats)


class SubprocessVerifier(Verifier):
    """Runs a checker command on a temp file holding the source.

    The command template takes {file} and {timeout} placeholders. A proof is
    valid iff the process exits zero and emits neither an error diagnostic
    nor the warning that a declaration uses sorry. The lint directive is
    always prepended, the heartbeat directive when asked for. Diagnostics
    come back at lines of the source: the checker reports lines of the
    file, so the lines of the prepended directives are subtracted, and a
    line inside the directives is reported as line 1.
    """

    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        try:
            self._argv = shlex.split(cfg.command_template)
        except ValueError as exc:
            raise ConfigError(f"command_template cannot be split: {exc}") from None
        if not any("{file}" in part for part in self._argv):
            raise ConfigError("command_template needs a {file} placeholder")

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
                for part in self._argv
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
            # Lean passes a proof that uses sorry (or admit) with only this warning
            errors = [
                d for d in diagnostics
                if d.severity == "error" or d.message.startswith(SORRY_WARNING)
            ]
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


class Generator:
    """Shared machinery for simplifier and repairer backends."""

    def __init__(self, cfg: BackendConfig, client: HttpCompletionClient | None = None):
        self.cfg = cfg
        self.client = client
        self.admission = _Admission(cfg.max_parallel)
        # counted under a lock: the repair stage calls one repairer from several threads
        self.dropped_completions = 0
        self._dropped_lock = threading.Lock()

    def _sample(self, prompt: str, n: int, temperature: float | None) -> list[str]:
        """The code blocks of n completions of prompt; completions without
        one are dropped and counted."""
        return self._extract_all(self.client.complete(prompt, n, temperature))

    def _extract_all(self, completions: list[str]) -> list[str]:
        blocks = [extract_code_block(completion) for completion in completions]
        candidates = [block for block in blocks if block is not None]
        with self._dropped_lock:
            self.dropped_completions += len(blocks) - len(candidates)
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
        shown = f"{context}\n\n{source}" if context else source
        return self._sample(prompting.render("simplify", statement=shown), k, temperature)


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
        prompt = prompting.render(
            "repair",
            formal_statement=statement,
            lean_proof=failed_proof,
            error_message_for_prev_round=error_report,
        )
        return self._sample(prompt, n, temperature)


def _completions(reply: bytes) -> list[str] | None:
    """The message contents of a chat-completion reply body, or None when
    the body does not hold a string at every choices[*].message.content."""
    try:
        contents = [choice["message"]["content"] for choice in json.loads(reply)["choices"]]
    except (ValueError, KeyError, TypeError):
        return None
    return contents if all(isinstance(c, str) for c in contents) else None


def _retry_after(value: str | None, default: float, cap: float) -> float:
    """Seconds named by an integer Retry-After header, at most cap, else
    default (for a date, say, or no header)."""
    value = (value or "").strip()
    return min(int(value), cap) if value.isascii() and value.isdigit() else default


def _opener():
    """A urllib opener that takes its proxies from the environment and
    follows no redirect: a 3xx reply raises HTTPError like a 4xx."""
    import urllib.request

    class RefuseRedirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(RefuseRedirects)


class HttpCompletionClient:
    """Chat-completion endpoint client over urllib.request.

    Each request goes out on a new connection. As urllib does it, a proxy
    comes from http_proxy, https_proxy and no_proxy, and TLS checks
    certificates against the default CA store (SSL_CERT_FILE and
    SSL_CERT_DIR override it). Transport errors, 429 and 5xx replies and 2xx
    replies without completions are retried with doubling backoff, a 429
    waiting the integer seconds of its Retry-After instead, but no longer
    than the backend's timeout; other replies of status 300 and up, a
    redirect too, are not retried.
    """

    def __init__(self, cfg: BackendConfig):
        try:
            parts = urlsplit(cfg.endpoint_url)
            parts.port  # raises on a port that is not a number
        except ValueError as exc:
            raise ConfigError(f"endpoint_url {cfg.endpoint_url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(f"{cfg.kind} needs an http or https endpoint_url")
        self.cfg = cfg
        self._opener = None  # built on the first request

    def complete(self, prompt: str, n: int, temperature: float | None) -> list[str]:
        # imported here, so that processes which make no request never load them
        import http.client
        import urllib.error
        import urllib.request

        if self._opener is None:
            self._opener = _opener()
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.cfg.temperature if temperature is None else temperature,
            "top_p": self.cfg.top_p,
            "n": n,
        }
        body = json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        delay = 1.0
        last_error: Exception | None = None
        for attempt in range(self.cfg.retries):
            wait = delay
            # a new Request for each attempt: the proxy handler rewrites the one it is given
            request = urllib.request.Request(self.cfg.endpoint_url, body, headers, method="POST")
            try:
                with self._opener.open(request, timeout=self.cfg.timeout) as response:
                    reply = response.read()
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code != 429 and exc.code < 500:
                    # the request itself is bad; retrying cannot help
                    raise BackendUnavailable(
                        f"endpoint {self.cfg.endpoint_url} rejected the request "
                        f"with status {exc.code}"
                    ) from None
                last_error = exc
                if exc.code == 429:
                    wait = _retry_after(exc.headers.get("Retry-After"), delay, self.cfg.timeout)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
            else:
                contents = _completions(reply)
                if contents is not None:
                    return contents
                last_error = BackendUnavailable(
                    f"status {response.status} reply without completions"
                )
            if attempt + 1 < self.cfg.retries:
                time.sleep(wait)
                delay *= 2
        raise BackendUnavailable(
            f"endpoint {self.cfg.endpoint_url} unreachable after {self.cfg.retries} attempts"
        ) from last_error


_BACKENDS = {
    # kind: (role, how to build it)
    "subprocess_verifier": ("verifier", SubprocessVerifier),
    "http_simplifier": ("simplifier", lambda cfg: Simplifier(cfg, HttpCompletionClient(cfg))),
    "http_repairer": ("repairer", lambda cfg: Repairer(cfg, HttpCompletionClient(cfg))),
}


def _make(role: str, cfg: BackendConfig):
    """The backend for a role that cfg.kind names. Kind mock builds the
    role's mock, from a module loaded only then."""
    if cfg.kind == "mock":
        from . import mocks

        return getattr(mocks, "Mock" + role.capitalize())(cfg)
    kind_role, build = _BACKENDS.get(cfg.kind, (None, None))
    if kind_role != role:
        raise ConfigError(f"not a {role} kind: {cfg.kind!r}")
    return build(cfg)


def make_verifier(cfg: BackendConfig) -> Verifier:
    return _make("verifier", cfg)


def make_simplifier(cfg: BackendConfig) -> Simplifier:
    return _make("simplifier", cfg)


def make_repairer(cfg: BackendConfig) -> Repairer:
    return _make("repairer", cfg)
