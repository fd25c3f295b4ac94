"""Verifier, simplifier, and repairer backends, one class per role, and
admissible, the one acceptance rule that adoption, lint and reward ask.

The make_* factories build a role's backend from its config's kind: a
subprocess checker, a chat-completion endpoint, or for kind mock the
deterministic mocks of proofopt.mocks. Every backend call runs on the
backend's own pool of max_parallel threads, so callers may fan out freely:
a call waits in the pool's queue for a thread, and map fans out a batch.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import re
import shlex
import signal
import subprocess
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, make_dataclass, replace
from enum import Enum
from urllib.parse import unquote, urlsplit

from . import lexer, prompting
from .errors import BackendUnavailable, ConfigError, NoProofDelimiter
from .records import Measure, from_json, split_source

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
class CandidateResult:
    """A checked text as a trace stores it: its status, and its score under
    the measure of the VerdictMemo that checked it, which only a VALID text
    has. A trace row read back may hold any pair of the two."""

    text: str
    status: VerdictStatus
    score: int | None = None


# The longest timeout, in seconds, that every wait takes: Popen.communicate's poll()
# counts milliseconds in a C int, a lock or socket takes threading.TIMEOUT_MAX.
_TIMEOUT_MAX = min(2**31 // 1000, int(threading.TIMEOUT_MAX))


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
        if not 0 < self.timeout <= _TIMEOUT_MAX:
            raise ConfigError(f"timeout must be positive and at most {_TIMEOUT_MAX} seconds")
        if self.max_parallel < 1:
            raise ConfigError("max_parallel must be at least 1")
        if self.retries < 1:
            raise ConfigError("retries must be at least 1")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
        if self.options and self.kind != "mock":
            raise ConfigError(f"options are read only by kind 'mock', not {self.kind!r}")


# The line that starts a checker message: file:line:column: severity: message.
_DIAGNOSTIC = re.compile(
    r"^[^:\n]*:(?P<line>\d+):(?P<column>\d+): (?P<severity>error|warning|info): (?P<message>.*)$"
)
LINT_DIRECTIVE = "set_option linter.unusedTactic true in\n"
HEARTBEAT_DIRECTIVE = "set_option Elab.async false in\n#count_heartbeats in\n"
SORRY_WARNING = "declaration uses 'sorry'"
SORRY_TOKENS = frozenset({"sorry", "admit"})  # what Lean passes with SORRY_WARNING alone
_HEARTBEAT_COUNT = re.compile(r"used\s+(\d+)\s+heartbeats", re.IGNORECASE)


def same_statement(statement: str, other: str) -> bool:
    """Whether two statements have the same lexer.tokens as Lean reads them:
    comments and layout aside, they state the same theorem. The statement
    clause of admissible, and dataset build's check of a result and an
    ancestor."""
    return lexer.tokens(statement, lean=True) == lexer.tokens(other, lean=True)


def admissible_text(text: str, statement: str) -> bool:
    """admissible's clauses on text alone, which dataset build also asks of
    a result: it splits by split_source, the rule of every record (a
    term-mode proof cannot become the next record, and a comment can
    swallow the delimiter), its statement is the incumbent's
    (same_statement), its body holds no sorry or admit token as Lean reads
    it (a comment or sorry_lemma is none), which a checker may pass without
    its warning, and the metric reads a body holding '/-' or '--' as Lean
    does (the same lexer.tokens either way)."""
    split = split_source(text)
    if split is None or not same_statement(split[0], statement):
        return False
    body = split[1]
    if not any(t in body for t in ("/-", "--", *SORRY_TOKENS)):
        return True  # the body is lexed only when it holds the text sought
    read = lexer.tokens(body, lean=True)
    return SORRY_TOKENS.isdisjoint(read) and lexer.tokens(body) == read


def admissible(entry: CandidateResult, statement: str) -> bool:
    """Whether entry may replace an incumbent proving statement, the one rule
    of adoption, the repair lint gate, lint rounds and reward: it verifies,
    has a score, and its text passes admissible_text."""
    scored = entry.status is VerdictStatus.VALID and entry.score is not None
    return scored and admissible_text(entry.text, statement)


def parse_diagnostics(output: str, offset: int = 0) -> tuple[Diagnostic, ...]:
    """The checker messages in output. A message starts at a line
    'file:line:col: severity: text', and each later line that starts none
    continues it, as the goals under Lean's 'unsolved goals' do; a message's
    trailing blank lines are dropped, and so is every line before the first.
    A message's line is its file line less offset, and 1 where that is less."""
    found = []  # (match, the message's lines)
    for text in output.splitlines():
        if m := _DIAGNOSTIC.match(text):
            found.append((m, [m["message"]]))
        elif found:
            found[-1][1].append(text)
    return tuple(
        Diagnostic(m["severity"], max(1, int(m["line"]) - offset), int(m["column"]),
                   re.sub(r"\n\s*\Z", "", "\n".join(lines)))
        for m, lines in found
    )


_FENCE = re.compile(r"```lean4?\n(.*?)```", re.DOTALL)


def extract_code_block(completion: str) -> str | None:
    """First lean-fenced code block of a completion, or None."""
    m = _FENCE.search(completion)
    if m is None:
        return None
    block = m.group(1).strip("\n")
    return block if block.strip() else None


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


def judge(diagnostics, clean_exit: bool = True, heartbeats: int | None = None) -> Verdict:
    """The verdict of a check that ran to its end: INVALID when the checker
    did not exit cleanly, reported an error, or warned at any severity that
    a declaration uses sorry (Lean passes a proof that uses sorry or admit
    with only that warning); VALID otherwise."""
    failed = not clean_exit or any(
        d.severity == "error" or d.message.startswith(SORRY_WARNING) for d in diagnostics
    )
    status = VerdictStatus.INVALID if failed else VerdictStatus.VALID
    return Verdict(status, tuple(diagnostics), heartbeats)


class _Backend:
    """A backend's config and its pool of max_parallel threads, each started
    when first needed: every call of the backend runs on one of them, so no
    more than max_parallel run at once."""

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self._worker = threading.local()  # .marked on this backend's pool threads
        self.pool = ThreadPoolExecutor(cfg.max_parallel, initializer=self._mark_worker)

    def _mark_worker(self) -> None:
        self._worker.marked = True

    def call(self, fn, *args):
        """fn(*args) on a pool thread: directly when the caller is one, else
        submitted in a copy of the caller's context, waiting in the pool's
        queue for a thread."""
        if getattr(self._worker, "marked", False):
            return fn(*args)
        return self.pool.submit(contextvars.copy_context().run, fn, *args).result()

    def map(self, fn, items: list) -> list:
        """fn over items on the pool, with the results in input order. Each
        call runs in a copy of its caller's context and must not itself call
        this backend's map. A failure cancels the calls not yet started."""
        futures = [self.pool.submit(contextvars.copy_context().run, fn, x) for x in items]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        """Wait for the pool's calls, then stop its threads; no call may follow."""
        self.pool.shutdown()


class Verifier(_Backend):
    def verify(self, source: str, want_heartbeats: bool = False) -> Verdict:
        """Check a source with the unused-tactic linter on. The lint option
        only adds warnings, so it never changes a verdict's status. A
        subclass checks in _verify(source, want_heartbeats); the verdict
        carries the wall time of that call, measured on the pool thread, so
        the wait for a thread is not part of it."""
        return self.call(self._timed_verify, source, want_heartbeats)

    def _timed_verify(self, source: str, want_heartbeats: bool) -> Verdict:
        start = time.monotonic()
        verdict = self._verify(source, want_heartbeats)
        return replace(verdict, wall_time=time.monotonic() - start)


class VerdictMemo:
    """Remembers the conclusive verdicts of the checks made for one proof.

    It is the one caller of Verifier.verify: every command checks through
    memos, one per proof in shorten and one per record in lint and
    filter-trivial. It is the one holder of the measure: it asks for
    heartbeats on every check or on none, scores under the measure
    (``check``), and keys on the source alone. Each text has one Future,
    which only a thread of the verifier's pool registers, once it runs: it
    then checks the text, and a concurrent caller for the same text waits
    on it and gets the same verdict, so concurrent requests never check one
    text twice, and a pool thread never waits on a check still queued
    behind it. Only VALID and INVALID verdicts are kept; a timeout, a crash
    or an exception is delivered to everyone waiting and its entry dropped,
    so the text is checked again when next asked for. A hit, or a wait on a
    check in flight, is answered on the caller's thread: it neither calls
    the verifier nor takes one of its pool threads. Every proof has its own
    statement, so checks never repeat across proofs and one memo per proof
    needs no size limit.
    """

    def __init__(self, verifier: Verifier, measure: Measure = Measure.TOKEN_LENGTH):
        self.verifier = verifier
        self.want_heartbeats = measure is Measure.HEARTBEATS
        self._lock = threading.Lock()
        self._verdicts: dict[str, Future] = {}

    def verify(self, source: str) -> Verdict:
        with self._lock:
            future = self._verdicts.get(source)
        return self.verifier.call(self._check_once, source) if future is None else future.result()

    def _check_once(self, source: str) -> Verdict:
        """verify on a pool thread: the text's verdict, checked here unless
        another thread registered its Future first."""
        mine = Future()
        with self._lock:
            future = self._verdicts.setdefault(source, mine)
        if future is not mine:
            return future.result()
        try:
            verdict = self.verifier.verify(source, self.want_heartbeats)
        except BaseException as exc:
            self._forget(source)
            mine.set_exception(exc)
            raise
        if verdict.status not in (VerdictStatus.VALID, VerdictStatus.INVALID):
            self._forget(source)
        mine.set_result(verdict)
        return verdict

    def _forget(self, source: str) -> None:
        with self._lock:
            del self._verdicts[source]

    def check(self, text: str) -> CandidateResult:
        """The check result of a statement-plus-proof: its status, and its
        score under the memo's measure when it verifies."""
        verdict = self.verify(text)
        if not verdict.ok:
            return CandidateResult(text, verdict.status)
        try:
            score = verdict.heartbeats if self.want_heartbeats else lexer.proof_length(text)
        except NoProofDelimiter:  # a completion that holds no proof body has no length
            score = None
        return CandidateResult(text, verdict.status, score)

    def score_bound(self, text: str) -> int:
        """The least score a check of text can give: its length under the
        length measure, which the check does not change, and 0 under
        heartbeats, which only the check counts."""
        return 0 if self.want_heartbeats else lexer.proof_length(text)


_checker_groups: set[int] = set()  # the process group of each running checker
_stopping = threading.Event()  # set by a signal: each check from then on raises


def _kill_checkers_first(signum, frame):
    """SIGKILL each running checker's group, which a signal sent to this
    process's group misses, then raise KeyboardInterrupt in the main thread,
    holding signum for a SIGTERM or SIGHUP, so that every cleanup runs."""
    _stopping.set()
    for pgid in _checker_groups.copy():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
    raise KeyboardInterrupt if signum == signal.SIGINT else KeyboardInterrupt(signum)


@contextlib.contextmanager
def kill_checkers_on_signals():
    """Within the context, _kill_checkers_first handles each of SIGINT,
    SIGTERM and SIGHUP that has its default handler: from such a signal on,
    every check of a SubprocessVerifier raises KeyboardInterrupt. A SIGTERM
    or SIGHUP then ends the process by its default at the context's end, as
    a Ctrl-C ends the interpreter. Enter from the main thread."""
    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        if signal.getsignal(signum) in (signal.SIG_DFL, signal.default_int_handler):
            signal.signal(signum, _kill_checkers_first)
    try:
        yield
    except KeyboardInterrupt as exc:
        for signum in exc.args:  # a SIGTERM or SIGHUP; a Ctrl-C holds none
            signal.signal(signum, signal.SIG_DFL)
            signal.raise_signal(signum)
        raise


class SubprocessVerifier(Verifier):
    """Runs a checker command on a temp file holding the source.

    The command template takes {file} and {timeout} placeholders. A run
    that exits nonzero without diagnostics is a crash; judge() decides
    every other run that ends, with a zero exit as the clean one. The lint
    directive is always prepended, the heartbeat directive when asked for.
    stdout and stderr are parsed apart, so a stderr line never continues a
    stdout message. Diagnostics come back at lines of the source: the
    checker reports lines of the file, so the lines of the prepended
    directives are subtracted, and a line inside the directives, or line 0,
    is reported as line 1. The checker runs in its own session, and a
    timeout, an exception while waiting, or a signal that
    kill_checkers_on_signals handles kills its whole process group.
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
        try:
            data = text.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate cannot reach the checker
            return judge((Diagnostic("error", 1, 0, f"source is not UTF-8: {exc}"),))
        fd, path = tempfile.mkstemp(suffix=".lean")
        try:
            with open(fd, "wb") as handle:
                handle.write(data)
            command = [
                part.replace("{file}", path).replace("{timeout}", str(self.cfg.timeout))
                for part in self._argv
            ]
            try:
                proc = subprocess.Popen(
                    command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    encoding="utf-8", errors="replace", start_new_session=True,
                )
            except OSError as exc:
                return Verdict(VerdictStatus.CRASH, (Diagnostic("error", 1, 0, str(exc)),))
            _checker_groups.add(proc.pid)
            with proc:
                try:
                    if not _stopping.is_set():  # read once the group is listed: none escapes
                        stdout, stderr = proc.communicate(timeout=self.cfg.timeout)
                    if _stopping.is_set():  # a signal ended the check: no verdict, not a crash
                        raise KeyboardInterrupt
                except BaseException as exc:
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()  # a process that left the group may hold the pipes open
                    if isinstance(exc, subprocess.TimeoutExpired):
                        return Verdict(VerdictStatus.TIMEOUT)
                    raise
                finally:
                    _checker_groups.discard(proc.pid)
        finally:
            os.unlink(path)
        diagnostics = parse_diagnostics(stdout, offset) + parse_diagnostics(stderr, offset)
        if proc.returncode != 0 and not diagnostics:
            crash_info = (Diagnostic("error", 1, 0, stderr.strip() or "checker died"),)
            return Verdict(VerdictStatus.CRASH, crash_info)
        heartbeats = self._parse_heartbeats(stdout, offset) if want_heartbeats else None
        return judge(diagnostics, proc.returncode == 0, heartbeats)

    @staticmethod
    def _parse_heartbeats(stdout: str, offset: int) -> int | None:
        """The count of the first 'used N heartbeats' message at a directive
        line, one of the file's first offset lines: never one the source logs."""
        for diag in parse_diagnostics(stdout):
            if diag.line <= offset and (m := _HEARTBEAT_COUNT.search(diag.message)):
                return int(m.group(1))
        return None


class Generator(_Backend):
    """Shared machinery for simplifier and repairer backends."""

    def __init__(self, cfg: BackendConfig, client: HttpCompletionClient | None = None):
        super().__init__(cfg)
        self.client = client
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
    def simplify(self, source: str, k: int, temperature: float | None = None) -> list[str]:
        """Request k candidate rewrites of a statement-plus-proof."""
        if k < 1:
            raise ValueError("k must be positive")
        return self.call(self._simplify, source, k, temperature)

    def _simplify(self, source, k, temperature) -> list[str]:
        return self._sample(prompting.render("simplify", statement=source), k, temperature)


class Repairer(Generator):
    def repair(self, statement: str, failed_proof: str, error_report: str) -> list[str]:
        """One completion, at the backend's temperature, fixing failed_proof."""
        if not error_report:
            raise ValueError("repair needs a nonempty error report")
        return self.call(self._repair, statement, failed_proof, error_report)

    def _repair(self, statement, failed_proof, error_report) -> list[str]:
        prompt = prompting.render(
            "repair",
            formal_statement=statement,
            lean_proof=failed_proof,
            error_message_for_prev_round=error_report,
        )
        return self._sample(prompt, 1, None)


# What the client reads of a chat-completion reply body: choices[*].message.content.
_Message = make_dataclass("_Message", [("content", str)])
_Choice = make_dataclass("_Choice", [("message", _Message)])
_Reply = make_dataclass("_Reply", [("choices", list[_Choice])])


def _completions(reply: bytes) -> list[str] | None:
    """The message contents of a chat-completion reply body, or None when
    the body does not hold a string at every choices[*].message.content."""
    try:
        choices = from_json(_Reply, json.loads(reply), "reply").choices
    except ValueError:  # not JSON, or a MalformedInput from from_json
        return None
    return [choice.message.content for choice in choices]


def _retry_after(value: str | None, default: float, cap: float) -> float:
    """Seconds named by an integer Retry-After header, at most cap, else
    default (for a date, say, or no header)."""
    value = (value or "").strip()
    return min(int(value), cap) if value.isascii() and value.isdigit() else default


class _BadReply(Exception):
    """A reply that does not parse as HTTP/1.1; retried like a dropped connection."""


_MAX_LINE = 65536  # longest status, header or chunk-size line read
_MAX_HEADERS = 100


def _env_proxy(scheme: str, hostport: str) -> str | None:
    """The proxy that urllib.request's environment rules choose for a
    <scheme> request to hostport, or None."""
    # checked first, so that a direct request never loads urllib.request and ssl
    if not any(value and name.lower() == scheme + "_proxy" for name, value in os.environ.items()):
        return None
    import urllib.request

    proxies = urllib.request.getproxies_environment()
    if urllib.request.proxy_bypass_environment(hostport, proxies):
        return None
    return proxies.get(scheme)


def _readline(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _BadReply(f"a reply line longer than {_MAX_LINE} bytes")
    return line


_STATUS_LINE = re.compile(rb"HTTP/[0-9.]+ +([1-9][0-9][0-9])(?:[ \r\n]|$)")


def _read_head(reader) -> tuple[int, dict[str, str]]:
    """The status and headers (names lowercased) of one reply head."""
    line = _readline(reader)
    m = _STATUS_LINE.match(line)
    if m is None:
        raise _BadReply(f"bad status line {line[:80]!r}")
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _readline(reader)
        if line in (b"\r\n", b"\n", b""):
            return int(m.group(1)), headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise _BadReply(f"bad header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    raise _BadReply(f"more than {_MAX_HEADERS} headers")


def _read_exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise _BadReply(f"connection closed {size - len(data)} bytes before the end of the body")
    return data


_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")


def _read_body(reader, headers: dict[str, str]) -> bytes:
    """A reply body framed by chunked transfer coding, by Content-Length,
    or else by the server closing the connection."""
    if headers.get("transfer-encoding", "").rsplit(",", 1)[-1].strip().lower() == "chunked":
        chunks = []
        while True:
            line = _readline(reader)
            m = _CHUNK_SIZE.fullmatch(line)
            if m is None:
                raise _BadReply(f"bad chunk size line {line[:80]!r}")
            size = int(m.group(1), 16)
            if size == 0:
                # trailer fields up to the blank line; a server may close instead
                while _readline(reader) not in (b"\r\n", b"\n", b""):
                    pass
                return b"".join(chunks)
            chunks.append(_read_exactly(reader, size))
            _readline(reader)  # the CRLF that ends the chunk
    if "content-length" in headers:
        length = headers["content-length"]
        if not (length.isascii() and length.isdigit()):
            raise _BadReply(f"bad Content-Length {length!r}")
        return _read_exactly(reader, int(length))
    return reader.read()


class HttpCompletionClient:
    """Chat-completion endpoint client on stdlib sockets.

    Each request is one HTTP/1.1 POST on a new connection that the server
    closes after its reply. A proxy comes from http_proxy, https_proxy and
    no_proxy as urllib.request takes it (all_proxy is not used): an http
    request goes to the proxy with the absolute URL as its target, an https
    one through a CONNECT tunnel, either carrying the proxy URL's
    credentials. TLS wraps only an https hop and checks certificates
    against the default CA store. Transport errors, 429 and
    5xx replies and 2xx replies without completions are retried with
    doubling backoff, a 429 waiting the integer seconds of its Retry-After
    instead, but no longer than the backend's timeout; other replies of
    status 300 and up, a redirect too, are not retried. The API key is read
    from the environment, and checked, when the client is built.
    """

    def __init__(self, cfg: BackendConfig):
        url = cfg.endpoint_url
        try:
            parts = urlsplit(url)
            port = parts.port  # raises on a port that is not a number
        except ValueError as exc:
            raise ConfigError(f"endpoint_url {url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(f"{cfg.kind} needs an http or https endpoint_url")
        if not url.isascii() or any(c.isspace() for c in url):
            raise ConfigError(f"endpoint_url {url!r} must be ASCII without spaces")
        api_key = os.environ.get(API_KEY_ENV)
        if api_key and not (api_key.isascii() and api_key.isprintable()):
            raise ConfigError(f"{API_KEY_ENV} must be printable ASCII")
        self._auth = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        self.cfg = cfg
        self._https = parts.scheme == "https"
        hostport = parts.netloc.rpartition("@")[2]
        self._host_header = hostport
        self._endpoint = (parts.hostname, port or (443 if self._https else 80))
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._hop = self._endpoint  # where the socket connects
        self._tls_name = parts.hostname if self._https else None  # the name TLS checks
        self._via_connect = False  # whether the hop is a proxy that tunnels to the endpoint
        self._proxy_headers = {}
        proxy = _env_proxy(parts.scheme, hostport)
        if proxy is not None:
            self._use_proxy(proxy, url.partition("#")[0])

    def _use_proxy(self, proxy: str, absolute_url: str) -> None:
        """Route requests through a proxy URL or bare host:port. As with
        urllib, an http request reaches an https proxy over TLS."""
        try:
            parts = urlsplit(proxy if "://" in proxy else "//" + proxy)
            port = parts.port
        except ValueError as exc:
            raise ConfigError(f"proxy {proxy!r}: {exc}") from None
        if not parts.hostname:
            raise ConfigError(f"proxy {proxy!r} names no host")
        proxy_tls = not self._https and parts.scheme == "https"
        self._hop = (parts.hostname, port or (443 if self._https or proxy_tls else 80))
        if parts.username and parts.password:
            import base64

            credentials = f"{unquote(parts.username)}:{unquote(parts.password)}".encode()
            self._proxy_headers["Proxy-Authorization"] = (
                "Basic " + base64.b64encode(credentials).decode("ascii")
            )
        if self._https:
            self._via_connect = True
        else:
            self._target = absolute_url
            self._tls_name = parts.hostname if proxy_tls else None

    def _connect(self):
        """A connection to send the request target on: to the endpoint, to
        an http proxy, or through a proxy's CONNECT tunnel to an https
        endpoint. Where the hop's scheme is https, TLS from the default
        context checks the certificate and hostname against the default CA
        store (SSL_CERT_FILE and SSL_CERT_DIR override it)."""
        import socket

        sock = socket.create_connection(self._hop, timeout=self.cfg.timeout)
        try:
            if self._via_connect:
                self._tunnel(sock)
            if self._tls_name is None:
                return sock
            import ssl  # loaded only for an https hop

            return ssl.create_default_context().wrap_socket(sock, server_hostname=self._tls_name)
        except BaseException:
            sock.close()
            raise

    def _tunnel(self, sock) -> None:
        host, port = self._endpoint
        authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        head = [f"CONNECT {authority} HTTP/1.0"]
        head += [f"{name}: {value}" for name, value in self._proxy_headers.items()]
        sock.sendall("\r\n".join([*head, "", ""]).encode("latin-1"))
        with sock.makefile("rb") as reader:
            status, _ = _read_head(reader)
        if status != 200:
            raise ConnectionError(f"proxy refused the tunnel with status {status}")

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, dict[str, str], bytes]:
        """Status, headers and body of the reply to one POST; the body is
        read only for a 2xx status."""
        head = [f"POST {self._target} HTTP/1.1", f"Host: {self._host_header}"]
        if not self._via_connect:  # a proxy's credentials go to the proxy alone
            headers = {**headers, **self._proxy_headers}
        head += [f"{name}: {value}" for name, value in headers.items()]
        head += [f"Content-Length: {len(body)}", "Connection: close", "", ""]
        with self._connect() as sock:
            sock.sendall("\r\n".join(head).encode("latin-1") + body)
            with sock.makefile("rb") as reader:
                status, reply_headers = _read_head(reader)
                while status < 200:  # interim replies such as 100 Continue
                    status, reply_headers = _read_head(reader)
                reply = _read_body(reader, reply_headers) if status < 300 else b""
        return status, reply_headers, reply

    def complete(self, prompt: str, n: int, temperature: float | None) -> list[str]:
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.cfg.temperature if temperature is None else temperature,
            "top_p": self.cfg.top_p,
            "n": n,
        }
        body = json.dumps(payload).encode()
        headers = {"Content-Type": "application/json", **self._auth}
        delay = 1.0
        last_error: Exception | None = None
        for attempt in range(self.cfg.retries):
            wait = delay
            try:
                status, reply_headers, reply = self._post(body, headers)
            except (OSError, _BadReply) as exc:
                last_error = exc
            else:
                if status == 429 or status >= 500:
                    last_error = BackendUnavailable(f"status {status} reply")
                    if status == 429:
                        wait = _retry_after(reply_headers.get("retry-after"), delay, self.cfg.timeout)
                elif status >= 300:
                    # the request itself is bad; retrying cannot help
                    raise BackendUnavailable(
                        f"endpoint {self.cfg.endpoint_url} rejected the request "
                        f"with status {status}"
                    )
                else:
                    contents = _completions(reply)
                    if contents is not None:
                        return contents
                    last_error = BackendUnavailable(f"status {status} reply without completions")
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
