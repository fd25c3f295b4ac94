import contextlib
import io
import json
import os
import shlex
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from proofopt.backends import BackendConfig

TESTS_DIR = Path(__file__).parent
DATA_DIR = TESTS_DIR / "data"

sys.path.insert(0, str(TESTS_DIR))

PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy", "all_proxy")


@dataclass
class CliResult:
    exit_code: int
    output: str
    exc_info: tuple | None


class CliRunner:
    """Runs a CLI entry point in this process: stdin reads ``input``, stdout
    and stderr are captured together in ``output``, and the exit code comes
    from a SystemExit, or is 1 for any other exception."""

    def invoke(self, main, args, input=None) -> CliResult:
        output = io.StringIO()
        exit_code, exc_info = 0, None
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(output))
            stack.enter_context(contextlib.redirect_stderr(output))
            stdin, sys.stdin = sys.stdin, io.StringIO(input or "")
            stack.callback(setattr, sys, "stdin", stdin)
            try:
                main(list(args))
            except SystemExit as exc:
                exc_info = sys.exc_info()
                code = exc.code
                exit_code = code if isinstance(code, int) else 0 if code is None else 1
            except Exception:
                exc_info = sys.exc_info()
                exit_code = 1
        return CliResult(exit_code, output.getvalue(), exc_info)


def mock_cfg(**options) -> BackendConfig:
    kwargs = {k: options.pop(k) for k in ("max_parallel", "temperature") if k in options}
    return BackendConfig(kind="mock", options=options, **kwargs)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def read_fixture(name: str) -> str:
    return (DATA_DIR / name).read_text()


def choices(*texts) -> dict:
    return {"choices": [{"message": {"content": t}} for t in texts]}


HANG_UP = "hang up"  # a scripted reply: close the connection without answering


class _EndpointHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10

    def _record(self, payload):
        with self.server.lock:
            self.server.requests.append(
                {
                    "line": self.requestline,
                    "headers": dict(self.headers),
                    "payload": payload,
                    "client_port": self.client_address[1],
                }
            )

    def do_CONNECT(self):
        """As a proxy, refuse every tunnel: the request is only recorded."""
        self._record(None)
        self.send_error(403)

    def do_POST(self):
        server = self.server
        self._record(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        with server.lock:
            reply = server.replies.pop(0) if len(server.replies) > 1 else server.replies[0]
        if reply == HANG_UP:
            self.close_connection = True
            return
        if isinstance(reply, bytes):  # a whole reply, written as it is
            self.wfile.write(reply)
            self.close_connection = True
            return
        status, content, headers = reply
        data = content if isinstance(content, bytes) else json.dumps(content).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        # no "Connection: close" is sent, so the client takes the connection for open
        self.close_connection = server.drop_after_reply

    def log_message(self, format, *args):
        pass


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def endpoint(no_proxy_env):
    """A chat-completion endpoint on 127.0.0.1 that answers from a script.

    ``replies`` holds (status, body, headers) tuples, HANG_UP, or the bytes
    of a whole reply written before the connection closes, used in order,
    the last one for every later request; ``requests`` records what
    arrived; ``drop_after_reply`` closes each connection after its reply.
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EndpointHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.requests = []
    server.replies = [(200, choices("```lean4\nt := by\n  rfl\n```"), {})]
    server.drop_after_reply = False
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    # a short poll interval, so that shutdown() returns at once at teardown
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def dead_url(no_proxy_env):
    """An endpoint URL on 127.0.0.1 that refuses connections: its port is
    bound and never listened on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield f"http://127.0.0.1:{sock.getsockname()[1]}/v1/chat/completions"


# A checker that reads `--` to the end of a line as a comment, as Lean does,
# and rejects a file with no ':= by' outside its comments.
COMMENT_CHECKER = """\
import re, sys
text = re.sub("--.*", "", open(sys.argv[1], encoding="utf-8").read())
if ":= by" not in text:
    print(sys.argv[1] + ":1:0: error: expected ':='")
"""


def python_checker(tmp_path, script: str) -> str:
    """A command_template that runs script, written under tmp_path, on {file}."""
    path = tmp_path / "checker.py"
    path.write_text(script, encoding="utf-8")
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(path))} {{file}}"


def pid_in(pidfile: Path) -> int:
    """The pid a checker writes to pidfile, waited for up to 5 s."""
    deadline = time.monotonic() + 5
    while not (pidfile.exists() and pidfile.read_text().strip()):
        assert time.monotonic() < deadline, f"{pidfile} was not written"
        time.sleep(0.05)
    return int(pidfile.read_text())


def running(pid: int) -> bool:
    """Whether pid is a process that is neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def ends(pid: int) -> bool:
    """Whether pid stops running within 5 s; SIGKILLed if it does not, so
    that a test leaves nothing running."""
    deadline = time.monotonic() + 5
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if not running(pid):
        return True
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    return False
