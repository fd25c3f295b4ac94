"""Stand-in for the chat-completion endpoint behind http_simplifier and
http_repairer, served on 127.0.0.1.

    python -S bench/fake_endpoint.py --key KEY --log LOG --seed N --drop SHARE

It prints its port on the first line of stdout and serves until terminated
(or until its parent process exits). Clients post to ``/r/<run>/simplify``
or ``/r/<run>/repair``; ``<run>`` names one CLI invocation, so repeated
invocations see the same answers and the log can be split per invocation.

simplify: each completion drops a random SHARE of the non-blank proof lines
(a fixed count, so that candidates vary in which lines go, not in how many).
Randomness comes from (seed, prompt digest, temperature, completion index,
how many times this run already sent this prompt), so an iteration that
adopted nothing draws fresh candidates. A share model.UNFENCED_SHARE of
completions come back without a code fence.

repair: puts back the required lines the failed proof lacks, each followed by
a ``skip`` line, so fixes verify but come back longer.

Each request sleeps model.GEN_BASE_S plus model.GEN_PER_COMPLETION_S per
requested completion, then logs one JSON line (run, kind, n, unfenced count,
server-side seconds) before it replies.
"""

import hashlib
import json
import os
import random
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import answer_key
import model

_BLOCK = re.compile(r"```lean4\n(.*?)```", re.DOTALL)
_PATH = re.compile(r"^/r/([\w.-]+)/(simplify|repair)$")


def _rng(*parts) -> random.Random:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _fence(text: str) -> str:
    return f"Here is the proof:\n```lean4\n{text}\n```\n"


class FakeModel:
    def __init__(self, opts: dict):
        self.key = answer_key.load(opts["key"])
        self.seed = opts["seed"]
        self.drop = float(opts["drop"])
        self.log_path = opts["log"]
        self._lock = threading.Lock()
        self._ordinals: dict = {}

    def ordinal(self, run: str, kind: str, prompt: str) -> int:
        slot = (run, kind, hashlib.sha256(prompt.encode()).hexdigest())
        with self._lock:
            value = self._ordinals.get(slot, 0)
            self._ordinals[slot] = value + 1
        return value

    def simplify(self, prompt: str, n: int, temperature, ordinal: int) -> tuple:
        source = _BLOCK.search(prompt).group(1).rstrip("\n")
        head, _, proof = source.partition(answer_key.DELIMITER)
        lines = proof.strip("\n").splitlines()
        digest = hashlib.sha256(prompt.encode()).hexdigest()
        out = []
        unfenced = 0
        droppable = [i for i, line in enumerate(lines) if line.strip()]
        for index in range(n):
            rng = _rng(self.seed, digest, temperature, index, ordinal)
            bare = rng.random() < model.UNFENCED_SHARE
            dropped = set(rng.sample(droppable, round(self.drop * len(droppable))))
            kept = [line for i, line in enumerate(lines) if i not in dropped]
            text = head + answer_key.DELIMITER + "\n" + "\n".join(kept or lines[:1])
            unfenced += bare
            out.append(text if bare else _fence(text))
        return out, unfenced

    def repair(self, prompt: str, n: int) -> tuple:
        statement, failed = _BLOCK.findall(prompt)[:2]
        required = self.key.get(statement)
        lines = failed.split("\n")
        if required is not None:
            lines = answer_key.restore(lines, required)
        fix = statement + " " + answer_key.DELIMITER + "\n" + "\n".join(lines)
        return [_fence(fix)] * n, 0

    def log(self, record: dict) -> None:
        line = (json.dumps(record) + "\n").encode()
        with self._lock:
            fd = os.open(self.log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without TCP_NODELAY a keep-alive client waits on delayed ACKs for
    # ~40 ms per request.
    disable_nagle_algorithm = True

    def do_POST(self):
        start = time.monotonic()
        fake = self.server.fake
        m = _PATH.match(self.path)
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if m is None:
            self._reply(404, {"error": "unknown path"})
            return
        run, kind = m.groups()
        payload = json.loads(body)
        prompt = payload["messages"][0]["content"]
        n = int(payload.get("n", 1))
        if kind == "simplify":
            ordinal = fake.ordinal(run, kind, prompt)
            contents, unfenced = fake.simplify(prompt, n, payload.get("temperature"), ordinal)
        else:
            contents, unfenced = fake.repair(prompt, n)
        remaining = model.GEN_BASE_S + model.GEN_PER_COMPLETION_S * n - (time.monotonic() - start)
        if remaining > 0:
            time.sleep(remaining)
        choices = [{"index": i, "message": {"role": "assistant", "content": c}} for i, c in enumerate(contents)]
        fake.log(
            {
                "run": run,
                "kind": kind,
                "n": n,
                "unfenced": unfenced,
                "start": start,
                "server_s": time.monotonic() - start,
            }
        )
        self._reply(200, {"choices": choices})

    def _reply(self, status: int, obj: dict) -> None:
        body = json.dumps(obj).encode()
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Not Found'}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + body)

    def log_message(self, format, *args):
        pass


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main(argv) -> int:
    opts = dict(zip(argv[0::2], argv[1::2]))
    opts = {k[2:]: v for k, v in opts.items() if k.startswith("--")}
    needed = {"key", "log", "seed", "drop"}
    if not needed <= set(opts):
        print(f"usage: fake_endpoint.py needs --{' --'.join(sorted(needed))}", file=sys.stderr)
        return 2
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.fake = FakeModel(opts)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
