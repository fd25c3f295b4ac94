"""Stand-in for the Lean checker, run by SubprocessVerifier as ``{file}``.

    python -S bench/fake_checker.py --key KEY --log LOG FILE

It accepts a proof when the answer key's required lines appear in it in
order, prints Lean-style ``file:line:col: severity: message`` diagnostics at
the line numbers of FILE (so after any preamble the verifier prepended),
flags ``skip`` under ``linter.unusedTactic`` and reports heartbeats under
``#count_heartbeats``. Its lifetime is padded to model.CHECKER_STARTUP_S plus
model.CHECKER_PER_LINE_S per line of FILE, the modelled cost of a real check.
It appends one JSON line per call to LOG: source CRC, flags, verdict and its
start and end on CLOCK_MONOTONIC.
"""

import time

START = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402

import answer_key  # noqa: E402
import model  # noqa: E402

# The preambles SubprocessVerifier prepends, outermost first.
HEARTBEAT_DIRECTIVE = "set_option Elab.async false in\n#count_heartbeats in\n"
LINT_DIRECTIVE = "set_option linter.unusedTactic true in\n"


def diagnose(path: str, text: str, key: dict):
    """(diagnostics, lint flag, heartbeat flag, source without preamble)."""
    body = text
    heartbeats = body.startswith(HEARTBEAT_DIRECTIVE)
    if heartbeats:
        body = body[len(HEARTBEAT_DIRECTIVE) :]
    lint = body.startswith(LINT_DIRECTIVE)
    if lint:
        body = body[len(LINT_DIRECTIVE) :]
    preamble_lines = text.count("\n", 0, len(text) - len(body))
    out = []

    def emit(line, column, severity, message):
        out.append((severity, f"{path}:{line}:{column}: {severity}: {message}"))

    parts = answer_key.split_source(body)
    if parts is None:
        emit(preamble_lines + 1, 0, "error", "unexpected end of input; expected ':='")
        return out, lint, heartbeats, body
    statement, tail = parts
    delimiter_line = preamble_lines + 1 + body.partition(answer_key.DELIMITER)[0].count("\n")
    proof_lines = tail.split("\n")
    required = key.get(statement)
    if required is None:
        emit(delimiter_line, 0, "error", "unknown theorem: the statement was changed")
    else:
        for pos, line in answer_key.missing(proof_lines, required):
            at = delimiter_line + min(pos, len(proof_lines) - 1)
            emit(at, 0, "error", f"unsolved goals; the proof needs `{line.strip()}`")
    if lint:
        for j, line in enumerate(proof_lines):
            if line.strip() == "skip":
                emit(delimiter_line + j, line.index("skip"), "warning", "'skip' tactic does nothing")
    if heartbeats:
        used = 100 * sum(1 for line in proof_lines if line.strip())
        emit(
            preamble_lines,
            0,
            "info",
            f"Used {used} heartbeats, which is less than the current maximum of 200000",
        )
    return out, lint, heartbeats, body


def main(argv) -> int:
    opts = {}
    args = list(argv)
    while args and args[0].startswith("--"):
        opts[args[0][2:]] = args[1]
        del args[:2]
    if len(args) != 1 or not {"key", "log"} <= set(opts):
        print("usage: fake_checker.py --key K --log L FILE", file=sys.stderr)
        return 2
    path = args[0]
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    diagnostics, lint, heartbeats, body = diagnose(path, text, answer_key.load(opts["key"]))
    errors = sum(1 for severity, _ in diagnostics if severity == "error")
    modelled = model.CHECKER_STARTUP_S + model.CHECKER_PER_LINE_S * (text.count("\n") + 1)
    remaining = modelled - (time.monotonic() - START)
    if remaining > 0:
        time.sleep(remaining)
    sys.stdout.write("".join(line + "\n" for _, line in diagnostics))
    sys.stdout.flush()
    flagged = sum(1 for severity, _ in diagnostics if severity == "warning")
    # One JSON object per line, formatted by hand: see answer_key on imports.
    record = (
        f'{{"digest": "{zlib.crc32(body.encode()):08x}", "lint": {str(lint).lower()}, '
        f'"heartbeats": {str(heartbeats).lower()}, "valid": {str(errors == 0).lower()}, '
        f'"flagged": {flagged}, "start": {START!r}, "end": {time.monotonic()!r}}}\n'
    )
    fd = os.open(opts["log"], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, record.encode())
    finally:
        os.close(fd)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
