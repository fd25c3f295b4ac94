"""Deterministic backends for tests and dry runs: each subclasses its role's
backend and overrides the call that would reach a checker or a model. The
factories import this module only for a config of kind ``mock``."""

from __future__ import annotations

import hashlib
import random
import re
import threading

from . import lexer
from .backends import SORRY_WARNING, BackendConfig, Diagnostic, Verdict, VerdictStatus, judge
from .backends import Repairer, Simplifier, Verifier
from .errors import ConfigError, NoProofDelimiter
from .records import typed_field

_NOOP_MESSAGE = "'{}' tactic does nothing"
_SORRY_TOKENS = frozenset({"sorry", "admit"})


def _option(cfg: BackendConfig, key: str, kind, default):
    return typed_field(cfg.options, key, kind, "mock options", ConfigError, default)


class MockVerifier(Verifier):
    """Deterministic verifier for tests.

    Rules, all configurable through BackendConfig.options:
      fail_token      proof is invalid iff this token occurs (default FAIL)
      require_token   when set, proof must also contain this token to be valid
      noop_tactics    tokens reported as do-nothing tactics (default none)
      heartbeats_per_token  heartbeat count is tokens * this factor
      timeout_token   presence forces a timeout verdict
    A sorry or admit token adds the warning that Lean gives such a
    declaration. backends.judge turns the diagnostics into the verdict, as
    it does for the subprocess verifier.

    ``calls`` counts the checks made, under a lock, so it is exact when
    checks run concurrently.
    """

    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        self.fail_token = _option(cfg, "fail_token", str, "FAIL")
        self.require_token = _option(cfg, "require_token", str, None)
        self.noop_tactics = frozenset(_option(cfg, "noop_tactics", list[str], []))
        self.heartbeats_per_token = _option(cfg, "heartbeats_per_token", int, 100)
        self.timeout_token = _option(cfg, "timeout_token", str, None)
        self.calls = 0
        self._calls_lock = threading.Lock()

    def _verify(self, source, want_heartbeats):
        with self._calls_lock:
            self.calls += 1
        try:
            body = lexer.strip_comments(lexer.strip_statement(source))
        except NoProofDelimiter:
            return judge((Diagnostic("error", 1, 0, "no proof body"),))
        token_lines = lexer.lex(body)
        flat = [t for line in token_lines for t in line if t]
        if self.timeout_token and self.timeout_token in flat:
            return Verdict(VerdictStatus.TIMEOUT)
        diagnostics = []
        if self.fail_token in flat:
            line, col = self._locate(source, self.fail_token)
            diagnostics.append(Diagnostic("error", line, col, f"unknown identifier '{self.fail_token}'"))
        if self.require_token and self.require_token not in flat:
            diagnostics.append(Diagnostic("error", 1, 0, f"missing '{self.require_token}'"))
        if not _SORRY_TOKENS.isdisjoint(flat):
            diagnostics.append(Diagnostic("warning", 1, 0, SORRY_WARNING))
        diagnostics.extend(self._lint_diagnostics(source))
        heartbeats = len(flat) * self.heartbeats_per_token if want_heartbeats else None
        return judge(diagnostics, heartbeats=heartbeats)

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
        self.mode = _option(cfg, "mode", str, "echo")
        self.seed = _option(cfg, "seed", int, 0)
        self.noop_lines = tuple(_option(cfg, "noop_lines", list[str], []))
        self.proof_body = _option(cfg, "proof_body", str, "rfl")
        self.drop_probability = _option(cfg, "drop_probability", float, 0.35)

    def _simplify(self, source, k, temperature):
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
        self.mode = _option(cfg, "mode", str, "delete_flagged")
        self.proof_body = _option(cfg, "proof_body", str, "rfl")
        self.padding = _option(cfg, "padding", int, 8)

    def _repair(self, statement, failed_proof, error_report):
        if self.mode == "shorter":
            fixed = statement + " := by\n  " + self.proof_body
        elif self.mode == "longer":
            pad = "\n".join("  skip" for _ in range(self.padding))
            fixed = statement + " := by\n" + failed_proof.rstrip("\n") + "\n" + pad
        else:
            flagged = self._flagged_lines(error_report)
            kept = [l for l in failed_proof.splitlines() if l not in flagged]
            fixed = statement + " := by\n" + "\n".join(kept)
        return [fixed]

    @staticmethod
    def _flagged_lines(error_report: str) -> set[str]:
        lines = error_report.splitlines()
        flagged = set()
        for i, text in enumerate(lines):
            if text == "<error>" and i > 0:
                flagged.add(lines[i - 1])
        return flagged
