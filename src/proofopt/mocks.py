"""Deterministic backends for tests and dry runs: each subclasses its role's
backend and overrides the call that would reach a checker or a model. The
factories import this module only for a config of kind ``mock``. Each mock
reads BackendConfig.options as its options dataclass, the only place its
settings come from; a key that names no option is a configuration error."""

from __future__ import annotations

import hashlib
import random
import re
import threading
from dataclasses import dataclass, field
from enum import Enum

from . import lexer
from .backends import SORRY_TOKENS, SORRY_WARNING, BackendConfig, Diagnostic, Verdict, judge
from .backends import Repairer, Simplifier, Verifier, VerdictStatus
from .errors import ConfigError, NoProofDelimiter
from .records import ProofRecord, from_json, split_source

_NOOP_MESSAGE = "'{}' tactic does nothing"


@dataclass
class VerifierOptions:
    fail_token: str = "FAIL"  # a proof holding this token is invalid
    require_token: str = None  # when set, a proof without this token is invalid
    noop_tactics: list[str] = field(default_factory=list)  # reported as do-nothing tactics
    heartbeats_per_token: int = 100  # a check's heartbeats are its tokens times this
    timeout_token: str = None  # a proof holding this token times out


class MockVerifier(Verifier):
    """Deterministic verifier for tests, by the rules of its options. A sorry
    or admit token, as Lean reads it, adds the warning that Lean gives such
    a declaration. backends.judge turns the diagnostics into the verdict, as
    it does for the subprocess verifier.

    ``calls`` counts the checks made, under a lock, so it is exact when
    checks run concurrently.
    """

    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        self.options = from_json(VerifierOptions, cfg.options, "mock options", ConfigError, strict=True)
        self.calls = 0
        self._calls_lock = threading.Lock()

    def _verify(self, source, want_heartbeats):
        with self._calls_lock:
            self.calls += 1
        try:
            flat = lexer.tokens(lexer.strip_statement(source), lean=True)
        except NoProofDelimiter:
            return judge((Diagnostic("error", 1, 0, "no proof body"),))
        opts = self.options
        if opts.timeout_token and opts.timeout_token in flat:
            return Verdict(VerdictStatus.TIMEOUT)
        diagnostics = []
        if opts.fail_token in flat:
            line, col = self._locate(source, opts.fail_token)
            message = f"unknown identifier '{opts.fail_token}'"
            diagnostics.append(Diagnostic("error", line, col, message))
        if opts.require_token and opts.require_token not in flat:
            diagnostics.append(Diagnostic("error", 1, 0, f"missing '{opts.require_token}'"))
        if not SORRY_TOKENS.isdisjoint(flat):
            diagnostics.append(Diagnostic("warning", 1, 0, SORRY_WARNING))
        diagnostics.extend(self._lint_diagnostics(source))
        heartbeats = len(flat) * opts.heartbeats_per_token if want_heartbeats else None
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
                if m.group(0) in self.options.noop_tactics:
                    found.append(
                        Diagnostic("warning", number, m.start(), _NOOP_MESSAGE.format(m.group(0)))
                    )
        return found


class SimplifierMode(str, Enum):
    ECHO = "echo"
    DROP_LINES = "drop_lines"
    CONSTANT = "constant"


@dataclass
class SimplifierOptions:
    mode: SimplifierMode = SimplifierMode.ECHO
    seed: int = 0
    proof_body: str = "rfl"
    drop_probability: float = 0.35


def _seeded_rng(*parts) -> random.Random:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class MockSimplifier(Simplifier):
    """Deterministic candidate generator for tests.

    Modes (options.mode):
      drop_lines    per-candidate seeded random deletion of proof lines
      echo          return the input unchanged
      constant      always return options.proof_body as the proof
    The seeded modes derive their randomness from (options.seed, source,
    temperature, candidate index) only, so runs and resumed runs agree.
    """

    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        self.options = from_json(SimplifierOptions, cfg.options, "mock options", ConfigError, strict=True)

    def _simplify(self, source, k, temperature):
        split = split_source(source)
        if split is None:
            return []
        out = []
        for index in range(k):
            out.append(self._candidate(*split, temperature, index))
        return out

    def _candidate(self, head, proof, temperature, index) -> str:
        lines = proof.strip("\n").splitlines()
        opts = self.options
        if opts.mode is SimplifierMode.CONSTANT:
            lines = ["  " + opts.proof_body]
        elif opts.mode is SimplifierMode.DROP_LINES:
            rng = _seeded_rng(opts.seed, head, proof, temperature, index)
            kept = [l for l in lines if not (l.strip() and rng.random() < opts.drop_probability)]
            lines = kept or lines[:1]
        return ProofRecord("", head.rstrip(), "\n".join(lines)).full_source


class RepairerMode(str, Enum):
    DELETE_FLAGGED = "delete_flagged"
    SHORTER = "shorter"
    LONGER = "longer"


@dataclass
class RepairerOptions:
    mode: RepairerMode = RepairerMode.DELETE_FLAGGED
    proof_body: str = "rfl"
    padding: int = 8


class MockRepairer(Repairer):
    """Deterministic repairer for tests.

    Modes: delete_flagged (drop lines named in <error> blocks), shorter
    (return options.proof_body), longer (append options.padding copies of a
    no-op line).
    """

    def __init__(self, cfg: BackendConfig):
        super().__init__(cfg)
        self.options = from_json(RepairerOptions, cfg.options, "mock options", ConfigError, strict=True)

    def _repair(self, statement, failed_proof, error_report):
        if self.options.mode is RepairerMode.SHORTER:
            body = "  " + self.options.proof_body
        elif self.options.mode is RepairerMode.LONGER:
            pad = "\n".join("  skip" for _ in range(self.options.padding))
            body = failed_proof.rstrip("\n") + "\n" + pad
        else:
            flagged = self._flagged_lines(error_report)
            body = "\n".join(l for l in failed_proof.splitlines() if l not in flagged)
        return [ProofRecord("", statement, body).full_source]

    @staticmethod
    def _flagged_lines(error_report: str) -> set[str]:
        lines = error_report.splitlines()
        flagged = set()
        for i, text in enumerate(lines):
            if text == "<error>" and i > 0:
                flagged.add(lines[i - 1])
        return flagged
