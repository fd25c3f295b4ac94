"""In-process span tracing of the proofopt CLI for the per-layer metrics.

Public functions are wrapped where their callers look them up (for example
``shortener.lint_fixpoint`` as well as ``linter.lint_fixpoint``), so the
program's own code is untouched. Spans are kept in memory: name, start, end,
parent span, proof id and a small per-layer payload.
"""

import contextvars
import hashlib
import itertools
import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

_current_span = contextvars.ContextVar("span", default=0)
_current_proof = contextvars.ContextVar("proof", default="")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    proof: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor that runs each task in its submitter's context, so
    spans opened in pool threads keep their parent and proof id."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _verify_info(args, kwargs, result):
    flagged = sum(1 for d in result.diagnostics if "tactic does nothing" in d.message)
    return {
        "key": (_digest(args[1]), bool(_arg(args, kwargs, 3, "lint", False)),
                bool(_arg(args, kwargs, 2, "want_heartbeats", False))),
        "ok": result.ok,
        "flagged": flagged,
    }


def _texts_info(args, kwargs, result):
    return {"texts": [_digest(t) for t in result]}


def _count_info(args, kwargs, result):
    return {"returned": len(result)}


def _lint_once_info(args, kwargs, result):
    return {"removed": result[1]}


class Tracer:
    """Collects spans from the wrappers it installs into proofopt."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._patches: list = []

    def span(self, name, fn, info=None, proof_of=None):
        """fn wrapped to record a span; info(args, kwargs, result) adds a
        payload and proof_of(args) names the proof for the span's subtree."""

        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = _current_span.get()
            span_token = _current_span.set(sid)
            proof_token = _current_proof.set(proof_of(args)) if proof_of else None
            proof = _current_proof.get()
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                if proof_token is not None:
                    _current_proof.reset(proof_token)
                _current_span.reset(span_token)
            extra = info(args, kwargs, result) if info else {}
            self.spans.append(Span(sid, name, start, end, parent, proof, extra))
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the layer boundaries of an imported proofopt package."""
        from proofopt import backends, cli, estimators, lexer, linter, reports, shortener

        def wrap_everywhere(name, owners, attr, **kw):
            traced = self.span(name, getattr(owners[0], attr), **kw)
            for owner in owners:
                self._patch(owner, attr, traced)

        self._patch(cli, "ThreadPoolExecutor", _ContextPool)
        self._patch(shortener, "ThreadPoolExecutor", _ContextPool)
        wrap_everywhere("config.load", [cli], "_load_config")
        wrap_everywhere("shortener.shorten_loop", [cli, shortener], "shorten_loop",
                        proof_of=lambda args: args[0].id)
        wrap_everywhere("shortener.iteration", [shortener], "shorten_iteration")
        wrap_everywhere("shortener.repair", [shortener], "_repair_stage")
        wrap_everywhere("linter.lint_fixpoint", [linter, shortener, cli], "lint_fixpoint")
        wrap_everywhere("linter.lint_once", [linter], "lint_once", info=_lint_once_info)
        wrap_everywhere("backends.verify", [backends.Verifier], "verify", info=_verify_info)
        wrap_everywhere("backends.simplify", [backends.Simplifier], "simplify", info=_texts_info)
        wrap_everywhere("backends.repair", [backends.Repairer], "repair", info=_texts_info)
        wrap_everywhere("backends.http", [backends.HttpCompletionClient], "complete",
                        info=_count_info)
        wrap_everywhere("lexer.proof_length", [lexer], "proof_length")
        wrap_everywhere("estimators.min_at_k", [estimators, cli, reports], "min_at_k")
        wrap_everywhere("estimators.red_at_k", [estimators, cli, reports], "red_at_k")
        wrap_everywhere("reports.atk_table", [reports], "atk_table")
        wrap_everywhere("records.read_jsonl", [cli], "read_jsonl")
        wrap_everywhere("records.write_jsonl", [cli], "write_jsonl")

    def write(self, path) -> None:
        """One JSON line per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = {k: v for k, v in vars(span).items() if k != "info"}
                handle.write(json.dumps(row) + "\n")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _self_time(span, children) -> float:
    """Span duration minus the union of its children's intervals."""
    covered, cursor = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def _max_overlap(intervals) -> int:
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    best = level = 0
    for _, step in events:
        level += step
        best = max(best, level)
    return best


def layer_metrics(spans, checker_log, endpoint_log) -> dict:
    """Per-layer metrics of one traced invocation, in seconds, counts and
    shares. `_s` values are totals over the invocation."""
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)
    ids = {s.id: s for s in spans}

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(_self_time(s, children.get(s.id, [])) for s in named(name))

    def per_call_us(name):
        found = named(name)
        return 1e6 * total(name) / len(found) if found else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    verify = named("backends.verify")
    keys = [s.info["key"] for s in verify]
    iterations = sorted(s.duration for s in named("shortener.iteration"))
    # Completions the HTTP client returned under simplify spans, and those the
    # simplifier then dropped for lacking a code fence.
    returned = sum(s.info["returned"] for s in named("backends.http")
                   if ids.get(s.parent) and ids[s.parent].name == "backends.simplify")
    dropped = returned - sum(len(s.info["texts"]) for s in named("backends.simplify"))
    candidates = [t for n in ("backends.simplify", "backends.repair") for s in named(n)
                  for t in s.info["texts"]]
    return {
        "backends.verify.calls": len(verify),
        "backends.verify.repeat_share": share(len(keys) - len(set(keys)), len(keys)),
        "backends.verify.overhead_s": total("backends.verify")
        - sum(r["end"] - r["start"] for r in checker_log),
        "backends.verify.concurrency_max": _max_overlap([(r["start"], r["end"]) for r in checker_log]),
        "backends.verify.valid_share": share(sum(s.info["ok"] for s in verify), len(verify)),
        "backends.simplify.calls": len(named("backends.simplify")),
        "backends.simplify.busy_s": total("backends.simplify"),
        "backends.simplify.dropped": dropped,
        "backends.simplify.dropped_share": share(dropped, returned),
        "backends.repair.calls": len(named("backends.repair")),
        "backends.repair.busy_s": total("backends.repair"),
        "backends.http.overhead_s": total("backends.http") - sum(r["server_s"] for r in endpoint_log),
        "shortener.iteration.count": len(iterations),
        "shortener.iteration.p50_s": statistics.median(iterations) if iterations else 0.0,
        "shortener.iteration.p90_s": statistics.quantiles(iterations, n=10)[-1]
        if len(iterations) > 1 else 0.0,
        "shortener.iteration.self_s": self_total("shortener.iteration"),
        "shortener.repair.s": total("shortener.repair"),
        "shortener.repair.self_s": self_total("shortener.repair"),
        "shortener.unique_candidate_share": share(len(set(candidates)), len(candidates)),
        "linter.lint_fixpoint.calls": len(named("linter.lint_fixpoint")),
        "linter.lint_fixpoint.s": total("linter.lint_fixpoint"),
        "linter.flagged_tactics": sum(s.info["flagged"] for s in verify if s.info["key"][1]),
        "linter.removed_tactics": sum(s.info["removed"] for s in named("linter.lint_once")),
        "lexer.proof_length.calls": len(named("lexer.proof_length")),
        "lexer.proof_length.us_per_call": per_call_us("lexer.proof_length"),
        "estimators.min_at_k.us_per_call": per_call_us("estimators.min_at_k"),
        "estimators.red_at_k.us_per_call": per_call_us("estimators.red_at_k"),
        "reports.atk_table.s": total("reports.atk_table"),
        "records.read_jsonl.s": total("records.read_jsonl"),
        "records.write_jsonl.s": total("records.write_jsonl"),
        "config.load_s": total("config.load"),
    }
