"""Output checks that trust nothing the program computes.

Lengths are recomputed with the independent oracle in tests/lexer_oracle.py,
acceptance with the answer key, and best-of-k estimates with exact integer
arithmetic. Each check returns the ids it found wrong and a list of messages.
"""

import importlib.util
import json
import math
from fractions import Fraction

import answer_key
import inputs


def load_oracle(root):
    path = root / "tests" / "lexer_oracle.py"
    spec = importlib.util.spec_from_file_location("lexer_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_proof_length


def trace_file(workdir, proof_id: str):
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in proof_id)
    return workdir / "traces" / f"{safe}.jsonl"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def parse_shorten(stdout: str):
    """(rows by proof id, summary) from a `shorten` stdout."""
    rows, summary = {}, None
    for line in stdout.splitlines():
        obj = json.loads(line)
        if "summary" in obj:
            summary = obj["summary"]
        else:
            rows.setdefault(obj["proof_id"], []).append(obj)
    return rows, summary


def check_shorten(stdout, workdir, records, key, schedule_len, oracle):
    """Check a `shorten` run: answer key, oracle scores, trace files and the
    summary line. Returns (failed ids, problems, summary)."""
    failed, problems = set(), []
    try:
        rows, summary = parse_shorten(stdout)
    except (json.JSONDecodeError, KeyError) as exc:
        return {r["id"] for r in records}, [f"unparsable shorten output: {exc}"], None

    def bad(proof_id, message):
        failed.add(proof_id)
        problems.append(f"{proof_id}: {message}")

    befores, afters = [], []
    for record in records:
        pid = record["id"]
        its = rows.get(pid, [])
        if [it["index"] for it in its] != list(range(schedule_len)):
            bad(pid, f"iterations {[it['index'] for it in its]}, want {schedule_len}")
            continue
        path = trace_file(workdir, pid)
        persisted = [json.loads(l) for l in path.read_text().splitlines()] if path.exists() else []
        if persisted != [{k: v for k, v in it.items() if k != "proof_id"} for it in its]:
            bad(pid, "trace file differs from the stdout rows")
        required = key[record["statement"]]
        previous = oracle(inputs.full_source(record))
        for it in its:
            if it["score_before"] != previous:
                bad(pid, f"iteration {it['index']} starts at {it['score_before']}, want {previous}")
            parts = answer_key.split_source(it["source_after"])
            if parts is None or parts[0] != record["statement"]:
                bad(pid, f"iteration {it['index']} changed the statement")
            elif answer_key.missing(parts[1].split("\n"), required):
                bad(pid, f"iteration {it['index']} kept a proof the answer key rejects")
            if it["score_after"] != oracle(it["source_after"]) or it["score_after"] > previous:
                bad(pid, f"iteration {it['index']} score_after {it['score_after']} is wrong")
            for cand in it["candidates"]:
                if cand["status"] == "valid" and cand["score"] != oracle(cand["text"]):
                    bad(pid, f"iteration {it['index']} candidate score {cand['score']} is wrong")
            previous = it["score_after"]
        befores.append(its[0]["score_before"])
        afters.append(its[-1]["score_after"])
    if summary is None or not befores:
        problems.append("no summary line")
        return {r["id"] for r in records}, problems, summary
    reductions = [1 - a / b for a, b in zip(afters, befores) if b > 0]
    want = {
        "count": len(records),
        "mean_before": sum(befores) / len(befores),
        "mean_after": sum(afters) / len(afters),
        "mean_reduction": sum(reductions) / len(reductions) if reductions else 0.0,
    }
    if summary["count"] != want["count"] or not all(
        _close(summary[k], v) for k, v in want.items() if k != "count"
    ):
        problems.append(f"summary {summary} does not match the rows {want}")
        failed.update(r["id"] for r in records)
    return failed, problems, summary


def exact_min_at_k(values, k: int) -> Fraction:
    """E[min of a uniform size-k subset]: the i-th smallest of n values is the
    minimum with probability C(n-i, k-1) / C(n, k)."""
    x = sorted(values)
    n = len(x)
    total = 0
    weight = 1  # C(m, k-1) for m = k-1 .. n-1, i.e. i = n-m
    for m in range(k - 1, n):
        if m > k - 1:
            weight = weight * m // (m - k + 1)
        total += weight * x[n - 1 - m]
    return Fraction(total, math.comb(n, k))


def reference_atk(sample_rows, ks) -> list:
    """Exact dataset-mean min@k and red@k, as the estimate and atk report
    rows give them."""
    out = []
    for k in ks:
        mins, reds = [], []
        for row in sample_rows:
            orig = row["original"]
            eff = [min(orig, s) if v else orig for s, v in zip(row["scores"], row["valid"])]
            m = exact_min_at_k(eff, k)
            mins.append(m)
            reds.append(1 - m / orig)
        out.append({"k": k, "min_at_k": sum(mins) / len(mins), "red_at_k": sum(reds) / len(reds)})
    return out


def check_atk(stdout, reference, label):
    try:
        rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return [f"{label}: unparsable output: {exc}"]
    if [r.get("k") for r in rows] != [r["k"] for r in reference]:
        return [f"{label}: k values {[r.get('k') for r in rows]}"]
    problems = []
    for got, want in zip(rows, reference):
        for name in ("min_at_k", "red_at_k"):
            if not _close(got[name], float(want[name])):
                problems.append(f"{label}: k={got['k']} {name} {got[name]} != {float(want[name])}")
    return problems
