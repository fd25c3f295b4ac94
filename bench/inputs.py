"""Seeded benchmark inputs: proof records and answer keys, which depend only
on the seed and the fixtures under tests/data, and best-of-k sample files
built from a `shorten` run's candidates."""

import random

import answer_key

# The non-simplified fixtures: 158 to 1083 tokens each, all distinct ids.
SHORTEN_FIXTURES = (
    "extracted_len158",
    "extracted_len295",
    "imo_1960_p2_orig",
    "mathd_algebra_338_orig",
    "putnam_1968_a1_orig",
    "putnam_1990_a1_orig",
    "putnam_1993_a2",
    "putnam_2015_a2_orig",
)

# k values for `estimate` and `report --kind atk` over each iteration's
# candidates; sets with fewer candidates (unfenced completions are dropped)
# are left out.
ATK_KS = (1, 2, 4)


def record_from_source(proof_id: str, source: str) -> dict:
    statement, tail = answer_key.split_source(source)
    return {"id": proof_id, "statement": statement, "proof": tail.strip("\n")}


def full_source(record: dict) -> str:
    return f"{record['statement']} {answer_key.DELIMITER}\n{record['proof']}"


def fixture_records(data_dir, names=SHORTEN_FIXTURES) -> list:
    return [
        record_from_source(name, (data_dir / f"{name}.lean").read_text(encoding="utf-8"))
        for name in names
    ]


def _code_lines(proof: str) -> list:
    return [
        line.rstrip()
        for line in proof.split("\n")
        if line.strip() and not line.strip().startswith("--")
    ]


def _pick_by_length(lines, count: int, rng) -> list:
    """Indices of `count` lines, one drawn from each of `count` equal strata
    of the lines ordered by length."""
    ordered = sorted(range(len(lines)), key=lambda i: (len(lines[i].strip()), i))
    edges = [j * len(ordered) // count for j in range(count + 1)]
    return sorted(ordered[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:]))


def make_answer_key(records, seed: int, share: float, minimum: int) -> dict:
    """Require max(minimum, share of the code lines) seeded lines per proof.

    The lines are drawn by length strata, so that the share of the proof
    that must stay, and with it the reduction the shortener can reach, varies
    little with the seed.
    """
    key = {}
    for record in records:
        lines = _code_lines(record["proof"])
        rng = random.Random(f"key|{seed}|{record['id']}")
        count = min(len(lines), max(minimum, round(share * len(lines))))
        picked = _pick_by_length(lines, count, rng)
        key[record["statement"]] = [lines[i] for i in picked]
    return key


def candidate_samples(rows, oracle) -> list:
    """One best-of-k sample set per `shorten` iteration: the incumbent's
    score and each candidate's oracle length and validity."""
    out = []
    for row in rows:
        cands = row["candidates"]
        if len(cands) >= max(ATK_KS):
            out.append({
                "id": f"{row['proof_id']}#{row['index']}",
                "original": row["score_before"],
                "scores": [oracle(c["text"]) for c in cands],
                "valid": [c["status"] == "valid" for c in cands],
            })
    return out
