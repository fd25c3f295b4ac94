"""The answer key shared by the fake checker, the fake endpoint and the checks.

A key maps each theorem statement to the proof lines it needs. A proof is
accepted when those lines appear in it in order; any other line may go.

The fake checker imports this module once per check, so it imports nothing:
the key is stored with the built-in ``marshal`` (the harness and the fakes
run on one interpreter), which spares each check the ~15 ms that importing
``json`` costs.
"""

import marshal

DELIMITER = ":= by"


def split_source(source: str):
    """(statement, text after the delimiter), split as ProofRecord.from_source
    splits, or None when the delimiter is missing."""
    head, sep, tail = source.partition(DELIMITER)
    if not sep:
        return None
    return head.rstrip(), tail


def dump(key: dict, path) -> None:
    with open(path, "wb") as handle:
        marshal.dump(key, handle)


def load(path) -> dict:
    """{statement: [required line, ...]}"""
    with open(path, "rb") as handle:
        return marshal.load(handle)


def missing(proof_lines, required) -> list:
    """Required lines that are not matched in order, each as (position in
    proof_lines where it belongs, line text)."""
    out = []
    pos = 0
    for line in required:
        for j in range(pos, len(proof_lines)):
            if proof_lines[j].rstrip() == line:
                pos = j + 1
                break
        else:
            out.append((pos, line))
    return out


def restore(proof_lines, required, filler: str = "skip") -> list:
    """proof_lines with each missing required line put back where it belongs,
    followed by a filler tactic at the same indentation."""
    result = list(proof_lines)
    offset = 0
    for pos, line in missing(proof_lines, required):
        indent = line[: len(line) - len(line.lstrip())]
        result[pos + offset : pos + offset] = [line, indent + filler]
        offset += 2
    return result
