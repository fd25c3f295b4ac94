"""The statement boundary: records.split_source is the one place a proof text
is split, and a record whose text would split elsewhere is refused; and
backends is the one place the acceptance rule is stated."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proofopt
from proofopt import lexer
from proofopt.records import PROOF_DELIMITER, ProofRecord, split_source

from conftest import DATA_DIR, read_fixture

# Pieces that open, close or hide a delimiter as Lean reads a text.
TEXTS = st.lists(
    st.sampled_from([PROOF_DELIMITER, "--", "/-", "-/", '"', "'", "\n", " ", "a", ":", "="]),
    max_size=24,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(TEXTS)
def test_split_source_cuts_where_the_metric_does(text):
    split = split_source(text)
    if split is not None:
        assert lexer.strip_statement(text) == split[1].strip()


@settings(max_examples=500, deadline=None)
@given(TEXTS, TEXTS)
def test_an_accepted_record_round_trips_through_its_full_source(statement, proof):
    """A record in from_source's form (no trailing blanks in the statement,
    no blank lines around the proof) that is accepted reads back as itself,
    and the metric measures its proof."""
    try:
        record = ProofRecord("t", statement.rstrip(), proof.strip("\n"))
    except ValueError:
        return
    assert ProofRecord.from_source(record.full_source, id="t") == record
    assert lexer.strip_statement(record.full_source) == record.proof.strip()


@pytest.mark.parametrize("record", [
    ProofRecord("c", "theorem c : 1 = 1 -- ends in a comment", "  rfl"),
    ProofRecord("s", 'theorem s : "--" = "--"', "  rfl"),
    ProofRecord("b", "theorem b /- a -/ : 1 = 1", "  norm_num\n  rfl"),
    *(ProofRecord.from_source(read_fixture(path.name), id=path.stem)
      for path in sorted(DATA_DIR.glob("*.lean"))),
], ids=lambda record: record.id)
def test_a_record_round_trips_through_from_source(record):
    """Among the fixtures is putnam_1990_a1_orig, whose statement ends in
    ':=\\n  by', so its first ':= by' is a have's and the metric cuts there too."""
    assert ProofRecord.from_source(record.full_source, id=record.id) == record
    assert lexer.strip_statement(record.full_source) == record.proof.strip()


@pytest.mark.parametrize("statement", [
    "theorem t : 1 = 1 -- was := by simp",
    "theorem t (h : 1 = 1 := by simp) : 1 = 1",
    "theorem t /- := by -/ : 1 = 1",
    "theorem t : 1 = 1 /- unclosed",
    'theorem t : "unclosed = 1',
], ids=["line-comment", "autoparam", "block-comment", "unclosed-comment", "unclosed-string"])
def test_a_statement_whose_text_splits_elsewhere_is_refused(statement):
    with pytest.raises(ValueError, match="holds ':= by', or a comment or string"):
        ProofRecord("t", statement, "  rfl")


@pytest.mark.parametrize("text", [
    "theorem t : 1 = 1 -- := by\n:= by\n  rfl",
    "theorem t /- := by -/ : 1 = 1 := by\n  rfl",
    'theorem t : "a := by" = "b" := by\n  rfl',
    "theorem t : 1 = 1 := rfl",
], ids=["line-comment", "block-comment", "string", "term-mode"])
def test_split_source_refuses_a_first_delimiter_that_lean_does_not_read(text):
    assert split_source(text) is None


def _docstrings(tree) -> set[int]:
    """The ids of the docstring constants of tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


MODULES = sorted(Path(proofopt.__file__).parent.glob("*.py"))


def _names(node) -> set[str]:
    """The names that node binds or reads: a name, an attribute, an import,
    a definition or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.alias)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {getattr(node, "id", None), getattr(node, "attr", None)} - {None}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "backends.py"], ids=lambda path: path.name
)
def test_only_backends_states_the_acceptance_rule(path):
    """No other module defines admissible, admissible_text or same_statement,
    and none names SORRY_TOKENS but mocks, which models the checker's sorry
    warning: the rule's clauses are written once, and every asker imports
    them from backends."""
    defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign)
    rule = {"admissible", "admissible_text", "same_statement"}
    uses = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, defines) and _names(node) & rule)
        or (path.name != "mocks.py" and "SORRY_TOKENS" in _names(node))
    ]
    assert uses == [], f"{path.name} states a clause of the rule on lines {uses}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("records.py", "lexer.py")],
    ids=lambda path: path.name,
)
def test_only_records_and_lexer_split_or_join_a_proof_text(path):
    """No other module names PROOF_DELIMITER or spells ':= by' outside a
    docstring: each split goes through records.split_source and each join
    through ProofRecord.full_source."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = _docstrings(tree)
    uses = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "PROOF_DELIMITER")
        or (isinstance(node, ast.Attribute) and node.attr == "PROOF_DELIMITER")
        or (isinstance(node, ast.alias) and node.name == "PROOF_DELIMITER")
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and PROOF_DELIMITER in node.value and id(node) not in docstrings)
    ]
    assert uses == [], f"{path.name} splits or joins a proof text on lines {uses}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "backends.py"], ids=lambda path: path.name
)
def test_only_backends_imports_subprocess(path):
    """No other module imports subprocess: a checker is started, waited for
    and killed with its process group in one place, SubprocessVerifier."""
    imports = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "subprocess" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "subprocess")
    ]
    assert imports == [], f"{path.name} imports subprocess on lines {imports}"



@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "backends.py"], ids=lambda path: path.name
)
def test_only_backends_and_cli_shorten_start_a_thread_pool(path):
    """ThreadPoolExecutor(...) is called only in backends, whose pools fan
    out every command's checks and calls, and in cli.shorten, whose proof
    pool runs its records. So a proof's calls, and lint's and
    filter-trivial's records, fan out on their backends' pools alone."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    if path.name == "cli.py":
        (home,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "shorten"]
        allowed = {id(node) for node in ast.walk(home)}
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "ThreadPoolExecutor" in _names(node.func)
        and id(node) not in allowed
    ]
    assert calls == [], f"{path.name} calls ThreadPoolExecutor on lines {calls}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_builds_a_semaphore(path):
    """A backend's pool of max_parallel threads is the one bound on its
    calls in flight: no module builds a second bound from a semaphore."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _names(node.func) & {"Semaphore", "BoundedSemaphore"}
    ]
    assert calls == [], f"{path.name} builds a semaphore on lines {calls}"
