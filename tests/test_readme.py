"""The README's examples hold. Its fenced snippets are extracted and run: a
plain doctest of README.md would read each closing fence as expected output."""

import ast
import dataclasses
import doctest
import json
import re
import shlex
from pathlib import Path

import pytest

from proofopt import cli
from proofopt.config import RunConfig
from proofopt.training_data import SimplificationPair

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def snippets(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


def test_readme_config_reads_as_a_run_config():
    [block] = snippets("json")
    cfg = RunConfig.from_json(json.loads(block))
    assert sorted(cfg.backends) == ["repairer", "simplifier", "verifier"]
    assert cfg.backend("verifier").max_parallel == 8


def test_readme_python_examples_give_the_values_they_show():
    doctests, statements = [], []
    for block in snippets("python"):
        (doctests if block.startswith(">>>") else statements).append(block)
    assert len(doctests) == 1 and len(statements) == 1
    test = doctest.DocTestParser().get_doctest(doctests[0], {}, "README", "README.md", 0)
    assert doctest.DocTestRunner().run(test) == (0, 2)  # the import and the call, no failure
    # the last line is an expression and a comment with the start of its value
    *setup, last = statements[0].strip().splitlines()
    expression, _, shown = last.partition("#")
    scope = {}
    exec("\n".join(setup), scope)
    assert repr(eval(expression, scope)).startswith(shown.strip().rstrip("."))


OUTPUT_OPTIONS = {"-o", "--output", "--csv", "--gnuplot"}


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    """Every proofopt command line of the README's sh blocks parses, in a
    directory holding an empty file of each name the lines read, so a
    renamed or removed flag or command fails here."""
    lines = "\n".join(snippets("sh")).replace("\\\n", " ").replace("|", "\n")
    commands = [shlex.split(line)[1:] for line in lines.splitlines()
                if line.strip().startswith("proofopt ")]
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        for option, value in zip(["", *argv], argv):
            if value.endswith((".json", ".jsonl")) and option not in OUTPUT_OPTIONS:
                Path(value).touch()
    for argv in commands:
        assert callable(cli._parser().parse_args(argv).run), argv


def test_readme_lists_the_keys_of_a_simplification_pair():
    [keys] = re.findall(r"`SimplificationPair`'s fields are its JSON keys \(([^)]*)\)", README)
    assert re.findall(r"`(\w+)`", keys) == [f.name for f in dataclasses.fields(SimplificationPair)]


def test_every_module_parses_as_the_oldest_python_the_readme_names():
    """The README's Python 3.10+ is pyproject.toml's requires-python, and
    every module parses under 3.10's grammar, which rejects except*."""
    assert "Python 3.10+." in README
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    modules = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
