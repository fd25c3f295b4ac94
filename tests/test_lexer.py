import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofopt import lexer
from proofopt.errors import NoProofDelimiter

from conftest import read_fixture
from lexer_oracle import reference_proof_length

# Lengths measured with the reference implementation over the frozen fixture
# files. These are regression anchors; if one moves, the metric changed.
FIXTURE_LENGTHS = {
    "mathd_algebra_338_orig.lean": 214,
    "mathd_algebra_338_simp.lean": 11,
    "putnam_2015_a2_orig.lean": 324,
    "putnam_2015_a2_simp.lean": 82,
    "putnam_1968_a1_orig.lean": 1083,
    "putnam_1968_a1_simp.lean": 76,
    "imo_1960_p2_orig.lean": 330,
    "imo_1960_p2_simp.lean": 125,
    "putnam_1990_a1_orig.lean": 318,
    "putnam_1990_a1_simp.lean": 34,
    "extracted_len158.lean": 158,
    "extracted_len295.lean": 295,
    "putnam_1993_a2.lean": 715,
}


@pytest.mark.parametrize("name,expected", sorted(FIXTURE_LENGTHS.items()))
def test_fixture_lengths(name, expected):
    source = read_fixture(name)
    assert lexer.proof_length(source) == expected
    assert reference_proof_length(source) == expected


def test_strip_statement_prefers_by_delimiter():
    # ':= by' wins over a plain ':=' that appears earlier in the text
    assert lexer.strip_statement("a := b := by rfl") == "rfl"
    assert lexer.strip_statement("theorem t : x := by\n  rfl") == "rfl"


def test_strip_statement_falls_back_to_plain_assignment():
    assert lexer.strip_statement("def f := fun x => x") == "fun x => x"


def test_strip_statement_raises_without_delimiter():
    with pytest.raises(NoProofDelimiter):
        lexer.strip_statement("theorem t : no proof here")


def test_block_comment_removal_is_greedy():
    # Everything between the first opener and the last closer goes, even code.
    text = "/- a -/ rfl /- b -/"
    assert lexer.strip_comments(text) == ""


def test_line_comment_removal():
    assert lexer.strip_comments("rfl -- done") == "rfl"


# how the lexer splits the char literals '\x41' and '\u{41}'
HEX = ["'", "\\", "x41'"]
UNI = ["'", "\\", "u", "{", "41", "}", "'"]


@pytest.mark.parametrize("text,lean,metric", [
    ("/- a -/ rfl /- b -/", ["rfl"], []),
    ("/- a /- nested -/ still a comment -/ rfl", ["rfl"], ["rfl"]),
    ("/- a /- nested -/ -/ x /- b -/", ["x"], []),
    ("rfl -- done\nsimp", ["rfl", "simp"], ["rfl", "simp"]),
    ("/- -- -/ rfl", ["rfl"], ["rfl"]),
    ('"/- -/" rfl', ['"', "/", "-", "-", "/", '"', "rfl"], ['"', '"', "rfl"]),
    ('"a -- b" rfl', ['"', "a", "-", "-", "b", '"', "rfl"], ['"', "a"]),
    ("a/- -/b", ["a", "b"], ["ab"]),
    # a ' after an identifier character is part of the identifier
    ("h'", ["h'"], ["h'"]),
    ("f''", ["f''"], ["f''"]),
    ("h'x'", ["h'x'"], ["h'x'"]),
    ('h\'"--x"', ["h'", '"', "-", "-", "x", '"'], ["h'", '"']),
    # elsewhere it opens a char literal, which holds no string
    ('\'"\' "/-" x "-/"', ["'", '"', "'", '"', "/", "-", '"', "x", '"', "-", "/", '"'],
     ["'", '"', "'", '"', '"']),
    ("'\"' x -- c", ["'", '"', "'", "x"], ["'", '"', "'", "x"]),
    # an escaped char literal holds only hex digits and braces, so it hides
    # nothing that follows it
    ('\'\\x41\' "/-" x', [*HEX, '"', "/", "-", '"', "x"], [*HEX, '"', "/", "-", '"', "x"]),
    ("'\\x41' sorry", [*HEX, "sorry"], [*HEX, "sorry"]),
    ("'\\x41' -- c\nx", [*HEX, "x"], [*HEX, "x"]),
    ("'\\x41' /- c -/ x", [*HEX, "x"], [*HEX, "x"]),
    ('\'\\u{41}\' "/-" x', [*UNI, '"', "/", "-", '"', "x"], [*UNI, '"', "/", "-", '"', "x"]),
    ("'\\u{41}' sorry", [*UNI, "sorry"], [*UNI, "sorry"]),
    ("'\\u{41}' -- c\nx", [*UNI, "x"], [*UNI, "x"]),
    ("'\\u{41}' /- c -/ x", [*UNI, "x"], [*UNI, "x"]),
], ids=["two-blocks", "nested", "nested-then-block", "line", "line-in-block", "string-block",
        "string-line", "block-splits-a-token", "prime", "primes", "primes-in-name",
        "prime-then-string", "char-quote-then-string-block", "char-quote-then-line",
        "hex-char-then-string-block", "hex-char-then-sorry", "hex-char-then-line",
        "hex-char-then-block", "unicode-char-then-string-block", "unicode-char-then-sorry",
        "unicode-char-then-line", "unicode-char-then-block"])
def test_tokens_read_comments_as_lean_does_only_when_asked(text, lean, metric):
    """Lean's comments nest, and a string or char literal holds none; the
    metric's greedy rule is kept for lexer.tokens without lean."""
    assert lexer.tokens(text, lean=True) == lean
    assert lexer.tokens(text) == metric


@pytest.mark.parametrize("text,kept", [
    # n #s close only with n #s, an r after an identifier character opens no
    # raw string, and an unclosed one runs to the end of the text
    ('r#"a"b -- c"# ++ yr"\\" -- d" -- e\nr##"f"# -- g',
     'r#"a"b -- c"# ++ yr"\\" -- d" \nr##"f"# -- g'),
    # a «»-quoted name holds any character, and an unclosed one runs to the end
    ("«--» x -- c\n«/-» y «a -/ b", "«--» x \n«/-» y «a -/ b"),
], ids=["raw-string", "quoted-name"])
def test_strip_lean_comments_reads_a_raw_string_or_a_quoted_name_as_one_piece(text, kept):
    assert lexer.strip_lean_comments(text) == kept


def test_operator_merge():
    assert lexer.lex("a <;> b") == [["a", "<;>", "b"]]
    assert lexer.lex("x := y") == [["x", ":=", "y"]]
    # dots are token characters, so '...' survives as one token without any merging
    assert lexer.lex("...") == [["..."]]


def test_token_characters():
    assert lexer.lex("h1.mp h₂' foo_bar") == [["h1.mp", "h₂'", "foo_bar"]]


def test_empty_line_counts_one_token():
    assert lexer.lex("a\n\nb") == [["a"], [""], ["b"]]


def test_empty_text_lexes_to_nothing():
    assert lexer.lex("") == []
    assert lexer.proof_length("t := by\n") == 0


def test_trailing_comment_only_lines_do_not_count():
    assert lexer.proof_length("t := by\na\n--x\n--y") == 1


@pytest.mark.parametrize("name", sorted(FIXTURE_LENGTHS))
def test_matches_reference_on_fixture_mutations(name):
    import random

    source = read_fixture(name)
    rng = random.Random(name)
    for _ in range(20):
        mutated = _mutate(source, rng)
        assert lexer.proof_length(mutated) == reference_proof_length(mutated)


def _mutate(text: str, rng) -> str:
    ops = []
    for _ in range(rng.randrange(1, 6)):
        pos = rng.randrange(len(text) + 1)
        choice = rng.random()
        if choice < 0.4:
            insert = rng.choice([" ", "\n", ":=", "<;>", "-- note", "/- c -/", "x", "⁻¹"])
            text = text[:pos] + insert + text[pos:]
        elif choice < 0.7 and text:
            cut = rng.randrange(1, min(8, len(text)) + 1)
            text = text[:pos] + text[pos + cut :]
        else:
            ops.append(None)  # no-op mutation keeps lengths varied
    return text


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \nabrfl:=<;>-/.('⁻¹?_х", max_size=200))
def test_property_matches_reference(snippet):
    try:
        ours = lexer.proof_length(snippet)
    except NoProofDelimiter:
        ours = lexer.SENTINEL_LENGTH
    assert ours == reference_proof_length(snippet)
