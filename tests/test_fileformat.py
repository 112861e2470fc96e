import pytest
from hypothesis import example, given, settings, strategies as st

from kernseq.automata import Alphabet
from kernseq.errors import FormatError
from kernseq.fileformat import KINDS, RESERVED, kind_of, parse, render
from kernseq.machines import SequentialTransducer, SubsequentialTransducer
from kernseq.relations import validate_relation
from kernseq.transducers import LetterTransducer, identity

from conftest import AB

LETTERS = ("a", "b")

LAST_A_TEXT = """\
# equivalent when the last a sits at the same position
kind letter-transducer
inputs a b
outputs a b
states 0 1
initials 0
finals 0
0 a / a -> 0
0 b / b -> 0
0 a / b -> 1
0 b / a -> 1
1 a / b -> 1
1 b / a -> 1
1 b / b -> 1
1 a / a -> 0
"""


def letter_transducer_files():
    pair_letters = [(a, b) for a in LETTERS for b in LETTERS]

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=3))
        universe = [(p, ab, q) for p in range(n) for ab in pair_letters for q in range(n)]
        transitions = draw(st.frozensets(st.sampled_from(universe)))
        ids = st.integers(min_value=0, max_value=n - 1)
        initials = draw(st.frozensets(ids, min_size=1))
        finals = draw(st.frozensets(ids))
        return LetterTransducer.build(AB, AB, range(n), transitions, initials, finals)

    return build()


def sequential_machines():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=3))
        out_alpha = Alphabet(("x", "y"))
        table = {}
        for p in range(n):
            for a in LETTERS:
                if draw(st.booleans()):
                    out = tuple(
                        draw(st.lists(st.sampled_from(("x", "y")), max_size=2))
                    )
                    table[(p, a)] = (out, draw(st.integers(0, n - 1)))
        finals = draw(st.frozensets(st.integers(0, n - 1)))
        return SequentialTransducer(
            input_alphabet=AB,
            output_alphabet=out_alpha,
            states=frozenset(range(n)),
            transitions=table,
            initial=0,
            finals=finals,
        )

    return build()


def subsequential_machines():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=3))
        out_alpha = Alphabet(("x", "y", "t1", "t2"))
        table = {}
        for p in range(n):
            for a in LETTERS:
                if draw(st.booleans()):
                    table[(p, a)] = (
                        (draw(st.sampled_from(("x", "y"))),),
                        draw(st.integers(0, n - 1)),
                    )
        finals = draw(st.frozensets(st.integers(0, n - 1), min_size=1))
        base = SequentialTransducer(
            input_alphabet=AB,
            output_alphabet=out_alpha,
            states=frozenset(range(n)),
            transitions=table,
            initial=0,
            finals=finals,
        )
        fo = {q: draw(st.sampled_from(("t1", "t2"))) for q in finals}
        return SubsequentialTransducer(base, fo)

    return build()


def test_parse_reference_file_and_validate():
    tfile = parse(LAST_A_TEXT, source="last_a.t")
    assert tfile.kind == "letter-transducer"
    assert tfile.source == "last_a.t"
    assert validate_relation(tfile.machine).is_equivalence


def test_comments_and_blank_lines_are_ignored():
    noisy = LAST_A_TEXT.replace("states 0 1", "\n# comment\nstates 0 1  # trailing")
    assert parse(noisy).machine == parse(LAST_A_TEXT).machine


@settings(max_examples=100, deadline=None)
@given(letter_transducer_files())
def test_letter_transducer_round_trip(machine):
    text = render(machine)
    again = parse(text)
    assert again.machine == machine
    assert render(again.machine) == text  # canonical text is a fixpoint


@settings(max_examples=100, deadline=None)
@given(sequential_machines())
def test_sequential_round_trip(machine):
    text = render(machine)
    again = parse(text)
    assert again.machine == machine
    assert render(again.machine) == text


@settings(max_examples=100, deadline=None)
@given(subsequential_machines())
def test_subsequential_round_trip(machine):
    text = render(machine)
    again = parse(text)
    assert again.machine == machine
    assert render(again.machine) == text


def test_kind_of_names():
    tfile = parse(LAST_A_TEXT)
    assert kind_of(tfile.machine) == "letter-transducer"


SEQ_HEADER = """\
kind sequential
inputs a b
outputs x
states 0
initial 0
finals 0
"""


def test_duplicate_state_input_is_nondeterministic():
    text = SEQ_HEADER + "0 a / x -> 0\n0 a / x x -> 0\n"
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "NONDETERMINISTIC" in str(err.value)
    assert err.value.line == 8


def test_empty_output_word_in_sequential():
    text = SEQ_HEADER + "0 a / - -> 0\n"
    machine = parse(text).machine
    assert machine.run(("a",)) == ()


@pytest.mark.parametrize(
    "mutation, needle",
    [
        (lambda t: t.replace("kind letter-transducer", "kind moore"), "kind"),
        (lambda t: t.replace("0 a / a -> 0", "0 a / a b -> 0"), "one letter"),
        (lambda t: t.replace("0 a / a -> 0", "0 q / a -> 0"), "not declared"),
        (lambda t: t.replace("0 a / a -> 0", "7 a / a -> 0"), "not declared"),
        (lambda t: t.replace("initials 0", "initials 9"), "not declared"),
        (lambda t: t.replace("initials 0", "initial 0"), "initials"),
        (lambda t: t.replace("inputs a b\n", ""), "missing inputs"),
        (lambda t: t + "finalout 0 a\n", "subsequential"),
        (lambda t: "inputs a b\n" + t, "first line"),
        (lambda t: t + "kind sequential\n", "duplicate kind"),
        (lambda t: t.replace("0 a / a -> 0", "0 a a -> 0"), "transition"),
    ],
)
def test_letter_transducer_format_errors(mutation, needle):
    with pytest.raises(FormatError) as err:
        parse(mutation(LAST_A_TEXT))
    assert needle in str(err.value)


def test_subsequential_requires_full_finalout():
    text = """\
kind subsequential
inputs a
outputs x t1
states 0 1
initial 0
finals 0 1
0 a / x -> 1
1 a / x -> 0
finalout 0 t1
"""
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "missing finalout" in str(err.value)


def test_finalout_on_non_final_state_rejected():
    text = """\
kind subsequential
inputs a
outputs x t1
states 0 1
initial 0
finals 0
0 a / x -> 1
finalout 0 t1
finalout 1 t1
"""
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "not final" in str(err.value)


def test_error_positions_are_reported():
    bad = LAST_A_TEXT.replace("0 a / b -> 1", "0 a / c -> 1")
    with pytest.raises(FormatError) as err:
        parse(bad)
    assert err.value.line == 10  # the comment line counts too


BASES = {
    "letter-transducer": """\
kind letter-transducer
inputs a b
outputs a b
states 0 1
initials 0
finals 0 1
0 a / a -> 0
0 b / b -> 1
""",
    "sequential": """\
kind sequential
inputs a b
outputs x y
states 0 1
initial 0
finals 0
0 a / x y -> 1
1 b / - -> 0
""",
    "subsequential": """\
kind subsequential
inputs a b
outputs x t
states 0 1
initial 0
finals 0 1
0 a / x -> 1
1 b / x -> 0
finalout 0 t
finalout 1 t
""",
}

LT, SEQ, SUB = BASES
SHAPE = "transition must look like: <src> <in> / <out-word or -> -> <dst>"
KIND = "kind must be one of: letter-transducer, sequential, subsequential"


def not_an_id(token):
    return f"state identifiers are nonnegative integers, got {token!r}"


def reserved(token):
    return f"{token!r} is reserved and cannot name a letter"


# more digits than ``int`` reads from a string by default
LONG = "1" * 5000


# (kind of the base file or a whole file, the base's text to replace, the
# replacement, message, line)
FORMAT_ERRORS = [
    # read in line order
    (LT, "kind letter-transducer\n", "", "first line must declare the kind", 1),
    (LT, "kind letter-transducer", "kind moore", KIND, 1),
    (SEQ, "kind sequential", "kind sequential x", KIND, 1),
    (LT, "0 b / b -> 1", "0 b / b -> 1\nkind letter-transducer", "duplicate kind line", 9),
    (LT, "outputs a b", "inputs a b", "duplicate inputs line", 3),
    (SEQ, "states 0 1", "outputs x", "duplicate outputs line", 4),
    (LT, "inputs a b", "inputs", "inputs needs at least one letter", 2),
    (SUB, "outputs x t", "outputs # t", "outputs needs at least one letter", 3),
    (SEQ, "outputs x y", "outputs x ->", reserved("->"), 3),
    (LT, "inputs a b", "inputs a a", "inputs letters must be distinct", 2),
    (LT, "initials 0", "states 0\ninitials 0", "duplicate states line", 5),
    (LT, "states 0 1", "states", "states needs at least one identifier", 4),
    (LT, "states 0 1", "states 0 -1", not_an_id("-1"), 4),
    (SEQ, "states 0 1", "states 0 ²", not_an_id("²"), 4),
    (SUB, "states 0 1", "states ٠ 1", not_an_id("٠"), 4),
    (SUB, "initial 0", "initial 0\ninitial 1", "duplicate initial state line", 6),
    (LT, "initials 0", "initials 0\ninitial 0", "duplicate initial state line", 6),
    (SEQ, "finals 0", "finals 0\nfinals 1", "duplicate finals line", 7),
    (LT, "initials 0", "initials x", not_an_id("x"), 5),
    (SEQ, "finals 0", "finals ²", not_an_id("²"), 6),
    (SUB, "finalout 1 t", "finalout 1", "finalout takes a state and a letter", 10),
    (SUB, "finalout 1 t", "finalout x t", not_an_id("x"), 10),
    (SUB, "finalout 1 t", "finalout 1 -", reserved("-"), 10),
    (LT, "0 a / a -> 0", "0 a a -> 0", SHAPE, 7),
    (SEQ, "0 a / x y -> 1", "0 a / x y 1", SHAPE, 7),
    (LT, "0 b / b -> 1", "x b / b -> 1", not_an_id("x"), 8),
    (LT, "0 b / b -> 1", "-1 b / b -> 1", not_an_id("-1"), 8),
    (SEQ, "1 b / - -> 0", "² b / - -> 0", not_an_id("²"), 8),
    pytest.param(LT, "0 b / b -> 1", f"{LONG} b / b -> 1", not_an_id(LONG), 8, id="long-src"),
    pytest.param(SUB, "0 a / x -> 1", f"0 a / x -> {LONG}", not_an_id(LONG), 7, id="long-dst"),
    pytest.param(SEQ, "states 0 1", f"states 0 {LONG}", not_an_id(LONG), 4, id="long-state"),
    pytest.param(SUB, "finalout 1 t", f"finalout {LONG} t", not_an_id(LONG), 10, id="long-finalout"),
    (LT, "0 b / b -> 1", "0 b / b -> x", not_an_id("x"), 8),
    (SUB, "0 a / x -> 1", "0 a / x -> ²", not_an_id("²"), 7),
    (LT, "0 a / a -> 0", "0 - / a -> 0", reserved("-"), 7),
    (LT, "0 a / a -> 0", "0 a / / -> 0", reserved("/"), 7),
    (SEQ, "0 a / x y -> 1", "0 a / x - -> 1", reserved("-"), 7),
    # a fault read in line order comes before any fault of the whole file
    (LT, "inputs a b\n", "0 a / a -> x\n", not_an_id("x"), 2),
    # then checked against the whole file
    ("# nothing but a comment\n", None, None, "empty file: missing kind line", None),
    (LT, "inputs a b\n", "", "missing inputs line", None),
    (SEQ, "outputs x y\n", "", "missing outputs line", None),
    (SUB, "states 0 1\n", "", "missing states line", None),
    (LT, "finals 0 1\n", "", "missing finals line", None),
    (LT, "states 0 1", "states 0 1 01", "states must be distinct", 4),
    (LT, "finals 0 1", "finals 0 5", "final state 5 is not declared", 6),
    (LT, "initials 0", "initial 0", "letter-transducer files use an initials line", None),
    (LT, "initials 0", "initials 9", "initial state 9 is not declared", 5),
    (SEQ, "initial 0", "initials 0", "sequential files use an initial line", None),
    (SUB, "initial 0\n", "", "subsequential files use an initial line", None),
    (SUB, "initial 0", "initial 0 1", "initial takes exactly one state", 5),
    (SEQ, "initial 0", "initial 4", "initial state 4 is not declared", 5),
    (LT, "0 b / b -> 1", "7 b / b -> 1", "state 7 is not declared", 8),
    (SEQ, "1 b / - -> 0", "1 b / - -> 07", "state 7 is not declared", 8),
    (LT, "0 a / a -> 0", "0 q / a -> 0", "input letter 'q' is not declared", 7),
    (SUB, "0 a / x -> 1", "0 a / z -> 1", "output letter 'z' is not declared", 7),
    (
        LT, "0 a / a -> 0", "0 a / a b -> 0",
        "letter-transducer outputs exactly one letter per transition", 7,
    ),
    (
        SUB, "0 a / x -> 1", "0 a / - -> 1",
        "subsequential bodies output exactly one letter per transition", 7,
    ),
    (
        SEQ, "1 b / - -> 0", "1 b / - -> 0\n0 a / x -> 0",
        "NONDETERMINISTIC: duplicate transition for state 0 on 'a'", 9,
    ),
    (LT, "0 b / b -> 1", "0 b / b -> 1\nfinalout 0 a", "finalout only appears in subsequential files", 9),
    (SEQ, "1 b / - -> 0", "1 b / - -> 0\nfinalout 0 x", "finalout only appears in subsequential files", 9),
    (SUB, "finalout 1 t", "finalout 0 t", "duplicate finalout for state 0", 10),
    (SUB, "finals 0 1", "finals 0", "finalout state 1 is not final", 10),
    (SUB, "finalout 1 t", "finalout 1 z", "finalout letter 'z' is not declared", 10),
    (SUB, "finalout 1 t\n", "", "missing finalout for final states [1]", None),
]


@pytest.mark.parametrize("base, old, new, message, line", FORMAT_ERRORS)
def test_every_format_error_names_its_message_and_line(base, old, new, message, line):
    """Each ``FormatError`` that ``parse`` raises, with its exact message and
    line, on the first fault of a file of each kind."""
    text = BASES[base].replace(old, new, 1) if base in BASES else base
    assert base not in BASES or text != BASES[base]
    with pytest.raises(FormatError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_a_state_id_is_read_in_any_spelling_of_ascii_digits():
    text = BASES[SEQ].replace("1 b / - -> 0", "01 b / - -> 00")
    assert parse(text).machine == parse(BASES[SEQ]).machine


# the tokens a mutation writes beside the file's own: decimal digits that
# are not ASCII, a number too long for ``int``, a negative number, a plain
# letter and every reserved word
MUTANTS = ("²", "٠", LONG, "-1", "x", *sorted(RESERVED), "kind", *KINDS, "inputs", "outputs",
           "states", "initial", "initials", "finals", "finalout")


@settings(max_examples=300, deadline=None)
@given(
    machine=st.one_of(letter_transducer_files(), sequential_machines(), subsequential_machines()),
    line=st.integers(0, 63),
    at=st.integers(0, 63),
    pick=st.integers(0, 63),
    edit=st.sampled_from(["replace", "delete", "insert"]),
)
@example(machine=identity(AB), line=3, at=1, pick=0, edit="replace")  # states ²
@example(machine=identity(AB), line=3, at=1, pick=2, edit="replace")  # a 5,000-digit state
def test_a_file_with_one_token_changed_parses_or_raises_a_format_error(machine, line, at, pick, edit):
    """Replacing, deleting or inserting one token of a rendered file gives a
    file that parses, into a machine that renders and parses back, or a
    ``FormatError``: never another exception. Line, position and token are
    drawn as numbers taken modulo what the file offers."""
    lines = [tokens.split() for tokens in render(machine).splitlines()]
    tokens = lines[line % len(lines)]
    pool = MUTANTS + tuple(sorted({t for tokens in lines for t in tokens}))
    token, at = pool[pick % len(pool)], at % (len(tokens) + 1)
    if edit == "insert" or at == len(tokens):
        tokens.insert(at, token)
    elif edit == "replace":
        tokens[at] = token
    else:
        del tokens[at]
    text = "\n".join(map(" ".join, lines)) + "\n"
    try:
        parsed = parse(text).machine
    except FormatError:
        return
    assert parse(render(parsed)).machine == parsed
