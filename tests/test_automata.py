import random

import pytest
from hypothesis import given, settings, strategies as st

from kernseq.automata import (
    Alphabet,
    Nfa,
    _unchecked,
    accessible_states,
    coaccessible_states,
    determinize,
    drop_sink,
    explore,
    inclusion_counterexample,
    includes,
    intersect,
    language_equal,
    minimize,
    trim,
)
from kernseq.errors import AlphabetMismatchError, PreconditionError
from kernseq.transducers import LetterTransducer

from boolean_ops import complement, is_empty, union
from conftest import count_calls, nfa_language, words

AB = Alphabet(("a", "b"))


def small_nfas(max_states=4):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_states))
        universe = [(p, a, q) for p in range(n) for a in AB.letters for q in range(n)]
        transitions = draw(st.frozensets(st.sampled_from(universe)))
        state_ids = st.integers(min_value=0, max_value=n - 1)
        initials = draw(st.frozensets(state_ids))
        finals = draw(st.frozensets(state_ids))
        return Nfa(AB, frozenset(range(n)), transitions, initials, finals)

    return build()


def test_alphabet_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_alphabet_order_is_declaration_order():
    alpha = Alphabet(("z", "a"))
    assert alpha.index("z") == 0
    assert alpha.key(("a", "z")) == (1, 0)


def test_nfa_rejects_undeclared_parts():
    malformed = [
        ({0}, {(0, "a", 1)}, {0}, {0}),
        ({0}, {(0, "c", 0)}, {0}, {0}),
        ({0}, set(), {1}, set()),
        ({0}, set(), {0}, {1}),
    ]
    for states, transitions, initials, finals in malformed:
        with pytest.raises(ValueError):
            Nfa(AB, states, transitions, initials, finals)
        # the same parts over the pair alphabet, as a transducer
        pairs = {(p, (a, a), q) for p, a, q in transitions}
        with pytest.raises(ValueError):
            LetterTransducer.build(AB, AB, states, pairs, initials, finals)


def two_state_dfa():
    return Nfa(
        AB,
        {0, 1},
        {(0, "a", 1), (0, "b", 0), (1, "a", 1), (1, "b", 0)},
        {0},
        {1},
    )


def test_explore_numbers_in_discovery_order():
    graph = {
        "s": [("x", "b"), ("y", "a")],
        "a": [("z", "c"), ("w", "s")],
        "b": [("v", "c")],
        "c": [],
    }
    expanded = []

    def successors(node):
        expanded.append(node)
        return graph[node]

    nodes, edges = explore(["s", "s"], successors)
    # the repeated start is numbered once; b precedes a because s yields it
    # first, and c is numbered from b before a is expanded (breadth first)
    assert nodes == ["s", "b", "a", "c"]
    assert expanded == nodes
    assert edges == [(0, "x", 1), (0, "y", 2), (1, "v", 3), (2, "z", 3), (2, "w", 0)]


def test_determinize_idempotent_on_deterministic_input():
    dfa = two_state_dfa()
    det = determinize(dfa)
    assert det.is_complete
    assert language_equal(det, dfa)
    assert len(det.states) == len(dfa.states)  # already complete, no sink added


def test_determinize_empty_initials_gives_single_sink():
    empty = Nfa(AB, {0}, set(), set(), {0})
    det = determinize(empty)
    assert det.is_complete
    assert len(det.states) == 1
    assert not det.finals
    assert is_empty(det)


@settings(max_examples=50, deadline=None)
@given(small_nfas())
def test_determinize_preserves_language(nfa):
    det = determinize(nfa)
    assert det.is_deterministic and det.is_complete
    assert nfa_language(det, 8) == nfa_language(nfa, 8)


def test_trim_drops_unreachable_final_state():
    nfa = Nfa(AB, {0, 1, 2}, {(0, "a", 1)}, {0}, {1, 2})
    trimmed = trim(nfa)
    assert len(trimmed.states) == 2  # state 2 was unreachable
    assert language_equal(trimmed, nfa)


def test_trim_empty_language_gives_empty_state_set():
    nfa = Nfa(AB, {0, 1}, {(0, "a", 0)}, {0}, {1})
    trimmed = trim(nfa)
    assert not trimmed.states
    assert is_empty(trimmed)


@settings(max_examples=50, deadline=None)
@given(small_nfas(5))
def test_trim_preserves_language(nfa):
    assert nfa_language(trim(nfa), 8) == nfa_language(nfa, 8)


@settings(max_examples=40, deadline=None)
@given(small_nfas())
def test_intersect_with_complement_is_empty(nfa):
    det = determinize(nfa)
    assert is_empty(intersect(det, complement(det)))


def test_union_with_empty_automaton_is_identity():
    dfa = two_state_dfa()
    empty = Nfa(AB, set(), set(), set(), set())
    assert language_equal(union(dfa, empty), dfa)
    assert language_equal(union(empty, dfa), dfa)


@settings(max_examples=40, deadline=None)
@given(small_nfas(3), small_nfas(3))
def test_boolean_ops_match_set_semantics(a, b):
    la, lb = nfa_language(a, 5), nfa_language(b, 5)
    assert nfa_language(union(a, b), 5) == la | lb
    assert nfa_language(intersect(a, b), 5) == la & lb


def test_boolean_ops_reject_mismatched_alphabets():
    other = Nfa(Alphabet(("x",)), {0}, set(), {0}, {0})
    with pytest.raises(AlphabetMismatchError):
        intersect(two_state_dfa(), other)
    with pytest.raises(AlphabetMismatchError):
        union(two_state_dfa(), other)
    with pytest.raises(AlphabetMismatchError):
        inclusion_counterexample(two_state_dfa(), other)


def test_complement_requires_deterministic_complete():
    partial = Nfa(AB, {0}, {(0, "a", 0)}, {0}, {0})
    with pytest.raises(PreconditionError):
        complement(partial)


@settings(max_examples=40, deadline=None)
@given(small_nfas())
def test_complement_is_involution_up_to_language(nfa):
    det = determinize(nfa)
    assert language_equal(complement(complement(det)), det)


def test_includes_reflexive_and_empty():
    dfa = two_state_dfa()
    assert includes(dfa, dfa)
    empty = Nfa(AB, set(), set(), set(), set())
    assert includes(empty, dfa)
    assert not includes(dfa, empty)


@settings(max_examples=40, deadline=None)
@given(small_nfas(3), small_nfas(3))
def test_includes_matches_enumeration(a, b):
    # Pumping for these sizes is covered well before length 8.
    expected = nfa_language(a, 8) <= nfa_language(b, 8)
    assert includes(a, b) == expected


@settings(max_examples=25, deadline=None)
@given(small_nfas(3), small_nfas(3), small_nfas(3))
def test_includes_is_a_partial_order_modulo_language(a, b, c):
    if includes(a, b) and includes(b, c):
        assert includes(a, c)
    if includes(a, b) and includes(b, a):
        assert language_equal(a, b)


@settings(max_examples=80, deadline=None)
@given(small_nfas(3), small_nfas(3))
def test_inclusion_counterexample_is_a_shortest_separating_word(a, b):
    bound = 8
    missing = [w for w in words(AB.letters, bound) if a.accepts(w) and not b.accepts(w)]
    word = inclusion_counterexample(a, b)
    if word is None:
        assert not missing  # inclusion holds up to the bound
        return
    assert a.accepts(word) and not b.accepts(word)
    assert all(len(w) >= len(word) for w in missing)
    # of the shortest separating words, the first in alphabet order
    assert word == min((w for w in missing if len(w) == len(word)), key=AB.key, default=word)
    assert not includes(a, b)


def test_inclusion_counterexample_is_first_in_alphabet_order_over_parallel_runs():
    empty = Nfa(AB, set(), set(), set(), set())
    # "ab" and "aa" run through different states reached by the same "a"
    forked = Nfa(
        AB, set(range(5)), {(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "a", 4)}, {0}, {3, 4}
    )
    assert inclusion_counterexample(forked, empty) == ("a", "a")
    # "b" leaves the first initial state, "a" the second
    two_starts = Nfa(AB, {0, 1, 2}, {(1, "a", 0), (0, "b", 0)}, {0, 1}, {0})
    only_empty_word = Nfa(AB, {0}, set(), {0}, {0})
    assert inclusion_counterexample(two_starts, only_empty_word) == ("a",)


def test_inclusion_counterexample_of_the_empty_word_and_of_a_long_word():
    dfa = two_state_dfa()  # words ending in a
    empty = Nfa(AB, set(), set(), set(), set())
    assert inclusion_counterexample(dfa, empty) == ("a",)
    assert inclusion_counterexample(complement(dfa), dfa) == ()
    # the chain accepts a^5 and nothing else
    chain = Nfa(AB, set(range(6)), {(i, "a", i + 1) for i in range(5)}, {0}, {5})
    assert inclusion_counterexample(chain, empty) == ("a",) * 5
    assert inclusion_counterexample(empty, dfa) is None


def test_inclusion_never_determinizes(monkeypatch):
    from kernseq import automata

    calls = [
        count_calls(monkeypatch, automata, name)
        for name in ("determinize", "intersect")
    ]
    ends_in_a = two_state_dfa()
    guessed = Nfa(AB, {0, 1}, {(0, "a", 0), (0, "b", 0), (0, "a", 1)}, {0}, {1})
    has_a = Nfa(AB, {0, 1}, {(0, "a", 1), (0, "b", 0), (1, "a", 1), (1, "b", 1)}, {0}, {1})
    assert language_equal(ends_in_a, guessed)
    assert includes(guessed, has_a) and not includes(has_a, guessed)
    assert inclusion_counterexample(has_a, guessed) == ("a", "b")
    assert calls == [[], []]


@settings(max_examples=40, deadline=None)
@given(small_nfas())
def test_minimize_preserves_language(nfa):
    small = minimize(determinize(nfa))
    assert language_equal(small, nfa)
    assert small.is_complete


def test_minimize_numbers_the_reachable_part_breadth_first():
    # complete, ids not in breadth-first order, states 0 and 2 unreachable;
    # from the initial state 3 it accepts the words ending in a
    dfa = Nfa(
        AB,
        {0, 1, 2, 3},
        {
            (3, "a", 1), (3, "b", 3), (1, "a", 1), (1, "b", 3),
            (0, "a", 2), (0, "b", 2), (2, "a", 0), (2, "b", 0),
        },
        {3},
        {1, 2},
    )
    assert dfa.is_complete
    assert minimize(dfa) == two_state_dfa()


def test_words_helper_counts():
    assert len(words(AB.letters, 3)) == 1 + 2 + 4 + 8


# ------------------------------------------- the transition table, cross-checked
#
# Reference copies of the per-letter constructions: subsets stepped letter
# by letter through a (state, letter) lookup, Moore signatures through the
# single successor, and trim by a letter-by-letter forward walk. The
# library reads one dense table instead; both must give equal automata,
# state numbers included.


def _lookup(a):
    """(state, letter) -> its targets, straight from the transitions."""
    step = {}
    for p, letter, q in a.transitions:
        step.setdefault((p, letter), set()).add(q)
    return {key: frozenset(targets) for key, targets in step.items()}


def _reference_determinize(a):
    step = _lookup(a)

    def successors(subset):
        for letter in a.alphabet:
            yield letter, frozenset(q for p in subset for q in step.get((p, letter), ()))

    nodes, edges = explore([frozenset(a.initials)], successors)
    finals = {n for n, subset in enumerate(nodes) if subset & a.finals}
    return Nfa(a.alphabet, range(len(nodes)), edges, {0}, finals)


def _reference_minimize(a):
    a = _reference_determinize(a)
    step = _lookup(a)
    states = range(len(a.states))
    block = {q: (q in a.finals) for q in states}
    while True:
        signature = {
            q: (block[q], tuple(block[next(iter(step[(q, x)]))] for x in a.alphabet))
            for q in states
        }
        fresh: dict = {}
        for q in states:
            fresh.setdefault(signature[q], len(fresh))
        new_block = {q: fresh[signature[q]] for q in states}
        done = len(set(new_block.values())) == len(set(block.values()))
        block = new_block
        if done:
            break
    return Nfa(
        a.alphabet,
        block.values(),
        {(block[q], x, block[next(iter(step[(q, x)]))]) for q in states for x in a.alphabet},
        {block[0]},
        {block[q] for q in a.finals},
    )


def _reference_trim(a):
    step = _lookup(a)
    seen = set(a.initials)
    todo = sorted(seen)
    while todo:
        p = todo.pop()
        for x in a.alphabet:
            for q in step.get((p, x), ()):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
    live = set(a.finals)
    changed = True
    while changed:
        more = {p for p, _x, q in a.transitions if q in live} - live
        live |= more
        changed = bool(more)
    useful = seen & live
    renum = {q: i for i, q in enumerate(sorted(useful))}
    return Nfa(
        a.alphabet,
        renum.values(),
        {(renum[p], x, renum[q]) for p, x, q in a.transitions if p in useful and q in useful},
        {renum[q] for q in a.initials if q in useful},
        {renum[q] for q in a.finals if q in useful},
    )


_ALPHABETS = [
    AB,
    Alphabet(("c", "a", "b")),  # declaration order differs from the letters' own
    Alphabet(tuple((x, y) for x in "ab" for y in "ab")),
    Alphabet(tuple((x, y) for x in "ba" for y in "abc")),
]


def _random_parts(rng):
    """Parts of a random automaton: ids scattered, not contiguous, some
    negative; zero, one or several initial states; unreachable and dead
    states arise from the sparse random transitions."""
    alphabet = rng.choice(_ALPHABETS)
    ids = rng.sample(range(-6, 30), rng.randint(0, 7))
    transitions = {
        (rng.choice(ids), rng.choice(alphabet.letters), rng.choice(ids))
        for _ in range(rng.randint(0, 3 * len(ids) * len(alphabet)) if ids else 0)
    }
    initials = rng.sample(ids, min(len(ids), rng.choice([0, 1, 1, 1, 2, 3])))
    finals = rng.sample(ids, rng.randint(0, len(ids)))
    return alphabet, ids, transitions, initials, finals


def test_constructions_number_their_states_as_the_per_letter_references():
    rng = random.Random(20240613)
    for _ in range(2000):
        a = Nfa(*_random_parts(rng))
        det = determinize(a)
        assert det == _reference_determinize(a)
        assert minimize(a) == _reference_minimize(a)
        # trim on the raw input, on a complete DFA (a dead sink, if any) and
        # on inputs already trim and numbered 0..n-1
        for b in (a, det, minimize(a), trim(a)):
            assert trim(b) == _reference_trim(b)


def test_drop_sink_trims_a_minimal_dfa_as_trim_does():
    rng = random.Random(15)
    seen = dict.fromkeys(
        ["no states", "empty language", "no sink", "unreachable", "dead", 2, 3], 0
    )
    for _ in range(2000):
        a = Nfa(*_random_parts(rng))
        minimal = minimize(a)
        dropped = drop_sink(minimal)
        assert dropped == trim(minimal)
        seen["no states"] += not a.states
        seen["empty language"] += bool(a.states) and not dropped.states
        seen["no sink"] += len(dropped.states) == len(minimal.states)
        seen["unreachable"] += accessible_states(a) != a.states
        seen["dead"] += coaccessible_states(a) != a.states
        if len(a.alphabet) in seen:
            seen[len(a.alphabet)] += 1
    assert all(seen.values()), seen


def test_table_views_agree_with_the_transitions():
    rng = random.Random(7)
    for _ in range(600):
        alphabet, ids, transitions, initials, finals = _random_parts(rng)
        public = Nfa(alphabet, ids, transitions, initials, finals)
        internal = _unchecked(alphabet, ids, transitions, initials, finals)
        for a in (public, internal, determinize(public), minimize(internal)):
            index = a.alphabet.index
            step = _lookup(a)
            for q in a.states:
                for x in a.alphabet:
                    assert a.successors(q, x) == step.get((q, x), frozenset())
            assert a.successors(max(a.states, default=0) + 1, a.alphabet.letters[0]) == set()
            outgoing = {}
            for p, x, q in a.transitions:
                outgoing.setdefault(p, []).append((x, q))
            assert a.outgoing == {
                p: tuple(sorted(edges, key=lambda e: (index(e[0]), e[1])))
                for p, edges in outgoing.items()
            }
            cells = [len(step.get((q, x), ())) for q in a.states for x in a.alphabet]
            assert a.is_deterministic == (len(a.initials) <= 1 and all(c <= 1 for c in cells))
            assert a.is_complete == (len(a.initials) == 1 and all(c == 1 for c in cells))
            if a.is_complete:
                for (q, x), (target,) in step.items():
                    assert a.step(q, x) == target


# ------------------------------------------------------------ kept stages


def test_a_kept_stage_is_computed_once_per_instance_and_not_kept_when_it_raises():
    from dataclasses import dataclass

    from kernseq.automata import kept

    calls = []

    @dataclass(frozen=True)
    class Staged:
        fails: list

        @kept
        def stage(self):
            """The stage."""
            calls.append(self)
            if self.fails:
                raise ValueError(self.fails.pop(0))
            return object()

        other = kept(lambda self: object())  # kept under "other", not "<lambda>"

        @kept
        def __hidden(self):  # kept under the mangled "_Staged__hidden"
            return object()

        def hidden(self):
            return self.__hidden

    one, two = Staged([]), Staged([])
    assert one.other is one.other is vars(one)["other"] and "<lambda>" not in vars(one)
    assert one.hidden() is one.hidden() is vars(one)["_Staged__hidden"]
    assert one.stage is one.stage and two.stage is two.stage and one.stage is not two.stage
    assert calls == [one, two] and vars(one)["stage"] is one.stage
    descriptor = Staged.stage
    assert isinstance(descriptor, kept) and descriptor.__doc__ == "The stage."
    assert descriptor.func(one) is not one.stage
    # a stage that raises keeps nothing and raises again on the next read
    calls.clear()
    failing = Staged(["first", "second"])
    for message in ("first", "second"):
        with pytest.raises(ValueError, match=message):
            failing.stage
        assert "stage" not in vars(failing)
    assert failing.stage is failing.stage and len(calls) == 3


def test_the_frozen_values_keep_their_stages_in_their_own_dict():
    from kernseq.automata import kept
    from kernseq.relations import Prepared
    from kernseq.transducers import identity

    r = identity(AB)
    a = r.nfa
    prep = Prepared(r)
    for value, name in ((AB, "_index"), (a, "_live"), (a, "_subset"), (prep, "rows"), (prep, "live")):
        assert isinstance(type(value).__dict__[name], kept)
        got = getattr(value, name)
        assert vars(value)[name] is got is getattr(value, name)
    assert prep.rows is a._subset
    assert Nfa.__dict__["_live"].func(a) == a._live


def test_no_module_uses_the_locking_cached_property():
    """The package keeps its stages with ``automata.kept``: on Python 3.10
    and 3.11 ``functools.cached_property`` takes a lock on every first read."""
    import ast
    import pathlib

    import kernseq

    for path in pathlib.Path(kernseq.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cached_property" not in [alias.name for alias in node.names], path
            if isinstance(node, ast.Attribute):
                assert node.attr != "cached_property", path
