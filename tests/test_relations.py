import random

import pytest
from hypothesis import given, settings, strategies as st

from kernseq.automata import Nfa, language_equal, includes
from kernseq.errors import (
    AlphabetMismatchError,
    NotEquivalenceError,
    PreconditionError,
)
from kernseq.oracle import (
    brute_valuedness,
    closure_pairs,
    enumerate_relation,
    min_lex_map,
    prefix_pairs,
    random_equivalence,
    syntactic_pairs,
)
from kernseq.relations import (
    compose,
    inverse,
    is_prefix_closed,
    min_lex_uniformizer,
    prefix_closure,
    prepare,
    relation_union,
    syntactic_congruence,
    transitive_closure,
    validate_relation,
)
from kernseq.transducers import (
    LetterTransducer,
    diagonal_states,
    identity,
    pair_dfa,
    trim_transducer,
)

from conftest import AB, ABC, finite_relation

W = lambda s: tuple(s)  # word literal from a plain string


def small_relations(max_states=3):
    pair_letters = [(a, b) for a in AB.letters for b in AB.letters]

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_states))
        universe = [(p, ab, q) for p in range(n) for ab in pair_letters for q in range(n)]
        transitions = draw(st.frozensets(st.sampled_from(universe)))
        ids = st.integers(min_value=0, max_value=n - 1)
        initials = draw(st.frozensets(ids, min_size=1))
        finals = draw(st.frozensets(ids, min_size=1))
        return LetterTransducer.build(AB, AB, range(n), transitions, initials, finals)

    return build()


def relation_pairs_by_oracle(r, bound):
    return enumerate_relation(r, bound).pairs


# ---------------------------------------------------------------- validation

def test_identity_is_an_equivalence(ident_ab):
    v = validate_relation(ident_ab)
    assert (v.is_reflexive, v.is_symmetric, v.is_transitive) == (True, True, True)
    assert v.is_equivalence


def test_last_a_relation_is_an_equivalence(last_a):
    assert validate_relation(last_a).is_equivalence


def test_single_pair_relation_fails_reflexivity_and_symmetry():
    r = finite_relation(AB, [(W("a"), W("b"))])
    # strip the identity part: build the bare pair instead
    bare = LetterTransducer.build(
        AB, AB, states={0, 1}, transitions={(0, ("a", "b"), 1)},
        initials={0}, finals={1},
    )
    v = validate_relation(bare)
    assert not v.is_reflexive
    assert not v.is_symmetric
    assert r is not bare  # the trie helper keeps identity; the bare one does not


def test_empty_relation_reported_non_reflexive():
    empty = LetterTransducer.build(
        AB, AB, states={0}, transitions=set(), initials={0}, finals=set()
    )
    assert not validate_relation(empty).is_reflexive


def test_mismatched_alphabets_cannot_validate():
    r = LetterTransducer.build(
        AB, ABC, states={0}, transitions={(0, ("a", "c"), 0)},
        initials={0}, finals={0},
    )
    v = validate_relation(r)
    assert not v.is_equivalence


# ---------------------------------------------------------------- compose / inverse

def test_compose_with_identity_is_identity_element(last_a, ident_ab):
    assert language_equal(compose(last_a, ident_ab).nfa, last_a.nfa)
    assert language_equal(compose(ident_ab, last_a).nfa, last_a.nfa)


def test_compose_transitive_relation_with_itself(a_parity):
    assert language_equal(compose(a_parity, a_parity).nfa, a_parity.nfa)


@settings(max_examples=30, deadline=None)
@given(small_relations(), small_relations())
def test_compose_matches_oracle_join(r, s):
    left = relation_pairs_by_oracle(compose(r, s), 5)
    rp = relation_pairs_by_oracle(r, 5)
    sp = relation_pairs_by_oracle(s, 5)
    by_first = {}
    for v, w in rp:
        by_first.setdefault(v, set()).add(w)
    joined = {(u, w) for (u, v) in sp for w in by_first.get(v, ())}
    assert left == joined


def test_compose_alphabet_mismatch():
    r = LetterTransducer.build(ABC, ABC, {0}, {(0, ("a", "a"), 0)}, {0}, {0})
    with pytest.raises(AlphabetMismatchError):
        compose(r, identity(AB))


def test_inverse_of_identity_is_identity(ident_ab):
    assert inverse(ident_ab) == ident_ab


@settings(max_examples=30, deadline=None)
@given(small_relations())
def test_inverse_is_a_structural_involution(r):
    assert inverse(inverse(r)) == r


def test_inverse_swaps_pairs(last_a):
    inv = relation_pairs_by_oracle(inverse(last_a), 7)
    fwd = relation_pairs_by_oracle(last_a, 7)
    assert inv == {(v, u) for (u, v) in fwd}


# ---------------------------------------------------------------- syntactic congruence

def test_syntactic_congruence_of_identity_is_identity(ident_ab):
    s, diag = syntactic_congruence(ident_ab)
    assert language_equal(s.nfa, ident_ab.nfa)
    assert diag  # the live diagonal state is a member


def test_c_singletons_congruence_is_identity(c_singletons):
    s, _ = syntactic_congruence(c_singletons)
    assert language_equal(s.nfa, identity(ABC).nfa)
    # spot-check by definition with bounded suffixes as well
    assert enumerate_relation(trim_transducer(s), 4).pairs == syntactic_pairs(
        c_singletons, 4, 4
    )


def test_congruence_included_in_relation_and_right_congruence(last_a, a_parity):
    for r in (last_a, a_parity):
        s, _ = syntactic_congruence(r)
        assert includes(s.nfa, r.nfa)
        pairs = enumerate_relation(trim_transducer(s), 6).pairs
        for u, v in pairs:
            if len(u) > 5:
                continue
            for a in AB.letters:
                assert (u + (a,), v + (a,)) in pairs


def test_congruence_matches_definitional_oracle(last_a):
    s, _ = syntactic_congruence(last_a)
    # Suffixes up to the pair-automaton state count witness every failure.
    bound = len(pair_dfa(last_a).nfa.states)
    assert enumerate_relation(trim_transducer(s), 4).pairs == syntactic_pairs(
        last_a, 4, bound
    )


def _diagonal_by_inclusion(t):
    """Reference definition: p is diagonal when the identity is accepted from p."""
    ident = identity(t.input_alphabet).nfa
    members = set()
    for p in sorted(t.nfa.states):
        from_p = Nfa(
            alphabet=t.nfa.alphabet,
            states=t.nfa.states,
            transitions=t.nfa.transitions,
            initials=frozenset({p}),
            finals=t.nfa.finals,
        )
        if includes(ident, from_p):
            members.add(p)
    return frozenset(members)


def _random_transducer(rng, letters):
    n = rng.randint(1, 4)
    density = rng.choice((0.1, 0.25, 0.5))
    transitions = {
        (p, (a, b), q)
        for p in range(n)
        for a in letters
        for b in letters
        for q in range(n)
        if rng.random() < density / n
    }
    initials = set(rng.sample(range(n), rng.randint(1, n)))
    finals = {q for q in range(n) if rng.random() < 0.6}
    return LetterTransducer.build(letters, letters, range(n), transitions, initials, finals)


def test_diagonal_fixpoint_matches_the_inclusion_definition():
    rng = random.Random(20191)
    sizes = []
    for i in range(1200):
        letters = ("a", "b") if i % 2 else ("a", "b", "c")
        if i % 5 == 0:
            r = random_equivalence(rng, max_states=3, letters=letters)
        else:
            r = _random_transducer(rng, letters)
        det = pair_dfa(r)
        diag = diagonal_states(det)
        assert diag == _diagonal_by_inclusion(det), i
        sizes.append(len(diag))
    assert 0 in sizes and any(sizes)


def test_diagonal_states_need_a_complete_pair_dfa(ident_ab):
    partial = LetterTransducer.build(AB, AB, {0}, {(0, ("a", "a"), 0)}, {0}, {0})
    with pytest.raises(PreconditionError):
        diagonal_states(partial)
    with pytest.raises(PreconditionError):
        diagonal_states(ident_ab)  # deterministic, but the non-diagonal letters are missing


def test_prepared_relation_agrees_with_the_public_stages(last_a, a_parity, c_singletons):
    for r in (last_a, a_parity, c_singletons):
        prep = prepare(r)
        s, diag = syntactic_congruence(r)
        assert (prep.congruence, prep.diagonal) == (s, diag)
        assert prep.prefix_closed == is_prefix_closed(r)
        assert prep.uniformizer == min_lex_uniformizer(s)
        assert prep.det == pair_dfa(r)
        assert prep.validation == validate_relation(r)


def test_prepare_rejects_non_equivalence_with_its_validation():
    bare = LetterTransducer.build(AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1})
    with pytest.raises(NotEquivalenceError) as info:
        prepare(bare)
    assert info.value.validation == validate_relation(bare)
    assert not info.value.validation.is_reflexive


def test_syntactic_congruence_rejects_non_equivalence():
    bare = LetterTransducer.build(
        AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1}
    )
    with pytest.raises(NotEquivalenceError):
        syntactic_congruence(bare)


# ---------------------------------------------------------------- prefix closure

def test_prefix_closure_of_identity_is_identity(ident_ab):
    assert prefix_closure(ident_ab) == ident_ab


def test_prefix_closure_is_structurally_idempotent(last_a, a_parity, chained_classes):
    for r in (last_a, a_parity, chained_classes):
        once = prefix_closure(r)
        assert prefix_closure(once) == once


def test_prefix_closure_of_parity_is_strictly_coarser(a_parity):
    closed = prefix_closure(a_parity)
    assert includes(a_parity.nfa, closed.nfa)
    oracle = prefix_pairs(a_parity, 4, 4)
    assert enumerate_relation(closed, 4).pairs == oracle
    assert (W("a"), W("b")) in oracle
    assert (W("a"), W("b")) not in enumerate_relation(a_parity, 4).pairs


@settings(max_examples=30, deadline=None)
@given(small_relations(), small_relations())
def test_prefix_closure_is_monotone(r, s):
    if includes(r.nfa, s.nfa):
        assert includes(prefix_closure(r).nfa, prefix_closure(s).nfa)


def test_is_prefix_closed_fixture_verdicts(last_a, a_parity, ident_ab, c_singletons):
    assert not is_prefix_closed(last_a)
    assert not is_prefix_closed(a_parity)
    assert is_prefix_closed(ident_ab)
    assert is_prefix_closed(c_singletons)


def test_is_prefix_closed_agrees_with_language_comparison(
    last_a, a_parity, ident_ab, c_singletons, agree_except_last, chained_classes
):
    for r in (last_a, a_parity, ident_ab, c_singletons, agree_except_last, chained_classes):
        assert is_prefix_closed(r) == language_equal(r.nfa, prefix_closure(r).nfa)


# ---------------------------------------------------------------- transitive closure

def test_closure_of_transitive_relation_converges_immediately(ident_ab):
    result = transitive_closure(ident_ab, cap=3)
    assert result.converged and result.exponent == 1
    assert language_equal(result.closure.nfa, ident_ab.nfa)


def test_closure_of_parity_prefix_closure(a_parity, full_ab):
    result = transitive_closure(prefix_closure(a_parity), cap=4)
    assert result.converged and result.exponent == 1
    assert language_equal(result.closure.nfa, full_ab.nfa)
    assert enumerate_relation(result.closure, 6).pairs == closure_pairs(
        enumerate_relation(prefix_closure(a_parity), 6).pairs
    )


def test_closure_chain_needs_second_round(chained_classes):
    pc = prefix_closure(chained_classes)
    capped = transitive_closure(pc, cap=1)
    assert not capped.converged
    full = transitive_closure(pc, cap=8)
    assert full.converged and full.exponent == 2
    pairs = enumerate_relation(full.closure, 2).pairs
    assert (W("a"), W("b")) in pairs  # linked only through two steps
    assert closure_pairs(enumerate_relation(pc, 4).pairs) == enumerate_relation(
        full.closure, 4
    ).pairs


def test_closure_when_converged_is_transitive(a_parity, chained_classes):
    for r in (a_parity, chained_classes):
        result = transitive_closure(prefix_closure(r), cap=8)
        assert result.converged
        closure = result.closure
        assert includes(compose(closure, closure).nfa, closure.nfa)


def test_closure_requires_reflexive_symmetric_input():
    bare = LetterTransducer.build(
        AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1}
    )
    with pytest.raises(PreconditionError):
        transitive_closure(bare, cap=2)


# ---------------------------------------------------------------- min-lex uniformizer

def test_uniformizer_of_identity_is_identity(ident_ab):
    f = min_lex_uniformizer(ident_ab)
    assert language_equal(f.nfa, ident_ab.nfa)


def test_uniformizer_of_full_relation_maps_to_all_a(full_ab):
    f = min_lex_uniformizer(full_ab)
    graph = enumerate_relation(f, 5)
    for u, v in graph.pairs:
        assert v == ("a",) * len(u)
    # total on every length
    assert len({u for u, _ in graph.pairs}) == sum(2 ** n for n in range(6))


def test_uniformizer_of_last_a_matches_oracle_and_known_shape(last_a):
    f = min_lex_uniformizer(last_a)
    graph = enumerate_relation(f, 6)
    expected = min_lex_map(enumerate_relation(last_a, 6), AB)
    got = dict(graph.pairs)
    assert len(got) == len(graph.pairs)  # functional on these words
    assert got == expected
    for u, v in got.items():
        last = max((i + 1 for i, x in enumerate(u) if x == "a"), default=0)
        assert v == ("a",) * last + ("b",) * (len(u) - last)


def test_uniformizer_is_one_valued_and_kernel_restores_relation(a_parity):
    s, _ = syntactic_congruence(a_parity)
    f = min_lex_uniformizer(s)
    assert brute_valuedness(f, 7) == 1
    graph = dict(enumerate_relation(f, 6).pairs)
    kernel = {
        (u, v) for u in graph for v in graph if graph[u] == graph[v]
    }
    assert kernel == enumerate_relation(trim_transducer(s), 6).pairs


def test_uniformizer_rejects_non_equivalence():
    bare = LetterTransducer.build(AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1})
    with pytest.raises(NotEquivalenceError):
        min_lex_uniformizer(bare)


# ---------------------------------------------------------------- unions

def test_relation_union_matches_pairwise_union(last_a, ident_ab):
    u = relation_union(last_a, ident_ab)
    assert relation_pairs_by_oracle(u, 5) == (
        relation_pairs_by_oracle(last_a, 5) | relation_pairs_by_oracle(ident_ab, 5)
    )
