import random

import pytest
from hypothesis import given, settings, strategies as st

from kernseq.automata import Alphabet, trim
from kernseq.decision import decide_kerseq_lp
from kernseq.errors import BoundTooLargeError
from kernseq.oracle import (
    accepts_pair_backward,
    all_words,
    brute_index,
    brute_kernel,
    brute_valuedness,
    MAX_BOUND,
    closure_pairs,
    default_bound,
    default_suite,
    enumerate_relation,
    index_profile,
    min_lex_map,
    random_equivalence,
    suite_seed,
    valuedness_profile,
)
from kernseq.relations import min_lex_uniformizer, syntactic_congruence, validate_relation
from kernseq.synthesis import synthesize_mealy
from kernseq.transducers import LetterTransducer, full_same_length, identity, pair_dfa

from conftest import (
    AB,
    build_a_parity,
    build_agree_except_last,
    build_c_singletons,
    build_chain,
    build_chained_classes,
    build_last_a,
    build_mod_count,
)


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


def test_enumerate_identity_at_two(ident_ab):
    expected = {
        ((), ()),
        (("a",), ("a",)),
        (("b",), ("b",)),
        (("a", "a"), ("a", "a")),
        (("a", "b"), ("a", "b")),
        (("b", "a"), ("b", "a")),
        (("b", "b"), ("b", "b")),
    }
    assert enumerate_relation(ident_ab, 2).pairs == expected


def test_enumerate_parity_members_at_two(a_parity):
    pairs = enumerate_relation(a_parity, 2).pairs
    assert (("a", "b"), ("b", "a")) in pairs
    assert (("a", "a"), ("a", "b")) not in pairs
    assert len(pairs) == 11


@settings(max_examples=40, deadline=None)
@given(small_relations())
def test_forward_enumeration_agrees_with_backward_membership(r):
    pairs = enumerate_relation(r, 4).pairs
    pool = all_words(AB, 4)
    for u in pool:
        for v in pool:
            if len(u) == len(v):
                assert ((u, v) in pairs) == accepts_pair_backward(r, u, v)


def test_bound_guard():
    with pytest.raises(BoundTooLargeError):
        enumerate_relation(
            LetterTransducer.build(AB, AB, {0}, {(0, ("a", "a"), 0)}, {0}, {0}), 11
        )
    # the default bound counts the useful states of the pair DFA with the
    # oracle's own subset construction and walk, as the library's
    # determinize and trim count them
    from kernseq.oracle import _pair_dfa_size

    fixtures = [
        build_last_a(),
        build_a_parity(),
        build_c_singletons(),
        build_agree_except_last(3),
        build_mod_count(3),
        build_chain(3),
        build_chained_classes(),
        identity(AB),
        full_same_length(AB),
    ]
    rng = random.Random(7)
    draws = [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(200)]
    sizes = set()
    for r in fixtures + default_suite(200, seed=7) + draws:
        trimmed = len(trim(pair_dfa(r).nfa).states)
        assert _pair_dfa_size(r.nfa) == trimmed
        assert default_bound(r) == min(MAX_BOUND, max(6, trimmed))
        sizes.add(trimmed)
    assert min(sizes) < 6 < MAX_BOUND < max(sizes)


def test_brute_index_of_relation_with_itself(a_parity):
    assert brute_index(a_parity, a_parity, 6) == 1


def test_brute_index_growth_on_c_singletons(c_singletons):
    s, _ = syntactic_congruence(c_singletons)
    assert index_profile(s, c_singletons, 3)[1:] == [2, 4, 8]


def test_brute_index_constant_on_agree_except_last(agree_except_last):
    s, _ = syntactic_congruence(agree_except_last)
    profile = index_profile(s, agree_except_last, 8)
    assert profile[4:] == [2, 2, 2, 2, 2]


def _reference_index_profile(s, r, bound):
    """The pair-set profile that ``index_profile`` replaced, kept as its
    reference: the least s-neighbour of every word, counted over each
    enumerated r-image."""
    er = enumerate_relation(r, bound)
    es = enumerate_relation(s, bound)
    s_rep = {}
    for v, w in es.pairs:
        if v not in s_rep or w < s_rep[v]:
            s_rep[v] = w
    best = [0] * (bound + 1)
    for u, vs in er.as_map().items():
        count = len({s_rep.get(v, v) for v in vs})
        if count > best[len(u)]:
            best[len(u)] = count
    for n in range(1, bound + 1):
        best[n] = max(best[n], best[n - 1])
    return best


def test_index_profile_matches_the_pair_set_profile(
    c_singletons, agree_except_last, a_parity, last_a, chained_classes
):
    rng = random.Random(11)
    relations = (
        [c_singletons, agree_except_last, a_parity, last_a, chained_classes]
        + default_suite(200)
        + [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(3)]
    )
    compared = 0
    for r in relations:
        s, _ = syntactic_congruence(r)
        targets = [r]
        lp = decide_kerseq_lp(r, cap=4)
        if lp.closure is not None and lp.closure.converged:
            targets.append(lp.closure.closure)
        for target in targets:
            assert index_profile(s, target, 5) == _reference_index_profile(s, target, 5)
            compared += 1
    assert compared > 300


def test_valuedness_of_functional_machine_is_one(last_a):
    f = min_lex_uniformizer(last_a)
    assert brute_valuedness(f, 6) == 1


def test_valuedness_of_two_output_loop_is_exponential():
    one = LetterTransducer.build(
        Alphabet(("a",)), AB, {0},
        {(0, ("a", "a"), 0), (0, ("a", "b"), 0)}, {0}, {0},
    )
    assert valuedness_profile(one, 6) == [1, 2, 4, 8, 16, 32, 64]
    assert brute_valuedness(one, 6) == 64


def test_brute_kernel_of_synthesized_machine_matches_relation(agree_except_last):
    machine = synthesize_mealy(agree_except_last)
    assert brute_kernel(machine, 8).pairs == enumerate_relation(
        agree_except_last, 8
    ).pairs


def test_closure_pairs_is_a_fixpoint():
    base = frozenset({(("a",), ("b",)), (("b",), ("c",))})
    closed = closure_pairs(base)
    assert (("a",), ("c",)) in closed
    assert closure_pairs(closed) == closed


def test_min_lex_map_uses_declaration_order():
    # declaration order b < a, so the least class element is b, not a
    rel = enumerate_relation(
        LetterTransducer.build(
            Alphabet(("b", "a")), Alphabet(("b", "a")),
            {0}, {(0, (x, y), 0) for x in "ab" for y in "ab"}, {0}, {0},
        ),
        2,
    )
    least = min_lex_map(rel, Alphabet(("b", "a")))
    assert least[("a",)] == ("b",)


def test_random_equivalences_are_equivalences_by_construction():
    for r in default_suite(20, seed=99):
        assert validate_relation(r).is_equivalence


def test_suite_is_deterministic_per_seed():
    assert default_suite(5, seed=3) == default_suite(5, seed=3)
    assert default_suite(5, seed=3) != default_suite(5, seed=4)


def test_seed_env_var_override(monkeypatch):
    monkeypatch.setenv("KERNSEQ_ORACLE_SEED", "12345")
    assert suite_seed() == 12345
    assert default_suite(3) == default_suite(3, seed=12345)
    monkeypatch.delenv("KERNSEQ_ORACLE_SEED")
    assert suite_seed() != 12345


def test_random_equivalence_respects_max_states():
    import random

    r = random_equivalence(random.Random(0), max_states=1)
    assert len(r.nfa.states) == 1
