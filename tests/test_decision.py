import random
import sys

import pytest

from kernseq.automata import Alphabet, language_equal, trim
from kernseq.decision import (
    CLOSURE_CAP_EXHAUSTED,
    INFINITE,
    FINITE,
    INFINITE_INDEX,
    NOT_PREFIX_CLOSED,
    Outcome,
    analyze,
    decide_kerseq_ll,
    decide_kerseq_lp,
    index_is_finite,
    is_finitely_valued,
)
from kernseq.errors import (
    BadClosureWitnessError,
    NotEquivalenceError,
    NotFinerError,
)
from kernseq.oracle import (
    brute_index,
    brute_kernel,
    default_suite,
    enumerate_relation,
    random_equivalence,
    valuedness_profile,
)
from kernseq.relations import (
    compose,
    is_prefix_closed,
    min_lex_uniformizer,
    syntactic_congruence,
)
from kernseq.synthesis import kernel_transducer, synthesize_mealy, synthesize_subsequential
from kernseq.transducers import LetterTransducer, diagonal_states, identity, pair_dfa

from conftest import (
    AB,
    build_a_parity,
    build_agree_except_last,
    build_chain,
    build_last_a,
    build_mod_count,
)



# ---------------------------------------------------------------- valuedness

def test_functional_transducer_is_one_valued(last_a):
    f = min_lex_uniformizer(last_a)
    assert is_finitely_valued(f)
    assert valuedness_profile(f, 6)[-1] == 1


def test_single_state_double_output_loop_is_infinitely_valued():
    one = LetterTransducer.build(
        Alphabet(("a",)), AB, {0},
        {(0, ("a", "a"), 0), (0, ("a", "b"), 0)}, {0}, {0},
    )
    assert not is_finitely_valued(one)
    assert valuedness_profile(one, 5) == [1, 2, 4, 8, 16, 32]


def test_uniformized_congruence_after_c_singletons_is_infinitely_valued(c_singletons):
    s, _ = syntactic_congruence(c_singletons)
    f = min_lex_uniformizer(s)
    t = compose(f, c_singletons)
    assert not is_finitely_valued(t)
    profile = valuedness_profile(t, 5)
    assert profile == [1, 2, 4, 8, 16, 32]  # one value per c-free word


def test_transfer_divergence_pattern_detected():
    # loop a|a at 0, transfer a|a to 1, loop a|b at 1: outputs diverge
    t = LetterTransducer.build(
        Alphabet(("a",)), AB, {0, 1},
        {(0, ("a", "a"), 0), (0, ("a", "a"), 1), (1, ("a", "b"), 1)},
        {0}, {1},
    )
    assert not is_finitely_valued(t)
    # same shape, but outputs agree everywhere: finitely valued
    t2 = LetterTransducer.build(
        Alphabet(("a",)), AB, {0, 1},
        {(0, ("a", "a"), 0), (0, ("a", "a"), 1), (1, ("a", "a"), 1)},
        {0}, {1},
    )
    assert is_finitely_valued(t2)


def test_valuedness_matches_growth_on_random_instances():
    for r in default_suite(25, seed=1234):
        s, _ = syntactic_congruence(r)
        f = min_lex_uniformizer(s)
        t = compose(f, r)
        profile = valuedness_profile(t, 8)
        if is_finitely_valued(t):
            assert profile[5] == profile[8]
        else:
            assert profile[8] > profile[4]


def _reference_same_state_loops(nfa):
    """One search per state q, from ((q, q), False) to ((q, q), True)."""
    adjacency = {}
    by_letter = {}
    for p, (a, b), q in nfa.transitions:
        by_letter.setdefault(a, []).append((p, b, q))
    for items in by_letter.values():
        for p1, b1, q1 in items:
            for p2, b2, q2 in items:
                adjacency.setdefault((p1, p2), []).append(((q1, q2), b1 != b2))
    for q in sorted(nfa.states):
        start, target = ((q, q), False), ((q, q), True)
        seen, todo = {start}, [start]
        while todo:
            pair, flag = todo.pop()
            for nxt, diff in adjacency.get(pair, ()):
                node = (nxt, flag or diff)
                if node == target:
                    return True
                if node not in seen:
                    seen.add(node)
                    todo.append(node)
    return False


def _reference_transfer(nfa):
    """One triple-product search per pair (p, q) the square links."""
    square = {}
    step = {}
    for p1, (a1, b1), q1 in nfa.transitions:
        step.setdefault((p1, a1), []).append((b1, q1))
        for p2, (a2, b2), q2 in nfa.transitions:
            if a1 == a2:
                square.setdefault((p1, p2), []).append((q1, q2))
    letters = {a for _p, (a, _b), _q in nfa.transitions}
    for p in nfa.states:
        companions, todo = {(p, p)}, [(p, p)]
        while todo:
            for nxt in square.get(todo.pop(), ()):
                if nxt not in companions:
                    companions.add(nxt)
                    todo.append(nxt)
        for q in nfa.states:
            if q == p or (p, q) not in companions:
                continue
            start, target = (p, p, q, False), (p, q, q, True)
            seen, todo = {start}, [start]
            while todo:
                x, y, z, flag = todo.pop()
                for a in letters:
                    for b1, x2 in step.get((x, a), ()):
                        for b2, y2 in step.get((y, a), ()):
                            for b3, z2 in step.get((z, a), ()):
                                node = (x2, y2, z2, flag or b1 != b2 or b2 != b3)
                                if node == target:
                                    return True
                                if node not in seen:
                                    seen.add(node)
                                    todo.append(node)
    return False


def test_valuedness_matches_per_pair_searches_on_random_transducers():
    rng = random.Random(2024)
    seen = {"loops": set(), "transfer": set(), "transfer only": set()}
    tried = 0
    while tried < 2000:
        n = rng.randint(1, 6)
        transitions = {
            (rng.randrange(n), (rng.choice("ab"), rng.choice("ab")), rng.randrange(n))
            for _ in range(rng.randint(n, 3 * n))
        }
        finals = rng.sample(range(n), rng.randint(1, n))
        nfa = trim(LetterTransducer.build(AB, AB, range(n), transitions, {0}, finals).nfa)
        if not nfa.states:
            continue
        tried += 1
        loops = _reference_same_state_loops(nfa)
        transfer = _reference_transfer(nfa)
        seen["loops"].add(loops)
        seen["transfer"].add(transfer)
        if not loops:
            seen["transfer only"].add(transfer)
        t = LetterTransducer(AB, AB, nfa)
        assert is_finitely_valued(t) is not (loops or transfer), sorted(nfa.transitions)
    assert all(found == {True, False} for found in seen.values()), seen


def _one_letter_transducer(states, transitions, final):
    return LetterTransducer.build(
        Alphabet(("a",)), AB, states,
        {(p, ("a", b), q) for p, b, q in transitions}, {0}, {final},
    )


def test_transfer_divergence_in_the_middle_of_a_word():
    # loop at 0 on aaa writes aaa, transfer 0 to 3 on aaa writes aba, loop
    # at 3 on aaa writes aba: on a^(3k) the k runs write k different words,
    # while no state has two loops on one input
    t = _one_letter_transducer(
        range(8),
        [(0, "a", 1), (1, "a", 2), (2, "a", 0),
         (0, "a", 4), (4, "b", 5), (5, "a", 3),
         (3, "a", 6), (6, "b", 7), (7, "a", 3)],
        final=3,
    )
    assert not is_finitely_valued(t)
    profile = valuedness_profile(t, 9)
    assert profile[9] > profile[6] > profile[3]


def test_linked_states_without_divergence_are_finitely_valued():
    # the same loop, transfer and loop, all writing aba: the square links
    # (0, 3), but every run on a^(3k) writes (aba)^k
    t = _one_letter_transducer(
        range(8),
        [(0, "a", 1), (1, "b", 2), (2, "a", 0),
         (0, "a", 4), (4, "b", 5), (5, "a", 3),
         (3, "a", 6), (6, "b", 7), (7, "a", 3)],
        final=3,
    )
    assert is_finitely_valued(t)
    assert set(valuedness_profile(t, 9)) <= {0, 1}


# ---------------------------------------------------------------- index

def test_index_of_relation_with_itself_is_finite(a_parity):
    assert index_is_finite(a_parity, a_parity)
    assert brute_index(a_parity, a_parity, 6) == 1


def test_index_of_congruence_wrt_c_singletons_is_infinite(c_singletons):
    s, _ = syntactic_congruence(c_singletons)
    assert not index_is_finite(s, c_singletons)
    assert [brute_index(s, c_singletons, n) for n in (1, 2, 3)] == [2, 4, 8]


def test_index_of_congruence_wrt_parity_is_finite(a_parity):
    s, _ = syntactic_congruence(a_parity)
    assert index_is_finite(s, a_parity)
    profile = [brute_index(s, a_parity, n) for n in (4, 6, 8)]
    assert profile == [1, 1, 1]  # the congruence equals the relation here


def test_index_requires_inclusion(ident_ab, full_ab):
    with pytest.raises(NotFinerError):
        index_is_finite(full_ab, ident_ab)


# ---------------------------------------------------------------- decide ll

def test_decide_ll_identity_yes_with_one_state_witness(ident_ab):
    verdict = decide_kerseq_ll(ident_ab)
    assert verdict.outcome is Outcome.YES
    assert len(verdict.witness.states) == 1
    assert language_equal(kernel_transducer(verdict.witness).nfa, ident_ab.nfa)


def test_decide_ll_parity_fails_prefix_closure(a_parity):
    verdict = decide_kerseq_ll(a_parity)
    assert verdict.outcome is Outcome.NO
    assert verdict.reason == NOT_PREFIX_CLOSED
    assert verdict.witness is None


def test_decide_ll_last_a_fails_prefix_closure(last_a):
    verdict = decide_kerseq_ll(last_a)
    assert (verdict.outcome, verdict.reason) == (Outcome.NO, NOT_PREFIX_CLOSED)


def test_decide_ll_c_singletons_fails_index(c_singletons):
    verdict = decide_kerseq_ll(c_singletons)
    assert (verdict.outcome, verdict.reason) == (Outcome.NO, INFINITE_INDEX)


def test_decide_ll_agree_except_last_yes(agree_except_last):
    verdict = decide_kerseq_ll(agree_except_last)
    assert verdict.outcome is Outcome.YES
    assert language_equal(
        kernel_transducer(verdict.witness).nfa, agree_except_last.nfa
    )


def test_decide_ll_synthesizes_matrices_of_dimension_128():
    # agreeing except in the last 7 letters needs matrices of dimension 2^7;
    # the matrix dimension is not capped, since the index is proved finite
    verdict = decide_kerseq_ll(build_agree_except_last(7))
    assert verdict.outcome is Outcome.YES
    assert len(verdict.witness.states) >= 128


def test_decide_ll_rejects_non_equivalence():
    bare = LetterTransducer.build(AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1})
    with pytest.raises(NotEquivalenceError):
        decide_kerseq_ll(bare)


@pytest.mark.parametrize(
    "entry",
    [
        decide_kerseq_lp,
        is_prefix_closed,
        synthesize_mealy,
        lambda r: synthesize_subsequential(r, r),
    ],
    ids=["decide_kerseq_lp", "is_prefix_closed", "synthesize_mealy", "synthesize_subsequential"],
)
def test_entry_points_reject_non_equivalence(entry):
    bare = LetterTransducer.build(AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1})
    with pytest.raises(NotEquivalenceError):
        entry(bare)


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` wherever a kernseq module binds it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("kernseq"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_each_entry_point_validates_its_relation_once(monkeypatch):
    from kernseq import relations

    calls = _count_calls(monkeypatch, relations, "validate_relation")
    bare = LetterTransducer.build(AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1})
    yes_ll, npc, inf = build_agree_except_last(2), build_a_parity(), build_last_a()
    runs = [
        (decide_kerseq_ll, (yes_ll,), {}),
        (decide_kerseq_ll, (npc,), {}),
        (decide_kerseq_lp, (build_mod_count(3),), {}),
        (decide_kerseq_lp, (inf,), {}),
        (decide_kerseq_lp, (build_chain(3),), {"cap": 2}),
        (decide_kerseq_lp, (identity(AB),), {"closure": identity(AB)}),
        (analyze, (yes_ll,), {}),
        (analyze, (npc,), {}),
        (analyze, (identity(AB),), {"pplus": identity(AB)}),
        (analyze, (bare,), {}),
    ]
    for entry, args, kwargs in runs:
        calls.clear()
        entry(*args, **kwargs)
        assert calls == [args[:1]], entry.__name__
    calls.clear()
    with pytest.raises(NotEquivalenceError):
        decide_kerseq_lp(bare)
    assert calls == [(bare,)]


def test_diagonal_states_run_no_inclusion(monkeypatch):
    from kernseq import automata

    calls = _count_calls(monkeypatch, automata, "includes")
    for r in (build_last_a(), build_mod_count(4), build_agree_except_last(3)):
        assert diagonal_states(pair_dfa(r))
    assert calls == []


# ---------------------------------------------------------------- decide lp

def test_decide_lp_identity_yes_with_tiny_cap(ident_ab):
    verdict = decide_kerseq_lp(ident_ab, cap=1)
    assert verdict.outcome is Outcome.YES


def test_decide_lp_last_a_infinite_index(last_a):
    verdict = decide_kerseq_lp(last_a, cap=8)
    assert (verdict.outcome, verdict.reason) == (Outcome.NO, INFINITE_INDEX)
    # the congruence index against the relation itself is fine; the closure
    # stage is where it degenerates, so a closure was actually computed
    assert verdict.closure is not None and verdict.closure.converged


def test_decide_lp_c_singletons_decided_without_closure(c_singletons):
    verdict = decide_kerseq_lp(c_singletons, cap=8)
    assert (verdict.outcome, verdict.reason) == (Outcome.NO, INFINITE_INDEX)
    assert verdict.closure is None  # failed before any closure work


def test_decide_lp_parity_yes_with_verified_witnesses(a_parity):
    verdict = decide_kerseq_lp(a_parity, cap=8)
    assert verdict.outcome is Outcome.YES
    assert verdict.subsequential is not None
    assert language_equal(
        kernel_transducer(verdict.subsequential).nfa, a_parity.nfa
    )
    finals = set(verdict.subsequential.final_output.values())
    assert len(finals) == 2  # separates the two parities


def test_decide_lp_chain_unknown_at_small_cap(chained_classes):
    verdict = decide_kerseq_lp(chained_classes, cap=1)
    assert (verdict.outcome, verdict.reason) == (
        Outcome.UNKNOWN,
        CLOSURE_CAP_EXHAUSTED,
    )
    assert verdict.witness is None
    assert not verdict.closure.converged


def test_decide_lp_chain_yes_with_enough_cap(chained_classes):
    verdict = decide_kerseq_lp(chained_classes, cap=8)
    assert verdict.outcome is Outcome.YES
    assert verdict.closure.exponent == 2


def test_decide_lp_accepts_externally_supplied_closure(a_parity, full_ab):
    verdict = decide_kerseq_lp(a_parity, closure=full_ab)
    assert verdict.outcome is Outcome.YES
    assert verdict.closure is None  # not computed here


def test_decide_lp_rejects_bad_closure_witness(a_parity, ident_ab):
    with pytest.raises(BadClosureWitnessError):
        decide_kerseq_lp(a_parity, closure=ident_ab)


def test_decide_lp_three_letter_full_relation_needs_no_enumeration():
    # a 9-state presentation of the full same-length relation over three
    # letters: a self-check enumerating every related pair up to the
    # default bound ran out of memory after the answer was known
    rng = random.Random(1)
    r = [random_equivalence(rng, max_states=3, letters=("a", "b", "c")) for _ in range(3)][2]
    verdict = decide_kerseq_lp(r)
    assert verdict.outcome is Outcome.YES
    reference = enumerate_relation(r, 5).pairs
    assert brute_kernel(verdict.witness, 5).pairs == reference
    assert brute_kernel(verdict.subsequential, 5).pairs == reference


def test_decide_lp_four_link_chain_needs_no_enumeration():
    # five letters: a self-check listing every word up to the default
    # bound 10 ran out of memory after the answer was known
    r = build_chain(4)
    verdict = decide_kerseq_lp(r)
    assert verdict.outcome is Outcome.YES
    assert verdict.closure.exponent == 4
    reference = enumerate_relation(r, 5).pairs
    assert brute_kernel(verdict.witness, 5).pairs == reference
    assert brute_kernel(verdict.subsequential, 5).pairs == reference


def test_decide_lp_counting_modulo_8_is_yes():
    # the closure-relative valuedness search here explores a triple
    # product of about 48,000 nodes, each once
    verdict = decide_kerseq_lp(build_mod_count(8))
    assert verdict.outcome is Outcome.YES


def test_decide_lp_makes_no_oracle_call(monkeypatch, a_parity, chained_classes):
    import kernseq.oracle

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle was called on the decision path")

    for name in ("brute_kernel", "enumerate_relation", "default_bound"):
        monkeypatch.setattr(kernseq.oracle, name, refuse)
    for r in (a_parity, chained_classes, build_chain(3)):
        assert decide_kerseq_lp(r, cap=8).outcome is Outcome.YES


def test_decide_lp_refuses_a_witness_with_the_wrong_kernel(monkeypatch, a_parity):
    import kernseq.synthesis
    from kernseq.errors import InternalInvariantError
    from kernseq.machines import SequentialTransducer

    constant = SequentialTransducer(
        input_alphabet=AB,
        output_alphabet=Alphabet(("x",)),
        states={0},
        transitions={(0, "a"): (("x",), 0), (0, "b"): (("x",), 0)},
        initial=0,
        finals={0},
    )
    monkeypatch.setattr(kernseq.synthesis, "eliminate_final_output", lambda sub: constant)
    with pytest.raises(InternalInvariantError):
        decide_kerseq_lp(a_parity)


def test_ll_yes_implies_lp_yes(ident_ab, agree_except_last):
    for r in (ident_ab, agree_except_last):
        assert decide_kerseq_ll(r).outcome is Outcome.YES
        assert decide_kerseq_lp(r, cap=4).outcome is Outcome.YES


# ---------------------------------------------------------------- analyze

def test_analyze_parity_report(a_parity):
    report = analyze(a_parity, cap=8)
    assert report.validation.is_equivalence
    assert report.length_preserving
    assert report.prefix_closed is False
    assert report.index_wrt_relation == FINITE
    assert report.closure.converged
    assert report.index_wrt_closure == FINITE


def test_analyze_c_singletons_report(c_singletons):
    report = analyze(c_singletons, cap=8)
    assert report.prefix_closed is True
    assert report.index_wrt_relation == INFINITE
    assert report.index_wrt_closure == INFINITE


def test_analyze_last_a_index_differs_between_relation_and_closure(last_a):
    report = analyze(last_a)
    assert report.index_wrt_relation == FINITE
    assert report.closure.converged
    assert report.index_wrt_closure == INFINITE
    assert decide_kerseq_lp(last_a).reason == INFINITE_INDEX


def test_analyze_chain_with_insufficient_cap(chained_classes):
    report = analyze(chained_classes, cap=1)
    assert report.closure is not None and not report.closure.converged
    assert report.index_wrt_closure is None


def test_analyze_with_supplied_closure(a_parity, full_ab):
    report = analyze(a_parity, pplus=full_ab)
    assert report.closure is None
    assert report.index_wrt_closure == FINITE


def test_analyze_non_equivalence_read_only_validation():
    bare = LetterTransducer.build(AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1})
    report = analyze(bare)
    assert not report.validation.is_equivalence
    assert report.length_preserving
    assert report.prefix_closed is None
    assert report.index_wrt_relation is None
    assert report.closure is None


def test_verdict_reason_codes_are_stable_strings():
    assert NOT_PREFIX_CLOSED == "NOT_PREFIX_CLOSED"
    assert INFINITE_INDEX == "INFINITE_INDEX"
    assert CLOSURE_CAP_EXHAUSTED == "CLOSURE_CAP_EXHAUSTED"


# ---------------------------------------------------------------- NO soundness

def test_prefix_closure_refusals_have_short_witnesses(
    last_a, a_parity, chained_classes
):
    # a NO for prefix-closedness is witnessed by a concrete unrelated pair
    # that becomes related in the future, no longer than the trimmed
    # deterministic automaton is wide
    from kernseq.automata import trim
    from kernseq.oracle import prefix_pairs
    from kernseq.transducers import pair_dfa

    for r in (last_a, a_parity, chained_classes):
        assert decide_kerseq_ll(r).reason == NOT_PREFIX_CLOSED
        bound = min(len(trim(pair_dfa(r).nfa).states), 5)
        gap = prefix_pairs(r, bound, bound) - enumerate_relation(r, bound).pairs
        assert gap, "no concrete witness found within the state-count bound"


def test_infinite_index_refusals_show_strict_growth(c_singletons, last_a):
    from kernseq.oracle import index_profile
    from kernseq.relations import prefix_closure, transitive_closure

    s, _ = syntactic_congruence(c_singletons)
    profile = index_profile(s, c_singletons, 8)
    assert profile[4] < profile[8]

    closure = transitive_closure(prefix_closure(last_a), cap=8)
    assert closure.converged
    s2, _ = syntactic_congruence(last_a)
    wrt_closure = index_profile(s2, closure.closure, 8)
    assert wrt_closure[4] < wrt_closure[8]
