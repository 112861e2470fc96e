import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kernseq.automata import (
    Nfa,
    _dfa,
    coaccessible_states,
    determinize,
    explore,
    explored,
    inclusion_counterexample,
    includes,
    language_equal,
    minimize,
    trim,
)
from kernseq.decision import (
    DEFAULT_CLOSURE_CAP,
    analyze,
    decide_kerseq_ll,
    decide_kerseq_lp,
    is_finitely_valued,
)
from kernseq.errors import (
    AlphabetMismatchError,
    BadClosureWitnessError,
    NotEquivalenceError,
    PreconditionError,
)
from kernseq.oracle import (
    _classes,
    all_words,
    brute_valuedness,
    closure_pairs,
    default_suite,
    enumerate_relation,
    min_lex_map,
    prefix_pairs,
    random_equivalence,
    syntactic_pairs,
)
from kernseq.relations import (
    _axioms,
    compose,
    inverse,
    is_prefix_closed,
    min_lex_uniformizer,
    prefix_closure,
    prepare,
    syntactic_congruence,
    transitive_closure,
    validate_relation,
)
from kernseq.synthesis import validate_closure_witness
from kernseq.transducers import (
    LetterTransducer,
    diagonal_states,
    full_same_length,
    identity,
    pair_dfa,
)

from boolean_ops import complement, relation_union, trim_transducer
from reference_compose import reference_compose
from conftest import (
    AB,
    ABC,
    build_a_parity,
    build_agree_except_last,
    build_c_singletons,
    build_chain,
    build_chained_classes,
    build_last_a,
    build_mod_count,
    count_calls,
    finite_relation,
)

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


def _axioms_by_inclusion(r):
    """Reference: the equivalence axioms as three inclusions into r, of the
    identity, the inverse and the product composition of r with itself.
    Per axiom, the relation that must lie within r and a shortest pair of
    it that r lacks, None when there is none."""
    required = [identity(r.input_alphabet), inverse(r), reference_compose(r, r)]
    return [(q, inclusion_counterexample(q.nfa, r.nfa)) for q in required]


def test_validation_walks_agree_with_the_inclusion_definition():
    rng = random.Random(4409)
    relations = [
        LetterTransducer.build(AB, AB, set(), set(), set(), set()),
        LetterTransducer.build(ABC, ABC, {0}, set(), {0}, set()),
    ]
    for i in range(2400):
        letters = ("a", "b") if i % 2 else ("a", "b", "c")
        outputs = ("a", "b", "c") if i % 40 == 1 else letters
        a = _random_transducer(rng, letters, outputs, max_states=5).nfa
        transitions = set(a.transitions)
        if rng.random() < 0.5:  # the identity on state 0
            transitions |= {(0, (x, x), 0) for x in letters if x in outputs}
        if rng.random() < 0.5:  # every pair also read backwards
            transitions |= {
                (p, (y, x), q) for p, (x, y), q in transitions if y in letters and x in outputs
            }
        finals = a.finals | ({0} if rng.random() < 0.5 else set())
        relations.append(
            LetterTransducer.build(letters, outputs, a.states, transitions, a.initials, finals)
        )
    seen = set()
    for i, r in enumerate(relations):
        v = validate_relation(r)
        holds = (v.is_reflexive, v.is_symmetric, v.is_transitive)
        seen.add(holds)
        if not r.same_alphabets():
            assert holds == (False, False, False), i
            continue
        # each walk's counterexample is a pair r lacks, as short as the shortest
        d = determinize(r.nfa)
        walks = [walk() for walk in _axioms(*d._rows, coaccessible_states(d), r.input_alphabet)]
        for ok, found, (required, shortest) in zip(holds, walks, _axioms_by_inclusion(r)):
            assert ok == (found is None) == (shortest is None), i
            if found is not None:
                assert len(found) == len(shortest), i
                assert required.nfa.accepts(found) and not r.nfa.accepts(found), i
    assert len(seen) == 8


def _reference_axioms(d, alphabet):
    """Reference copy of the axiom walks on tuple nodes, each move a
    (label, node) pair and each node keeping its label: per axiom, a
    shortest pair the relation of the complete pair DFA ``d`` lacks, as a
    word of pair letters, or None."""
    live = coaccessible_states(d)
    table = d._table
    w = len(alphabet)
    finals = d.finals
    (start,) = d.initials
    ahead = {
        q: [
            [(b, t) for b, (t,) in enumerate(row[a * w : (a + 1) * w]) if t in live]
            for a in range(w)
        ]
        for q, row in table.items()
    }

    def diagonal(p):
        return [(a * (w + 1), q) for a, (q,) in enumerate(table[p][:: w + 1])]

    def mirrored(pair):
        p, q = pair
        back = table[q]
        return [
            (b * w + a, (p2, back[b * w + a][0])) for a, hops in enumerate(ahead[p]) for b, p2 in hops
        ]

    def chained(triple):
        p, q, s = triple
        row_s, from_q = table[s], ahead[q]
        return [
            (a * w + c, (p2, q2, row_s[a * w + c][0]))
            for a, hops in enumerate(ahead[p])
            for b, p2 in hops
            for c, q2 in from_q[b]
        ]

    def shortest(start, successors, bad):
        parent = {start: None}
        queue = [start]
        for node in queue:
            if bad(node):
                labels = []
                while parent[node] is not None:
                    node, label = parent[node]
                    labels.append(label)
                return tuple(d.alphabet.letters[i] for i in reversed(labels))
            for label, nxt in successors(node):
                if nxt not in parent:
                    parent[nxt] = node, label
                    queue.append(nxt)
        return None

    return [
        shortest(start, diagonal, lambda p: p not in finals),
        shortest((start, start), mirrored, lambda n: n[0] in finals and n[1] not in finals),
        shortest(
            (start, start, start),
            chained,
            lambda n: n[0] in finals and n[1] in finals and n[2] not in finals,
        ),
    ]


def test_integer_node_walks_equal_the_tuple_node_walks():
    """The axiom walks give the reference's answer and counterexample,
    letter for letter, on equivalences and non-equivalences alike."""
    rng = random.Random(2323)
    drawn = []
    for i in range(3200):
        letters = ("a", "b") if i % 2 else ("a", "b", "c")
        if i % 4 == 0:
            r = random_equivalence(rng, max_states=3, letters=letters)
        elif i % 4 == 1 and len(letters) == 2:
            r = _reflexive_symmetric(rng)
        else:
            r = _random_transducer(rng, letters, max_states=5)
            if rng.random() < 0.5:  # the identity on state 0, and every pair read backwards
                r = LetterTransducer.build(
                    letters,
                    letters,
                    r.nfa.states,
                    set(r.nfa.transitions)
                    | {(0, (x, x), 0) for x in letters}
                    | {(p, (y, x), q) for p, (x, y), q in r.nfa.transitions},
                    r.nfa.initials,
                    r.nfa.finals,
                )
        drawn.append(r)
    found = [0, 0, 0]
    for i, r in enumerate(drawn):
        d = determinize(r.nfa)
        got = [walk() for walk in _axioms(*d._rows, coaccessible_states(d), r.input_alphabet)]
        assert got == _reference_axioms(d, r.input_alphabet), i
        for k, word in enumerate(got):
            found[k] += word is not None
    # every axiom fails on some draws and holds on others
    assert all(300 < count < len(drawn) - 300 for count in found), found


def test_the_closure_witness_check_walks_transitivity_then_symmetry(monkeypatch, a_parity):
    from kernseq import relations

    closure = prepare(a_parity).closure(DEFAULT_CLOSURE_CAP)[0].closure
    walks = count_calls(monkeypatch, relations, "_shortest")
    validate_closure_witness(a_parity, closure)
    assert [expand.__qualname__.split(".")[-3] for _start, expand, _labels in walks] == [
        "transitive",
        "symmetric",
    ]


def test_validation_runs_no_inclusion_composition_or_inverse(monkeypatch, last_a, a_parity):
    from kernseq import automata, relations

    calls = [
        count_calls(monkeypatch, automata, "includes"),
        count_calls(monkeypatch, relations, "compose"),
        count_calls(monkeypatch, relations, "_composed"),
        count_calls(monkeypatch, relations, "inverse"),
    ]
    bare = LetterTransducer.build(AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1})
    for r in (last_a, a_parity, build_c_singletons(), build_chain(3), bare):
        validate_relation(r)
    for r in (last_a, a_parity, build_chain(3)):
        prepare(r)
    assert calls == [[], [], [], []]


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


def _random_on(rng, inputs, outputs, states):
    """A random nondeterministic transducer on the given states, often
    with an empty language or no accepting path through its middle."""
    pairs = [(a, b) for a in inputs.letters for b in outputs.letters]
    transitions = {
        (rng.choice(states), rng.choice(pairs), rng.choice(states))
        for _ in range(rng.randint(0, 3 * len(states)))
    }
    initials = rng.sample(states, rng.randint(0, min(2, len(states))))
    finals = rng.sample(states, rng.randint(1, len(states)))
    return LetterTransducer.build(inputs, outputs, states, transitions, initials, finals)


def test_compose_is_the_minimized_product_composition(monkeypatch):
    from kernseq import automata, relations

    def check(r, s):
        got = compose(r, s)
        assert got.nfa == trim(minimize(reference_compose(r, s).nfa))
        assert (got.input_alphabet, got.output_alphabet) == (s.input_alphabet, r.output_alphabet)
        # the complete minimal DFA it keeps is its subset construction
        fresh = _dfa(got.nfa.alphabet, *automata._subset_dfa(got.nfa))
        assert determinize(got.nfa) == fresh == minimize(got.nfa)
        return got

    # every index input and every closure round, and the fixtures whose
    # index is infinite: the seeded suite never reaches that answer
    rounds = count_calls(monkeypatch, relations, "compose")
    fixtures = [build_last_a(), build_c_singletons(), build_chained_classes(), build_chain(3)]
    infinite = 0
    for r in fixtures + default_suite(200, seed=7):
        uniformizer = min_lex_uniformizer(prepare(r).congruence)
        result = transitive_closure(prefix_closure(r), DEFAULT_CLOSURE_CAP)
        for target in (r, result.closure) if result.converged else (r,):
            infinite += not is_finitely_valued(check(uniformizer, target))
    assert len(rounds) >= 4 and infinite >= 3
    for current, p in list(rounds):
        check(current, p)
    # random nondeterministic transducers through a three-letter middle,
    # the second applied numbered from -2 with gaps
    rng = random.Random(23)
    empty = 0
    for _ in range(600):
        s = _random_on(rng, AB, ABC, list(range(rng.randint(1, 4))))
        r = _random_on(rng, ABC, AB, [-2, 0, 3, 7][: rng.randint(1, 4)])
        empty += not check(r, s).nfa.states
    assert 50 < empty < 550


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


def _random_transducer(rng, letters, outputs=None, max_states=4):
    outputs = outputs or letters
    n = rng.randint(1, max_states)
    density = rng.choice((0.1, 0.25, 0.5))
    transitions = {
        (p, (a, b), q)
        for p in range(n)
        for a in letters
        for b in outputs
        for q in range(n)
        if rng.random() < density / n
    }
    initials = set(rng.sample(range(n), rng.randint(1, n)))
    finals = {q for q in range(n) if rng.random() < 0.6}
    return LetterTransducer.build(letters, outputs, range(n), transitions, initials, finals)


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
        assert _representatives(prep) == minimize(_fixed_points(min_lex_uniformizer(s)))
        assert prep.det == pair_dfa(r)
        assert prep.validation == validate_relation(r)


def test_the_index_is_read_off_the_pair_dfa_when_the_congruence_is_the_relation(monkeypatch):
    """The diagonal states are always final, so when every final state of
    the pair DFA is diagonal the congruence is r, of index 1 against r:
    ``finite_index`` answers with no representatives walk and no valuedness search,
    and the search agrees."""
    from cosequential import SLOW_CLOSURE, cosequential_suite

    from kernseq import relations

    fixtures = [
        build_last_a(),
        build_a_parity(),
        build_c_singletons(),
        build_agree_except_last(2),
        build_mod_count(3),
        build_chain(2),
        build_chained_classes(),
        identity(AB),
        full_same_length(AB),
    ]
    rng = random.Random(7)
    cases = fixtures + default_suite(200, seed=7)
    cases += [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(200)]
    cases += [r for i, r in enumerate(cosequential_suite()) if i != SLOW_CLOSURE]
    valued = count_calls(monkeypatch, relations, "_finitely_valued")
    built = count_calls(monkeypatch, relations, "_least_walk")
    decided = 0
    for r in cases:
        prep = prepare(r)
        assert prep.diagonal <= prep.det.nfa.finals
        if prep.det.nfa.finals <= prep.diagonal:
            decided += 1
            valued.clear()
            built.clear()
            assert prep.finite_index
            assert valued == built == []
            assert relations._finite_index(prep, r)
    assert decided > len(cases) // 2
    # finer congruences still take the search, and c_singletons's is infinite
    cases = [(build_agree_except_last(k), True) for k in (1, 2, 3)]
    cases.append((build_c_singletons(), False))
    for r, finite in cases:
        prep = prepare(r)
        assert not prep.det.nfa.finals <= prep.diagonal
        valued.clear()
        built.clear()
        assert prep.finite_index is finite
        assert len(valued) == len(built) == 1


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
    with pytest.raises(PreconditionError, match="reflexive"):
        transitive_closure(bare, cap=2)
    mismatched = LetterTransducer.build(
        AB, ABC, {0}, {(0, ("a", "a"), 0), (0, ("b", "b"), 0)}, {0}, {0}
    )
    with pytest.raises(PreconditionError, match="reflexive"):
        transitive_closure(mismatched, cap=2)
    one_way = LetterTransducer.build(
        AB, AB, {0, 1},
        {(0, ("a", "a"), 0), (0, ("b", "b"), 0), (0, ("a", "b"), 1)},
        {0}, {0, 1},
    )
    with pytest.raises(PreconditionError, match="symmetric"):
        transitive_closure(one_way, cap=2)


def test_closure_runs_one_composition_per_round(monkeypatch, ident_ab, chained_classes):
    from kernseq import automata, relations

    calls = count_calls(monkeypatch, automata, "includes")
    composed = count_calls(monkeypatch, relations, "compose")
    # a transitive input is its own closure, read off the axiom walk
    result = transitive_closure(ident_ab, 3)
    assert (result.exponent, result.converged) == (1, True)
    assert calls == [] and composed == []
    pc = prefix_closure(chained_classes)
    for cap, rounds in ((1, 1), (8, 2)):
        composed.clear()
        result = transitive_closure(pc, cap)
        assert len(composed) == result.exponent == rounds
    # consecutive iterates are compared by equality, with no inclusion
    assert calls == []
    one_way = LetterTransducer.build(
        AB, AB, {0, 1}, {(0, ("a", "a"), 0), (0, ("b", "b"), 0), (0, ("a", "b"), 1)}, {0}, {0, 1}
    )
    composed.clear()
    with pytest.raises(PreconditionError):
        transitive_closure(one_way, cap=2)
    assert composed == []


def test_closure_rounds_end_on_equality_exactly_when_on_inclusion(monkeypatch):
    """Every iterate is a trimmed minimal DFA in canonical numbering and
    contains the one before, so equal automata and inclusion of the next
    iterate in the current one agree on every round: the reference is the
    inclusion the rounds once ran."""
    from cosequential import SLOW_CLOSURE, cosequential_suite

    from kernseq import relations
    from kernseq.decision import decide_kerseq_lp

    rounds = []  # (current, next) per composition round
    real = relations.compose

    def spy(current, p):
        nxt = real(current, p)
        rounds.append((current, nxt))
        return nxt

    monkeypatch.setattr(relations, "compose", spy)
    fixtures = [
        build_last_a(),
        build_a_parity(),
        build_c_singletons(),
        build_agree_except_last(2),
        build_mod_count(3),
        build_chained_classes(),
        identity(AB),
        full_same_length(AB),
    ] + [build_chain(k) for k in (1, 2, 3)]
    rng = random.Random(7)
    cases = fixtures + default_suite(200, seed=7)
    cases += [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(200)]
    cases += [r for i, r in enumerate(cosequential_suite()) if i != SLOW_CLOSURE]
    for r in cases:
        decide_kerseq_lp(r)
    equal = [current.nfa == nxt.nfa for current, nxt in rounds]
    assert equal == [includes(nxt.nfa, current.nfa) for current, nxt in rounds]
    assert len(equal) > 100 and True in equal and False in equal


def _closure_by_rounds(p, cap):
    """``transitive_closure`` as it ran before transitivity was read off
    the axiom walk: every round composes, minimizes and compares, the
    first one too. A frozen reference; its preconditions are not checked.
    """
    current = p.with_nfa(trim(minimize(p.nfa)))
    for k in range(1, cap + 1):
        nxt = p.with_nfa(trim(minimize(reference_compose(current, p).nfa)))
        if includes(nxt.nfa, current.nfa):
            return current.nfa, k, True
        current = nxt
    return current.nfa, cap, False


def _reflexive_symmetric(rng, max_states=4):
    """A random complete pair DFA over AB, reflexive and symmetric.

    Its moves on (a, b) and (b, a) agree, so (u, v) and (v, u) reach the
    same state. The states that the pairs (u, u) reach are final, and
    each other state is final with probability 0.3, so it is often not
    transitive.
    """
    n = rng.randint(1, max_states)
    moves = {}
    for q in range(n):
        for a, b in itertools.combinations_with_replacement(AB.letters, 2):
            moves[q, a, b] = moves[q, b, a] = rng.randrange(n)
    same = {0}
    for _ in range(n):
        same |= {moves[q, a, a] for q in same for a in AB.letters}
    return LetterTransducer.build(
        AB,
        AB,
        range(n),
        {(q, (a, b), t) for (q, a, b), t in moves.items()},
        {0},
        same | {q for q in range(n) if rng.random() < 0.3},
    )


def test_closure_matches_the_loop_of_rounds():
    fixtures = [
        build_last_a(),
        build_a_parity(),
        build_c_singletons(),
        build_agree_except_last(),
        build_agree_except_last(3),
        build_chained_classes(),
        build_chain(3),
        build_mod_count(3),
        identity(AB),
        full_same_length(AB),
    ]
    cases = [(r, 3) for r in fixtures[-2:]]
    cases += [(prefix_closure(r), DEFAULT_CLOSURE_CAP) for r in fixtures]
    cases += [(prefix_closure(r), DEFAULT_CLOSURE_CAP) for r in default_suite(200, seed=7)]
    rng = random.Random(11)
    drawn = [_reflexive_symmetric(rng) for _ in range(400)]
    cases += [(p, cap) for p in drawn for cap in (1, 2, 3)]
    seen = set()
    for p, cap in cases:
        result = transitive_closure(p, cap)
        got = (result.closure.nfa, result.exponent, result.converged)
        assert got == _closure_by_rounds(p, cap)
        seen.add(got[1:])
    # the draws include transitive inputs, closures reached in later
    # rounds and closures the cap cuts short
    assert {(1, True), (2, True), (3, True), (1, False), (2, False)} <= seen
    assert sum(not validate_relation(p).is_transitive for p in drawn) >= 20


def test_the_closure_witness_check_finds_a_shortest_pair_outside_the_closure():
    """The transitivity walk names a pair of C after C outside C, as short
    as the shortest one the product composition and an inclusion find."""
    rng = random.Random(1)
    found = 0
    for _ in range(3000):
        closure = _reflexive_symmetric(rng)
        try:
            validate_closure_witness(identity(AB), closure)
            continue
        except BadClosureWitnessError as refused:
            u, w = refused.pair
        found += 1
        chained = reference_compose(closure, closure).nfa
        assert len(u) == len(inclusion_counterexample(chained, closure.nfa))
        assert chained.accepts(tuple(zip(u, w))) and not closure.nfa.accepts(tuple(zip(u, w)))
    assert found >= 300


def test_each_relation_is_determinized_once(monkeypatch):
    from kernseq import automata

    r = build_last_a()
    assert determinize(r.nfa) is determinize(r.nfa)
    built = count_calls(monkeypatch, automata, "_subset_dfa")
    r = build_last_a()
    prep = prepare(r)
    assert len(built) == 1
    assert validate_relation(r) == prep.validation
    assert pair_dfa(r).nfa is prep.det.nfa
    assert len(built) == 1
    # kept with the automaton, not in a cache keyed by its value
    twin = build_last_a()
    assert twin.nfa == r.nfa and twin.nfa is not r.nfa
    d = determinize(twin.nfa)
    assert len(built) == 2
    assert d == prep.det.nfa and d is not prep.det.nfa


def _fresh_relations():
    """The fixtures, the seeded 2-letter suite, 200 three-letter draws and
    the co-sequential draws but the slow one, each built anew."""
    from cosequential import SLOW_CLOSURE, cosequential_suite

    rng = random.Random(7)
    return [
        build_last_a(),
        build_a_parity(),
        build_c_singletons(),
        build_agree_except_last(2),
        build_mod_count(3),
        build_chain(3),
        build_chained_classes(),
        identity(AB),
        full_same_length(AB),
        *default_suite(200, seed=7),
        *(random_equivalence(rng, letters=("a", "b", "c")) for _ in range(200)),
        *(r for i, r in enumerate(cosequential_suite()) if i != SLOW_CLOSURE),
    ]


def test_the_bitset_subset_construction_equals_the_frozenset_reference():
    """``automata._subset_dfa`` gives the rows, finality and numbering of
    the subset construction on frozensets of states, on the relations of
    the suites, the stress draws that blow up, and automata at the edges."""
    from kernseq import automata
    from cosequential import SLOW_CLOSURE, cosequential_suite, stress_draws
    from reference_subsets import reference_subset_dfa

    stress = stress_draws(142)
    slow = cosequential_suite()[SLOW_CLOSURE]  # the one draw _fresh_relations leaves out
    relations = [*_fresh_relations(), slow, *(stress[i] for i in (40, 117, 141))]
    edges = [
        Nfa(AB, {0, 1}, {(0, "a", 1), (1, "b", 0)}, set(), {0}),  # no initial state
        Nfa(AB, set(), set(), set(), set()),  # no states
        Nfa(AB, {3, 7}, {(3, "a", 7), (7, "b", 3), (7, "a", 7)}, {3}, {7}),
        Nfa(AB, {3, 7}, {(3, "a", 3), (3, "a", 7), (7, "b", 3)}, {3}, {3}),  # two targets on a
    ]
    cases = [r.nfa for r in relations] + edges
    assert sum(not a.is_deterministic for a in cases) >= 100
    for i, a in enumerate(cases):
        assert automata._subset_dfa(a) == reference_subset_dfa(a), i


def test_the_rows_stages_equal_the_automaton_level_functions():
    """Each stage that ``Prepared`` reads off its rows equals the public
    function on automata that it stands for, on a relation built anew."""
    from kernseq import automata
    from kernseq.relations import Prepared, _prepared

    for i, r in enumerate(_fresh_relations()):
        prep = Prepared(r)
        d = determinize(r.nfa)
        assert prep.rows == d._rows, i
        walks = _axioms(*d._rows, coaccessible_states(d), r.input_alphabet)
        v = prep.validation
        assert [v.is_reflexive, v.is_symmetric, v.is_transitive] == [
            walk() is None for walk in walks
        ], i
        assert prep.live == coaccessible_states(d), i
        assert prep.prefix_closed == (coaccessible_states(d) <= d.finals), i
        assert prep.diagonal == diagonal_states(pair_dfa(r)), i
        # a prefix-closed relation's first iterate is its own minimal DFA;
        # that of the others is compared in the next test
        iterate = prep.first_iterate[0]
        if prep.prefix_closed:
            assert iterate.nfa == trim(minimize(r.nfa)), i
        # the rows kept on the first iterate are its automaton's subset
        # construction, and the prefix closure's are ``rows`` with the live
        # states final
        assert _prepared(iterate).rows == automata._subset_dfa(iterate.nfa), i
        rows, _finals = prep.rows
        p = prefix_closure(r)
        assert automata._subset_dfa(p.nfa) == (rows, [q in prep.live for q in range(len(rows))]), i


def test_the_first_iterate_is_the_prefix_closures_first_iterate():
    """``Prepared.first_iterate``, read off the relation's own rows, is the
    minimal DFA of its prefix closure P and whether P is transitive, as the
    public closure search finds them on P; and P passes the reflexive and
    symmetric walks that the search leaves out."""
    from kernseq.relations import Prepared

    for i, r in enumerate(_fresh_relations()):
        p = prefix_closure(r)
        iterate, transitive = Prepared(r).first_iterate
        assert iterate.nfa == trim(minimize(p.nfa)), i
        assert transitive == transitive_closure(p, 1).converged, i
        d = determinize(p.nfa)
        reflexive, symmetric, _transitive = _axioms(*d._rows, coaccessible_states(d), r.input_alphabet)
        assert reflexive() is None and symmetric() is None, i


def test_the_validation_walk_tells_whether_the_prefix_closure_is_transitive():
    """The bit that the transitivity walk on a relation's own rows keeps is
    the answer of the transitivity walk on the minimal DFA of its prefix
    closure P, on the seed-7 suites and the co-sequential suite."""
    from kernseq.automata import _live_rows, _quotient
    from kernseq.relations import Prepared

    seen = set()
    for i, r in enumerate(_fresh_relations()):
        prep = Prepared(r)
        assert prep.validation.is_equivalence, i
        rows, _finals = prep.rows
        minimal = _quotient(rows, [q in prep.live for q in range(len(rows))])
        *_, transitive = _axioms(*minimal, _live_rows(*minimal), r.input_alphabet)
        assert prep.axioms[1] == (transitive() is None), i
        seen.add(prep.axioms[1])
    assert seen == {True, False}


def test_each_relation_reads_one_pair_dfa_as_rows(monkeypatch):
    """On a relation built anew, validation, analysis and both deciders
    run one subset construction for its pair DFA, build no automaton of
    its rows and no transition table of its automaton, and walk no
    transition set of it: the walks over transition sets (``Nfa._live``
    and ``accessible_states``) see only r's own transitions and those of
    automata that are not its pair DFA."""
    from kernseq import automata

    drawn = _fresh_relations()
    cases = drawn[:59] + drawn[209:259]  # the fixtures, and 50 draws of each suite
    built = count_calls(monkeypatch, automata, "_subset_dfa")
    automata_built = count_calls(monkeypatch, automata, "_dfa")
    accessed = count_calls(monkeypatch, automata, "accessible_states")
    lived = []  # the automata whose live states are found from their transitions
    real_live = automata.Nfa.__dict__["_live"].func

    def live(a):
        lived.append(a)
        return real_live(a)

    monkeypatch.setattr(automata.Nfa, "_live", property(live))
    for r in cases:
        for calls in (built, automata_built, accessed, lived):
            calls.clear()
        validate_relation(r)
        analyze(r)
        decide_kerseq_ll(r)
        decide_kerseq_lp(r)
        assert [args for args in built if args[0] is r.nfa] == [(r.nfa,)]
        assert "_table" not in vars(r.nfa)
        rows, finals = prepare(r).rows
        assert all(args[1] is not rows for args in automata_built)
        assert "_determinized" not in vars(r.nfa)
        walked = lived + [args[0] for args in accessed]
        pair = _dfa(r.nfa.alphabet, rows, finals).transitions
        assert all(a.transitions is r.nfa.transitions or a.transitions != pair for a in walked)


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


def _beaten(base: Nfa, outputs) -> Nfa:
    """The pairs (u, v) of ``base`` such that ``base`` also relates u to
    a word of the same length that is lexicographically smaller than v.

    A reference for ``min_lex_uniformizer``, independent of its walk:
    the guessed product of a run, a smaller run and a strictly-smaller-yet
    flag. Its complement within ``base`` is the uniformizer.
    """
    out_idx = outputs.index
    outgoing = base.outgoing
    starts = [(p1, p2, 0) for p1 in sorted(base.initials) for p2 in sorted(base.initials)]

    def successors(node):
        p1, p2, mode = node
        for (a, b), q1 in outgoing.get(p1, ()):
            for (a2, b2), q2 in outgoing.get(p2, ()):
                if a2 != a:
                    continue
                if mode == 1:
                    nxt_mode = 1
                elif out_idx(b2) < out_idx(b):
                    nxt_mode = 1
                elif out_idx(b2) == out_idx(b):
                    nxt_mode = 0
                else:
                    continue  # the guess went lexicographically above; unrecoverable
                yield (a, b), (q1, q2, nxt_mode)

    nodes, edges = explore(starts, successors)
    return Nfa(
        alphabet=base.alphabet,
        states=frozenset(range(len(nodes))),
        transitions=frozenset(edges),
        initials=frozenset(range(len(starts))),
        finals=frozenset(
            n for n, (q1, q2, mode) in enumerate(nodes)
            if mode == 1 and q1 in base.finals and q2 in base.finals
        ),
    )


def test_uniformizer_matches_the_complement_construction():
    from kernseq.automata import determinize, intersect, trim

    rng = random.Random(5)
    relations = [
        random_equivalence(rng, max_states=3, letters=("a", "b") if i % 2 else ("a", "b", "c"))
        for i in range(60)
    ]
    # nondeterministic, multi-initial inputs and two with an infinite index
    relations += [build_chain(3), build_chained_classes(), build_last_a(), build_c_singletons()]
    assert any(len(r.nfa.initials) > 1 and not r.nfa.is_deterministic for r in relations)
    sizes = []
    infinite = 0
    for i, r in enumerate(relations):
        for s in (r, prepare(r).congruence):
            base = trim(s.nfa)
            beaten = _beaten(base, s.output_alphabet)
            reference = trim(intersect(base, complement(determinize(beaten))))
            graph = min_lex_uniformizer(s)
            assert language_equal(graph.nfa, reference), i
            sizes.append(len(graph.nfa.states))
            infinite += not is_finitely_valued(compose(graph, r))
    assert min(sizes) < max(sizes)
    assert infinite > 0


@pytest.mark.parametrize(
    "name",
    ["last_a", "a_parity", "c_singletons", "agree_except_last", "chained_classes",
     "ident_ab", "full_ab"],
)
def test_uniformizer_maps_each_word_to_its_least_relative(name, request):
    r = request.getfixturevalue(name)
    for s in (r, prepare(r).congruence):
        graph = enumerate_relation(min_lex_uniformizer(s), 6).pairs
        got = dict(graph)
        assert len(got) == len(graph), name  # functional on these words
        assert got == min_lex_map(enumerate_relation(s, 6), s.output_alphabet), name


def _fixed_points(f):
    """The words a uniformizer f maps to themselves, as an automaton over
    its input letters: f restricted to its letters (a, a), read as a, and
    trimmed."""
    a = f.nfa
    moves = {(p, x, q) for p, (x, y), q in a.transitions if x == y}
    return trim(Nfa(f.input_alphabet, a.states, moves, a.initials, a.finals))


def _representatives(prep):
    """``prep.representatives`` as a minimal complete DFA."""
    return minimize(_dfa(prep.relation.input_alphabet, *prep.representatives))


def test_the_representatives_are_the_uniformizers_fixed_points():
    """The diagonal walk accepts the words least in their congruence class:
    the uniformizer's letters (a, a) trimmed, and the least word of each
    class the oracle enumerates up to length 6. It walks fewer nodes."""
    from kernseq import relations

    rng = random.Random(29)
    cases = [
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
    cases += [
        random_equivalence(rng, max_states=3, letters=("a", "b") if i % 2 else ("a", "b", "c"))
        for i in range(60)
    ]
    walked = []  # nodes per walk, before its trimming
    real = relations._trim_rows

    def spy(rows, finals):
        walked.append(len(rows))
        return real(rows, finals)

    sizes = set()
    for i, r in enumerate(cases):
        prep = prepare(r)
        s = prep.congruence
        f = min_lex_uniformizer(s)
        reps = _representatives(prep)
        assert reps == minimize(_fixed_points(f)), i
        # the oracle numbers the classes in shortlex order of their words
        klass = _classes(s, 6)
        first: dict = {}
        for word in all_words(s.input_alphabet, 6):
            assert reps.accepts(word) == (first.setdefault(klass[word], word) == word), (i, word)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(relations, "_trim_rows", spy)
            walked.clear()
            min_lex_uniformizer(s)
            relations.Prepared(r).representatives
        full, diagonal = walked
        assert diagonal <= full, i
        sizes.add(full - diagonal)
    assert max(sizes) > 0


def _unpruned_uniformizer(s):
    """Reference copy of the uniformizer walk without its pruning: it
    follows every nonempty ``equal`` and leaves the dead nodes to
    ``trim``. Returns the uniformizer and the number of nodes walked."""
    base = trim(s.nfa)
    table = base._table
    letters = base.alphabet.letters
    width = len(s.output_alphabet)
    rows = [range(i, i + width) for i in range(0, len(letters), width)]

    def successors(node):
        equal, smaller = node
        for row in rows:
            below = frozenset().union(*[table[p][i] for p in smaller for i in row])
            for i in row:
                reached = frozenset().union(*[table[p][i] for p in equal])
                if reached:
                    yield letters[i], (reached, below)
                    below |= reached

    graph = explored(
        base.alphabet,
        [(frozenset(base.initials), frozenset())],
        successors,
        lambda node: bool(node[0] & base.finals) and not node[1] & base.finals,
    )
    return s.with_nfa(trim(graph)), len(graph.states)


def test_pruned_uniformizer_equals_the_unpruned_walk_trimmed(monkeypatch):
    from kernseq import relations

    rng = random.Random(15)
    drawn = [
        random_equivalence(rng, max_states=3, letters=("a", "b") if i % 2 else ("a", "b", "c"))
        for i in range(2000)
    ]
    # r after r is r again, realized by a nondeterministic product, so the
    # walk's state sets hold more than one state
    drawn[::4] = [reference_compose(r, r) for r in drawn[::4]]
    drawn += [build_chain(3), build_chained_classes(), build_last_a(), build_c_singletons()]
    assert sum(not r.nfa.is_deterministic for r in drawn) > 250
    # the shapes of the two benchmark suites: two letters, and three letters
    shapes = random.Random(7)
    suites = default_suite(200, seed=7) + [
        random_equivalence(shapes, max_states=3, letters=("a", "b", "c")) for _ in range(200)
    ]
    walked = []  # nodes per walk of the library's uniformizer, before its trimming
    real = relations._trim_rows

    def spy(rows, finals):
        walked.append(len(rows))
        return real(rows, finals)

    monkeypatch.setattr(relations, "_trim_rows", spy)
    pruned = unpruned = 0
    for i, r in enumerate(drawn + suites):
        congruence = prepare(r).congruence
        for s in (congruence, r) if i < len(drawn) else (congruence,):
            walked.clear()
            graph = min_lex_uniformizer(s)
            (size,) = walked
            reference, reference_size = _unpruned_uniformizer(s)
            assert graph == reference, i
            pruned += size
            unpruned += reference_size
    assert pruned < unpruned


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


# ---------------------------------------------------------------- module order

# each module imports only from the modules before it
_MODULE_ORDER = ("automata", "transducers", "relations", "synthesis", "decision", "cli")


def test_modules_import_at_module_level_in_one_order():
    import ast
    import pathlib

    import kernseq

    for path in sorted(pathlib.Path(kernseq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        nested = [
            node.lineno
            for function in functions
            for node in ast.walk(function)
            if isinstance(node, ast.ImportFrom) and node.level > 0
        ]
        assert nested == [], (path.name, nested)
        if path.stem in _MODULE_ORDER:
            later = _MODULE_ORDER[_MODULE_ORDER.index(path.stem) + 1 :]
            imported = {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
            assert imported.isdisjoint(later), path.name


# ``kernseq/__init__`` imports every module, so a bare package stands in for
# it: what ``import kernseq.relations`` loads is then relations' own doing
_IMPORT_RELATIONS = """
import importlib.util, sys, types

package = types.ModuleType("kernseq")
package.__path__ = list(importlib.util.find_spec("kernseq").submodule_search_locations)
sys.modules["kernseq"] = package
import kernseq.relations

print(" ".join(sorted(name for name in sys.modules if name.startswith("kernseq."))))
"""


def test_relations_loads_neither_synthesis_nor_decision():
    import os
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_RELATIONS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "kernseq.relations" in loaded
    assert "kernseq.synthesis" not in loaded and "kernseq.decision" not in loaded
