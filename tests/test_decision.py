import contextlib
import random
import sys

import pytest

from kernseq.automata import Alphabet, Nfa, language_equal, minimize, trim
from kernseq.decision import (
    CLOSURE_CAP_EXHAUSTED,
    DEFAULT_CLOSURE_CAP,
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
    DimensionCapError,
    NotEquivalenceError,
    NotFinerError,
    PreconditionError,
)
from kernseq.fileformat import render
from kernseq.machines import SequentialTransducer, SubsequentialTransducer
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
    prefix_closure,
    prepare,
    syntactic_congruence,
    transitive_closure,
    validate_relation,
)
from kernseq.synthesis import (
    _mealy_moves,
    kernel_transducer,
    synthesize_mealy,
    synthesize_subsequential,
)
from kernseq.transducers import (
    LetterTransducer,
    diagonal_states,
    full_same_length,
    identity,
    pair_dfa,
)

from conftest import (
    AB,
    build_a_parity,
    build_agree_except_last,
    build_b_c_at_zero,
    build_c_singletons,
    build_chain,
    build_chained_classes,
    build_last_a,
    build_mod_count,
    count_calls,
    validation_walks,
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


def _random_trimmed_transducers(count: int):
    """``count`` random trimmed transducers over AB of 1 to 6 states, drawn
    from ``random.Random(2024)``, skipping the draws that trim to nothing."""
    rng = random.Random(2024)
    tried = 0
    while tried < count:
        n = rng.randint(1, 6)
        transitions = {
            (rng.randrange(n), (rng.choice("ab"), rng.choice("ab")), rng.randrange(n))
            for _ in range(rng.randint(n, 3 * n))
        }
        finals = rng.sample(range(n), rng.randint(1, n))
        nfa = trim(LetterTransducer.build(AB, AB, range(n), transitions, {0}, finals).nfa)
        if nfa.states:
            tried += 1
            yield nfa


def test_valuedness_matches_per_pair_searches_on_random_transducers():
    seen = {"loops": set(), "transfer": set(), "transfer only": set()}
    for nfa in _random_trimmed_transducers(2000):
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


def _reference_explore(starts, expand, bits: dict) -> tuple[dict, list[int], list[int]]:
    """Strongly connected components of the graph that ``expand(node)``
    spans from ``starts``, by an iterative Tarjan numbering nodes as found.

    Returns the numbering, each number's component and, per component,
    the union of ``bits`` (node -> int) over the nodes it reaches. A node
    collects the unions of the completed components its edges meet and
    hands what it holds to its parent in the search tree, so a component's
    root holds the whole union when the component completes. The
    library's search once carried its reachability this way; the
    references below keep it, independent of ``relations._labels``.
    """
    ids: dict = {}
    low: list[int] = []  # a node's number is its Tarjan index
    comp: list[int] = []
    held: list[int] = []
    reach: list[int] = []
    stack: list[int] = []
    work: list = []

    def enter(node):
        ids[node] = v = len(low)
        low.append(v)
        comp.append(-1)
        held.append(bits.get(node, 0))
        stack.append(v)
        work.append((v, iter(expand(node))))

    for root in starts:
        if root not in ids:
            enter(root)
        while work:
            v, edges = work[-1]
            for nxt in edges:
                w = ids.get(nxt)
                if w is None:
                    enter(nxt)
                    break
                if comp[w] >= 0:
                    held[v] |= reach[comp[w]]
                elif w < low[v]:  # w is still on the stack, in v's component
                    low[v] = w
            else:
                work.pop()
                if low[v] == v:  # v is the root of its component
                    while comp[v] < 0:
                        comp[stack.pop()] = len(reach)
                    reach.append(held[v])
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                    held[parent] |= held[v]
    return ids, comp, reach


def _reference_has_transfer_divergence(step, linked):
    """The flagged triple search, as it ran on the trimmed input."""
    n = len(step)

    def expand(node):
        x, y, z, flag = node
        return [
            (x2, y2, z2, flag or b1 != b2 or b2 != b3)
            for a, xs in step[x].items()
            for b1, x2 in xs
            for b2, y2 in step[y].get(a, ())
            for b3, z2 in step[z].get(a, ())
        ]

    starts = [(p, p, q, False) for p, q in linked]
    targets = {(p, q, q, True): 1 << (p * n + q) for p, q in linked}
    ids, comp, reach = _reference_explore(starts, expand, targets)
    return any(reach[comp[ids[(p, p, q, False)]]] >> (p * n + q) & 1 for p, q in linked)


def _reference_is_finitely_valued(t):
    """The search on the trimmed input, minimized only above 40 states."""
    nfa = trim(t.nfa)
    if len(nfa.states) > 40:
        nfa = trim(minimize(nfa))
    n = len(nfa.states)  # trim numbers the states 0..n-1
    step = [{} for _ in range(n)]  # state -> input -> [(output, next)]
    for p, (a, b), q in nfa.transitions:
        step[p].setdefault(a, []).append((b, q))
    diverging = []  # square edges whose two outputs differ

    def expand(pair):
        out = []
        for a, xs in step[pair[0]].items():
            for b2, q2 in step[pair[1]].get(a, ()):
                for b1, q1 in xs:
                    out.append((q1, q2))
                    if b1 != b2:
                        diverging.append((pair, (q1, q2)))
        return out

    pairs = {(p, q): 1 << (p * n + q) for p in range(n) for q in range(n)}
    ids, comp, reach = _reference_explore([(p, p) for p in range(n)], expand, pairs)
    diagonal = {comp[ids[(p, p)]] for p in range(n)}
    if any(comp[ids[u]] == comp[ids[v]] and comp[ids[v]] in diagonal for u, v in diverging):
        return False
    linked = [
        (p, q) for p in range(n) for q in range(n)
        if q != p and reach[comp[ids[(p, p)]]] >> (p * n + q) & 1
    ]
    return not _reference_has_transfer_divergence(step, linked)


def _index_inputs(relations, closure_of=lambda r: transitive_closure(prefix_closure(r), 16)):
    """Per relation r, ``compose(uniformizer, target)`` for each index check
    on r: against r, and against ``closure_of(r)`` when that is a
    converged ``ClosureResult``."""
    for r in relations:
        uniformizer = min_lex_uniformizer(prepare(r).congruence)
        closure = closure_of(r)
        targets = [r, closure.closure] if closure is not None and closure.converged else [r]
        for target in targets:
            yield r, compose(uniformizer, target)


def _seeded_index_relations():
    rng = random.Random(7)
    relations = [build_last_a(), build_c_singletons(), build_chained_classes()]
    relations += default_suite(200, seed=7)
    relations += [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(100)]
    return relations


def test_valuedness_matches_the_flagged_search_on_every_index_input():
    answers = set()
    for r, t in _index_inputs(_seeded_index_relations()):
        answer = is_finitely_valued(t)
        assert answer is _reference_is_finitely_valued(t), render(r)
        answers.add(answer)
    assert answers == {True, False}


def _whole_product_finitely_valued(rows: list, width: int) -> bool:
    """``relations._finitely_valued`` with the triple pass over the whole
    triple product: one search from every linked pair at once, entering
    every triple, with one label bit per linked pair. The search ran so
    before it was kept inside the square's components."""
    from kernseq.relations import _explore, _labels

    n = len(rows)
    moves = [
        [[(z, t) for z, t in enumerate(row[x : x + width]) if t >= 0] for x in range(0, len(row), width)]
        for row in rows
    ]
    diverging = []

    def square(node):
        p, q = divmod(node, n)
        out = []
        for xs, ys in zip(moves[p], moves[q]):
            for z1, p2 in xs:
                for z2, q2 in ys:
                    out.append(p2 * n + q2)
                    if z1 != z2:
                        diverging.append((node, p2 * n + q2))
        return out

    diagonal = range(0, n * n, n + 1)
    ids, comp, succ = _explore(diagonal, square)
    looped = {comp[ids[d]] for d in diagonal}
    for u, v in diverging:
        c = comp[ids[u]]
        if c == comp[ids[v]] and c in looped:
            return False
    label = _labels(comp, succ, [(ids[d], 1 << p) for p, d in enumerate(diagonal)])
    linked = [
        (p, q)
        for node, v in ids.items()
        for p, q in [divmod(node, n)]
        if p != q and label[comp[v]] >> p & 1
    ]

    def triple(node):
        x, y, z = node
        return [
            (x2, y2, z2)
            for xs, ys, zs in zip(moves[x], moves[y], moves[z])
            for _, x2 in xs
            for _, y2 in ys
            for _, z2 in zs
        ]

    starts = [(p, p, q) for p, q in linked]
    ids, comp, succ = _explore(starts, triple)
    label = _labels(comp, succ, [(ids[node], 1 << j) for j, node in enumerate(starts)])
    ends = [(p, q, q) for p, q in linked]
    return not any(
        node in ids and label[comp[ids[node]]] >> j & 1 for j, node in enumerate(ends)
    )


def test_the_triple_pass_inside_square_components_matches_the_whole_product():
    from cosequential import INFINITE_BEFORE_ROUNDS, SLOW_CLOSURE, cosequential_suite
    from kernseq.automata import _dense, _trim_rows
    from kernseq.relations import _finitely_valued

    def valued(t, what):
        rows, _finals = _trim_rows(*_dense(minimize(t.nfa)))
        answer = _finitely_valued(rows, len(t.output_alphabet))
        assert answer is _whole_product_finitely_valued(rows, len(t.output_alphabet)), what
        return answer

    randoms = _random_trimmed_transducers(3000)
    answers = {valued(LetterTransducer(AB, AB, nfa), sorted(nfa.transitions)) for nfa in randoms}
    assert answers == {True, False}
    answers = {valued(t, render(r)) for r, t in _index_inputs(_seeded_index_relations())}
    assert answers == {True, False}
    # the co-sequential draws reach INFINITE where the seeded suites do not;
    # their closures are the ones decide lp searches, since the closures of
    # draws of infinite index against r can grow past a gigabyte
    slow = {SLOW_CLOSURE, *INFINITE_BEFORE_ROUNDS}
    draws = [r for i, r in enumerate(cosequential_suite()) if i not in slow]
    inputs = _index_inputs(draws, lambda r: decide_kerseq_lp(r).closure)
    answers = {valued(t, render(r)) for r, t in inputs}
    assert answers == {True, False}


def test_the_index_product_answers_as_the_composition():
    """``_finite_index`` reads a transitive target's pair DFA times the
    congruence's least words; ``index_is_finite`` composes the uniformizer
    with the target. Both answer alike, and the product's trimmed minimal
    DFA is the composition's automaton."""
    from cosequential import SLOW_CLOSURE, cosequential_suite
    from kernseq.automata import _dfa
    from kernseq.relations import _finite_index, _index_rows
    from kernseq.transducers import pair_alphabet

    rng = random.Random(7)
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
    relations = fixtures + default_suite(200, seed=7)
    relations += [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(200)]
    cases = [(r, prepare(r).closure(DEFAULT_CLOSURE_CAP)[0]) for r in relations]
    # the closures decide lp searches: the draws it refuses before any
    # round, those of INFINITE_BEFORE_ROUNDS among them, have none
    draws = cosequential_suite()
    cases += [(r, decide_kerseq_lp(r).closure) for i, r in enumerate(draws) if i != SLOW_CLOSURE]
    checks = [
        (prepare(r), target)
        for r, closure in cases
        for target in ([r, closure.closure] if closure and closure.converged else [r])
    ]
    checks.append((prepare(identity(AB)), full_same_length(AB)))  # a supplied closure
    answers = []
    for prep, target in checks:
        finite = _finite_index(prep, target)
        assert finite is index_is_finite(prep.congruence, target), render(prep.relation)
        composed = compose(min_lex_uniformizer(prep.congruence), target)
        alphabet = pair_alphabet(target.input_alphabet, target.output_alphabet)
        assert composed.nfa == _dfa(alphabet, *_index_rows(prep, target)), render(prep.relation)
        answers.append(finite)
    assert len(answers) > 1100 and answers.count(False) > 20


@pytest.mark.parametrize(
    "rows, finals, slender",
    [
        pytest.param([[0, -1]], [True], True, id="a*"),
        pytest.param([[1, -1], [-1, 0]], [True, False], True, id="(ab)*"),
        pytest.param([[1, 2], [1, -1], [-1, 2]], [True] * 3, True, id="a*|b*"),
        pytest.param([[1, 2], [-1, 2], [-1, -1]], [False, False, True], True, id="{ab, b}"),
        pytest.param([[0, 1], [-1, 1]], [True, True], False, id="a*b*"),
        pytest.param([[0, 0]], [True], False, id="(a|b)*"),
        pytest.param([[1, -1], [1, 1]], [False, True], False, id="a(a|b)*"),
    ],
)
def test_slender_reads_the_growth_of_the_representatives(rows, finals, slender):
    """``Prepared.slender`` on representatives given as trim dense rows
    over (a, b), and their words per length up to 12: at most one per
    state when slender, more otherwise."""
    from kernseq.relations import Prepared

    prep = Prepared(identity(AB))
    vars(prep)["representatives"] = (rows, finals)
    assert prep.slender is slender
    counts, ends = [], {0: 1}  # per state, the words of this length ending there
    for _ in range(13):
        counts.append(sum(k for q, k in ends.items() if finals[q]))
        after = {}
        for q, k in ends.items():
            for t in rows[q]:
                if t >= 0:
                    after[t] = after.get(t, 0) + k
        ends = after
    assert (max(counts) <= len(rows)) is slender, counts


def test_slender_is_the_search_against_all_equal_length_pairs():
    """A slender congruence has finite index against every target, and
    against the largest one, all equal-length pairs, exactly then."""
    from cosequential import SLOW_CLOSURE, cosequential_suite
    from kernseq.relations import _finitely_valued, _index_rows

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
    relations = fixtures + default_suite(200, seed=7)
    rng = random.Random(7)
    relations += [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(200)]
    rng = random.Random(3)
    relations += [random_equivalence(rng, max_states=5) for _ in range(100)]
    relations += [r for i, r in enumerate(cosequential_suite()) if i != SLOW_CLOSURE]
    answers = []
    for r in relations:
        prep = prepare(r)
        full = full_same_length(r.input_alphabet)
        searched = _finitely_valued(_index_rows(prep, full)[0], len(r.input_alphabet))
        assert prep.slender is searched, render(r)
        answers.append(searched)
    assert answers.count(True) > 500 and answers.count(False) > 100


def test_the_deciders_index_checks_compose_nothing(monkeypatch):
    """``relations._composed`` runs in the closure rounds, through
    ``compose``, and in the public ``index_is_finite``, never in the index
    check of a decider, a report or a synthesizer."""
    from kernseq import relations

    composed = count_calls(monkeypatch, relations, "_composed")
    rounds = count_calls(monkeypatch, relations, "compose")
    checked = count_calls(monkeypatch, relations, "_finite_index")
    cases = [
        build_last_a(),
        build_a_parity(),
        build_c_singletons(),
        build_agree_except_last(2),
        build_chain(3),
        build_chained_classes(),
    ] + default_suite(40, seed=7)
    for r in cases:
        searched = len(rounds)
        analyze(r)
        decide_kerseq_ll(r)
        decide_kerseq_lp(r)
        with contextlib.suppress(PreconditionError):
            synthesize_mealy(r)
        # each round composes with the prefix closure of the searched relation
        assert all(p == prefix_closure(r) for _current, p in rounds[searched:])
    r = identity(AB)
    analyze(r, pplus=full_same_length(AB))
    decide_kerseq_lp(r, closure=full_same_length(AB))
    assert len(checked) > 10 and len(rounds) > 2
    assert len(composed) == len(rounds)
    composed.clear()
    s, _ = syntactic_congruence(build_c_singletons())
    assert not index_is_finite(s, build_c_singletons())
    assert len(composed) == 1


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


def test_state_cap_admits_exactly_the_witness_states(monkeypatch):
    import kernseq.synthesis

    # the construction expands 15 matrix states; the witness is their
    # Moore quotient, 8 states
    relation = build_agree_except_last(3)
    monkeypatch.setattr(kernseq.synthesis, "STATE_CAP", 15)
    assert len(_mealy_moves(prepare(relation)).machine().states) == 15
    verdict = decide_kerseq_ll(relation)
    assert verdict.outcome is Outcome.YES
    assert len(verdict.witness.states) == 8
    monkeypatch.setattr(kernseq.synthesis, "STATE_CAP", 14)
    with pytest.raises(DimensionCapError):
        decide_kerseq_ll(relation)


def test_entry_cap_admits_exactly_the_witness_matrices(monkeypatch):
    import kernseq.synthesis

    # the agree-except-last-3 witness stores matrices of dimension 1, 2, 4, 8
    relation = build_agree_except_last(3)
    monkeypatch.setattr(kernseq.synthesis, "ENTRY_CAP", 1 + 4 + 16 + 64)
    assert decide_kerseq_ll(relation).outcome is Outcome.YES
    monkeypatch.setattr(kernseq.synthesis, "ENTRY_CAP", 84)
    with pytest.raises(DimensionCapError):
        decide_kerseq_ll(relation)


@pytest.mark.parametrize("cap", ["STATE_CAP", "ENTRY_CAP"])
def test_caps_admit_exactly_the_walked_states(monkeypatch, cap):
    import kernseq.synthesis

    # the relation is its own congruence, so both deciders build their
    # witness by one walk, over 5 states that each store a 1-by-1 matrix
    relation = build_b_c_at_zero(5)
    walks = count_calls(monkeypatch, kernseq.synthesis, "_walk")
    worklists = count_calls(monkeypatch, kernseq.synthesis, "_worklist")
    monkeypatch.setattr(kernseq.synthesis, cap, 5)
    for decide in (decide_kerseq_ll, decide_kerseq_lp):
        verdict = decide(relation)
        assert verdict.outcome is Outcome.YES
        assert len(verdict.witness.states) == 5
    assert len(walks) == 2 and not worklists
    monkeypatch.setattr(kernseq.synthesis, cap, 4)
    for decide in (decide_kerseq_ll, decide_kerseq_lp):
        with pytest.raises(DimensionCapError):
            decide(relation)


def test_each_distinct_matrix_is_checked_once(monkeypatch):
    from kernseq import synthesis

    calls = count_calls(monkeypatch, synthesis, "_check_matrix")
    verdict = decide_kerseq_ll(build_agree_except_last(3))
    assert len(verdict.witness.states) == 8  # 15 matrix states, minimized
    assert [len(matrix) for matrix, *_ in calls] == [1, 2, 4, 8]


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


def test_each_relation_object_is_validated_and_prepared_once(monkeypatch):
    from kernseq import automata, relations, synthesis

    walks = validation_walks(monkeypatch)
    builds = count_calls(monkeypatch, relations, "_least_walk")
    compositions = count_calls(monkeypatch, relations, "_composed")
    subsets = count_calls(monkeypatch, automata, "_subset_dfa")
    searches = count_calls(monkeypatch, relations, "_rounds")
    validated = count_calls(monkeypatch, synthesis, "validate_closure_witness")
    checked = count_calls(monkeypatch, relations, "_finite_index")

    def walks_of(r):
        # the closure search walks its own minimal automaton, not r's
        return [args for args in walks if args[0] is prepare(r).rows[0]]

    def rebuilt(r):
        return LetterTransducer.build(
            r.input_alphabet, r.output_alphabet, r.nfa.states, r.nfa.transitions,
            r.nfa.initials, r.nfa.finals,
        )

    def keeps_only_its_stages(r):
        # beyond its fields, a relation object holds its Prepared value alone
        kept = {k: v for k, v in vars(r).items() if k not in ("input_alphabet", "output_alphabet", "nfa")}
        assert list(kept) == ["_prepared"] and kept["_prepared"].relation is r

    cases = [
        (build_agree_except_last(2), None, DEFAULT_CLOSURE_CAP),  # YES for ll and lp
        (build_a_parity(), None, DEFAULT_CLOSURE_CAP),  # not prefix-closed
        (build_last_a(), None, DEFAULT_CLOSURE_CAP),  # infinite index against the closure
        (build_c_singletons(), None, DEFAULT_CLOSURE_CAP),  # infinite index against r
        (build_chain(3), None, 2),  # the closure does not converge
        (identity(AB), identity(AB), DEFAULT_CLOSURE_CAP),  # a supplied closure
    ]
    for r, closure, cap in cases:
        walks.clear()
        builds.clear()
        searches.clear()
        assert validate_relation(r).is_equivalence
        assert prepare(r) is prepare(r)
        is_prefix_closed(r)
        syntactic_congruence(r)
        analyze(r, pplus=closure, cap=cap)
        decide_kerseq_ll(r)
        decide_kerseq_lp(r, closure=closure, cap=cap)
        for synthesize in (synthesize_mealy, lambda r: synthesize_subsequential(r, r)):
            with contextlib.suppress(PreconditionError, BadClosureWitnessError):
                synthesize(r)
        assert len(walks_of(r)) == 1
        assert len(builds) == 1
        prefixes = [p for _current, p, _cap in searches]
        # analyze, then decide lp twice: the cap searched above, and a
        # larger one when that search converged, is read back with no
        # composition, axiom walk or subset construction, and a larger cap
        # is searched once when it did not (a prefix-closed relation never
        # is); a supplied closure is validated and checked on every call
        converged = closure is None and prepare(r).closure(cap)[0].converged
        for again_cap, kept in ((cap, True), (cap + 1, converged)):
            for calls in (walks, compositions, subsets, searches, validated, checked):
                calls.clear()
            analyze(r, pplus=closure, cap=again_cap)
            decide_kerseq_lp(r, closure=closure, cap=again_cap)
            decide_kerseq_lp(r, closure=closure, cap=again_cap)
            if closure is not None:
                assert len(validated) == 3 and searches == []
                assert [args[1] for args in checked] == [closure] * 3
            elif kept:
                assert walks == compositions == subsets == searches == []
            else:
                assert not prepare(r).prefix_closed
                assert len(searches) == 1
        keeps_only_its_stages(r)
        # the prefix closure is built for the composition rounds alone, and
        # nothing is kept on it
        assert (prefixes != []) == (not prepare(r).first_iterate[1])
        for p in prefixes:
            assert p == prefix_closure(r) and list(vars(p)) == ["input_alphabet", "output_alphabet", "nfa"]
    # a prefix-closed relation's closure is read off its kept pair DFA:
    # no subset construction, no axiom walk, no composition
    prep = prepare(build_agree_except_last(3))
    assert prep.prefix_closed and prep.finite_index
    for calls in (walks, compositions, subsets, searches):
        calls.clear()
    result, finite = prep.closure(DEFAULT_CLOSURE_CAP)
    assert (result.exponent, result.converged, finite) == (1, True, True)
    assert walks == compositions == subsets == searches == []
    # an equal relation built anew is a new object, prepared and searched anew
    r = cases[1][0]  # not prefix-closed
    again = rebuilt(r)
    searches.clear()
    iterates = count_calls(monkeypatch, relations, "_trimmed")
    assert analyze(again).closure == analyze(r).closure
    assert len(iterates) == 1 and searches == []  # its prefix closure is transitive
    assert prepare(again).closure(DEFAULT_CLOSURE_CAP)[0] is not prepare(r).closure(
        DEFAULT_CLOSURE_CAP
    )[0]
    r = cases[0][0]
    again = rebuilt(r)
    assert again == r and again is not r
    walks.clear()
    builds.clear()
    assert decide_kerseq_ll(again).outcome is Outcome.YES
    assert len(walks_of(again)) == 1 and walks_of(r) == []
    assert len(builds) == 1
    # validate, analyze and decide ll on a fresh prefix-closed relation
    # check its valuedness once: both indices are the one kept index
    valued = count_calls(monkeypatch, relations, "_finitely_valued")
    r = build_agree_except_last(3)
    validate_relation(r), analyze(r), decide_kerseq_ll(r)
    assert len(valued) == 1
    # a non-equivalence keeps its validation, and every later use refuses it
    bare = LetterTransducer.build(AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1})
    walks.clear()
    builds.clear()
    assert not analyze(bare).validation.is_equivalence
    for entry in [prepare, prepare, decide_kerseq_ll, decide_kerseq_lp, is_prefix_closed]:
        with pytest.raises(NotEquivalenceError) as refused:
            entry(bare)
        assert refused.value.validation is validate_relation(bare)
    assert len(walks) == 1
    assert builds == []
    keeps_only_its_stages(bare)


def test_only_automata_built_from_input_are_checked(monkeypatch):
    r = build_chain(3)
    checked = []
    check = Nfa.__post_init__

    def counting(self):
        check(self)
        checked.append(self)

    monkeypatch.setattr(Nfa, "__post_init__", counting)
    assert decide_kerseq_lp(r).outcome is Outcome.YES
    assert decide_kerseq_ll(r).outcome is Outcome.NO
    assert analyze(r).index_wrt_closure == FINITE
    # the input was checked when it was built; every automaton derived
    # from it, validation and the closure's preconditions included, is not
    assert checked == []


def test_no_machine_the_deciders_build_is_checked(monkeypatch):
    checked = []
    for cls in (SequentialTransducer, SubsequentialTransducer):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, check=check: checked.append(self) or check(self)
        )
    for r in (build_agree_except_last(2), build_chain(2)):
        ll, lp = decide_kerseq_ll(r), decide_kerseq_lp(r)
        assert Outcome.YES in (ll.outcome, lp.outcome)
        assert analyze(r).validation.is_equivalence
    # every machine is assembled from a witness table, right by construction
    assert checked == []
    SequentialTransducer(AB, AB, {0}, {}, 0, {0})  # the spy sees a checked construction
    assert len(checked) == 1


def test_subset_refinement_and_trim_read_the_table_not_the_per_letter_lookups(monkeypatch):
    from kernseq import automata

    r = build_chain(3)
    hot = {automata.determinize.__code__, automata.minimize.__code__, automata.trim.__code__}
    lookups = []  # (method, the hot construction it was called under)

    def counting(name):
        original = getattr(Nfa, name)

        def wrapped(self, *args):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in hot:
                    lookups.append((name, frame.f_code.co_name))
                frame = frame.f_back
            return original(self, *args)

        monkeypatch.setattr(Nfa, name, wrapped)

    counting("successors")
    counting("step")
    assert decide_kerseq_lp(r).outcome is Outcome.YES
    assert decide_kerseq_ll(r).outcome is Outcome.NO
    assert analyze(r).index_wrt_closure == FINITE
    assert lookups == []

    def probe():  # a lookup under a watched construction is seen
        return r.nfa.successors(min(r.nfa.initials), r.nfa.alphabet.letters[0])

    hot.add(probe.__code__)
    probe()
    assert lookups == [("successors", "probe")]


def test_diagonal_states_run_no_inclusion(monkeypatch):
    from kernseq import automata

    calls = count_calls(monkeypatch, automata, "includes")
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


# decide lp checks r first unless the closure needs no composition round.
# The co-sequential draws of REFUSED_BEFORE_ROUNDS must be refused so; the
# child raises at the first round.
_INDEX_BEFORE_ROUNDS = """
import resource, sys, time
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from kernseq import relations
from kernseq.decision import decide_kerseq_lp
from cosequential import REFUSED_BEFORE_ROUNDS, cosequential_suite


def compose(*args):
    raise AssertionError("a composition round runs")


relations.compose = compose
draws = cosequential_suite(max(REFUSED_BEFORE_ROUNDS) + 1)
for i in REFUSED_BEFORE_ROUNDS:
    start = time.perf_counter()
    v = decide_kerseq_lp(draws[i])
    took = time.perf_counter() - start
    print(i, v.outcome.value, v.reason, v.closure is None, took < 5)
"""


def test_decide_lp_checks_the_index_against_r_before_any_composition_round():
    pytest.importorskip("resource")
    import os
    import pathlib
    import subprocess

    import kernseq
    from cosequential import REFUSED_BEFORE_ROUNDS

    paths = [pathlib.Path(kernseq.__file__).parents[1], pathlib.Path(__file__).parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run(
        [sys.executable, "-c", _INDEX_BEFORE_ROUNDS, str(512 << 20)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert [line.split() for line in done.stdout.splitlines()] == [
        [str(i), "NO", INFINITE_INDEX, "True", "True"] for i in REFUSED_BEFORE_ROUNDS
    ]


def test_analyze_refuses_the_same_draws_before_any_composition_round(monkeypatch):
    from kernseq import relations

    from cosequential import REFUSED_BEFORE_ROUNDS, cosequential_suite

    def compose(*args):
        raise AssertionError("a composition round runs")

    monkeypatch.setattr(relations, "compose", compose)
    draws = cosequential_suite(max(REFUSED_BEFORE_ROUNDS) + 1)
    for i in REFUSED_BEFORE_ROUNDS:
        report = analyze(draws[i])
        assert (report.index_wrt_relation, report.index_wrt_closure) == (INFINITE, INFINITE), i
        assert report.closure is None, i
        verdict = decide_kerseq_lp(draws[i])
        assert (verdict.outcome, verdict.reason, verdict.closure) == (Outcome.NO, INFINITE_INDEX, None)


def test_decide_lp_checks_only_the_index_of_a_supplied_closure(monkeypatch):
    from kernseq import decision, relations

    closure = prepare(build_agree_except_last(2)).closure(DEFAULT_CLOSURE_CAP)[0].closure
    r = build_agree_except_last(2)
    assert not prepare(r).own_congruence  # so r's own index would be a call of its own
    checked = count_calls(monkeypatch, relations, "_finite_index")
    assert decision._finite_index is relations._finite_index  # both bindings counted
    assert decide_kerseq_lp(r, closure=closure).outcome is Outcome.YES
    assert len(checked) == 1 and checked[0][1] is closure


def _relation_first_lp(r, cap=DEFAULT_CLOSURE_CAP):
    """``decide_kerseq_lp`` with no supplied closure, checking the index
    against r before anything else on every relation: the order kept when
    the closure needs composition rounds."""
    from kernseq.decision import Verdict, _body
    from kernseq.relations import _finite_index
    from kernseq.synthesis import _certify, _eliminated, _minimal, _subsequential_moves

    prep = prepare(r)
    if not _finite_index(prep, r):
        return Verdict(Outcome.NO, reason=INFINITE_INDEX)
    closure_result, finite = prep.closure(cap)
    if not closure_result.converged:
        return Verdict(Outcome.UNKNOWN, reason=CLOSURE_CAP_EXHAUSTED, closure=closure_result)
    if not finite:
        return Verdict(Outcome.NO, reason=INFINITE_INDEX, closure=closure_result)
    sub = _minimal(_subsequential_moves(prep, closure_result.closure))
    witness = _eliminated(sub)
    one_class = len(set(sub.tags)) == 1
    if not one_class:
        witness = _minimal(witness)
    _certify(sub, prep, "subsequential witness")
    if not one_class or _body(witness) != _body(sub):
        _certify(witness, prep, "witness after final-output elimination")
    return Verdict(
        Outcome.YES, witness=witness.machine(), subsequential=sub.machine(), closure=closure_result
    )


def test_decide_lp_answers_as_the_relation_first_order():
    from cosequential import INFINITE_BEFORE_ROUNDS, SLOW_CLOSURE, cosequential_suite
    from test_verdicts import _machine, _relations

    def rebuilt(r):
        return LetterTransducer.build(
            r.input_alphabet, r.output_alphabet, r.nfa.states, r.nfa.transitions,
            r.nfa.initials, r.nfa.finals,
        )

    def summary(v):
        closure = v.closure and (v.closure.exponent, v.closure.converged)
        return v.outcome, v.reason, closure, _machine(v.witness), _machine(v.subsequential)

    relations = [r for name, r in _relations() if validate_relation(r).is_equivalence]
    # the draws whose closure searches take seconds or gigabytes are left out
    slow = {SLOW_CLOSURE, *INFINITE_BEFORE_ROUNDS}
    relations += [r for i, r in enumerate(cosequential_suite()) if i not in slow]
    reasons = set()
    for r in relations:
        verdict = decide_kerseq_lp(r)
        assert summary(verdict) == summary(_relation_first_lp(rebuilt(r))), render(r)
        reasons.add((verdict.outcome, verdict.reason, verdict.closure is None))
    # both kinds of NO, with and without the closure, and both other outcomes
    assert reasons == {
        (Outcome.YES, None, False),
        (Outcome.NO, INFINITE_INDEX, True),
        (Outcome.NO, INFINITE_INDEX, False),
        (Outcome.UNKNOWN, CLOSURE_CAP_EXHAUSTED, False),
    }


def test_decide_lp_checks_one_index_when_the_prefix_closure_is_transitive(monkeypatch):
    from kernseq import relations

    checked = count_calls(monkeypatch, relations, "_finite_index")
    # a's parity: its prefix closure is the full same-length relation
    r = build_a_parity()
    assert not prepare(r).prefix_closed and prepare(r).first_iterate[1]
    assert decide_kerseq_lp(r).outcome is Outcome.YES
    assert [args[1] for args in checked] == [prepare(r).closure(DEFAULT_CLOSURE_CAP)[0].closure]
    # chained classes need a composition round: r's index comes first
    checked.clear()
    r = build_chained_classes()
    assert not prepare(r).first_iterate[1]
    assert decide_kerseq_lp(r).outcome is Outcome.YES
    assert [args[1] for args in checked][0] is r and len(checked) == 2


def test_the_prefix_closure_is_built_only_for_a_composition_round(monkeypatch):
    from kernseq import relations

    built = count_calls(monkeypatch, relations, "prefix_closure")
    # the prefix closure is transitive: the first iterate is the closure
    for r in [
        build_a_parity(),
        build_mod_count(2),
        build_mod_count(3),
        build_last_a(),
        build_agree_except_last(1),
        build_agree_except_last(2),
        build_chain(1),
    ]:
        analyze(r)
        decide_kerseq_lp(r)
        assert prepare(r).first_iterate[1] and built == []
    # a composition round runs: one prefix closure per search
    for r in [build_chain(2), build_chain(3), build_chained_classes()]:
        built.clear()
        analyze(r)
        decide_kerseq_lp(r)
        assert [args[0] for args in built] == [r]
    r = build_chain(3)
    built.clear()
    analyze(r, cap=2)
    assert decide_kerseq_lp(r, cap=2).outcome is Outcome.UNKNOWN
    decide_kerseq_lp(r)
    assert [args[0] for args in built] == [r, r]


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


@pytest.mark.xfail(
    strict=True,
    reason="D2: a supplied closure is not checked for minimality, and a larger one "
    "can only raise the index",
)
def test_decide_lp_stays_yes_under_a_closure_larger_than_the_true_one(ident_ab, full_ab):
    assert decide_kerseq_lp(ident_ab).outcome is Outcome.YES
    assert decide_kerseq_lp(ident_ab, closure=full_ab).outcome is Outcome.YES


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


def test_decide_lp_refuses_a_witness_with_the_wrong_kernel(
    monkeypatch, a_parity, agree_except_last
):
    import kernseq.decision
    from kernseq.errors import InternalInvariantError
    from kernseq.machines import SequentialTransducer
    from kernseq.synthesis import _Moves

    constant = SequentialTransducer(
        input_alphabet=AB,
        output_alphabet=Alphabet(("x",)),
        states={0},
        transitions={(0, "a"): (("x",), 0), (0, "b"): (("x",), 0)},
        initial=0,
        finals={0},
    )
    eliminated = []
    monkeypatch.setattr(
        kernseq.decision, "_eliminated", lambda sub: eliminated.append(sub) or _Moves.of(constant)
    )
    for r, classes in [(a_parity, 2), (agree_except_last, 1)]:
        with pytest.raises(InternalInvariantError, match="after final-output elimination"):
            decide_kerseq_lp(r)
        assert len(set(eliminated.pop().tags)) == classes


def test_decide_ll_refuses_a_witness_with_the_wrong_kernel(monkeypatch, agree_except_last):
    import kernseq.decision
    from kernseq.errors import InternalInvariantError

    build = kernseq.decision._mealy_moves

    def corrupted(prep):
        table = build(prep)
        # the initial state outputs a different letter on each input letter,
        # so the words "a" and "b", which agree but in their last letter, part
        table.codes[0] = list(range(len(table.codes[0])))
        return table

    assert decide_kerseq_ll(agree_except_last).outcome is Outcome.YES
    monkeypatch.setattr(kernseq.decision, "_mealy_moves", corrupted)
    with pytest.raises(InternalInvariantError, match="synthesized machine kernel differs"):
        decide_kerseq_ll(agree_except_last)


def test_decide_lp_walks_once_for_a_witness_equal_to_the_body(
    monkeypatch, a_parity, agree_except_last
):
    import kernseq.synthesis

    walks = count_calls(monkeypatch, kernseq.synthesis, "_kernel_counterexample")
    decide_kerseq_lp(agree_except_last)  # one final-output class
    assert len(walks) == 1
    decide_kerseq_lp(a_parity)  # two
    assert len(walks) == 3


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


def test_analyze_index_wrt_relation_equals_the_direct_check(monkeypatch):
    from kernseq import relations

    cases = [
        (build_a_parity(), {}),  # closure index FINITE
        (build_last_a(), {}),  # closure index INFINITE
        (build_c_singletons(), {}),
        (build_chain(3), {"cap": 2}),  # the closure does not converge
        (build_a_parity(), {"pplus": full_same_length(AB)}),
    ] + [(r, {}) for r in default_suite(200, seed=7)]
    calls = []
    real = relations._finitely_valued

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(relations, "_finitely_valued", spy)
    seen = set()
    decided = set()
    for i, (r, kwargs) in enumerate(cases):
        calls.clear()
        report = analyze(r, **kwargs)
        # one valuedness search per index the structure does not decide:
        # r's is decided when every final state of the pair DFA is
        # diagonal, the congruence being r itself, and every index when
        # the congruence is slender; the closure's is searched when found
        # or supplied, and r's only when the closure's is not FINITE,
        # unless a prefix-closed r is its own searched closure
        prep = prepare(r)
        diagonal = prep.det.nfa.finals <= prep.diagonal
        searched = not prep.slender
        searched_r = searched and not diagonal
        own = report.prefix_closed and "pplus" not in kwargs
        closure_searches = searched_r if own else searched and report.index_wrt_closure is not None
        r_searches = searched_r and not own and report.index_wrt_closure != FINITE
        assert len(calls) == closure_searches + r_searches, i
        decided.add("diagonal" if diagonal else "searched" if searched else "slender")
        direct = FINITE if relations._finite_index(prepare(r), r) else INFINITE
        assert report.index_wrt_relation == direct, i
        seen.add((report.index_wrt_closure, direct))
    assert {(FINITE, FINITE), (INFINITE, FINITE), (INFINITE, INFINITE), (None, FINITE)} <= seen
    assert decided == {"diagonal", "slender", "searched"}


def test_a_prefix_closed_relation_is_its_own_searched_closure(monkeypatch):
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
    seen = []
    for r in fixtures + default_suite(200, seed=7):
        prep = prepare(r)
        if not prep.prefix_closed:
            continue
        result = transitive_closure(prefix_closure(r), DEFAULT_CLOSURE_CAP)
        assert (result.exponent, result.converged) == (1, True)
        assert language_equal(result.closure.nfa, r.nfa)
        assert relations._finite_index(prep, result.closure) == prep.finite_index
        # the kept closure is that search's result, read off r with no search
        assert prep.closure(DEFAULT_CLOSURE_CAP) == (result, prep.finite_index)
        seen.append(prep.finite_index)
    assert True in seen and False in seen
    # a supplied closure is checked, even for a prefix-closed relation
    r, larger = identity(AB), full_same_length(AB)
    prep = prepare(r)
    assert prep.prefix_closed and prep.finite_index
    checked = count_calls(monkeypatch, relations, "_finite_index")
    assert decide_kerseq_lp(r, closure=larger).reason == INFINITE_INDEX
    assert len(checked) == 1 and checked[0][0] is prep and checked[0][1] is larger


def test_the_kept_closure_is_the_closure_searched_afresh():
    from kernseq.relations import _finite_index

    rng = random.Random(19)
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
    relations = fixtures + default_suite(200, seed=7)
    relations += [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(200)]
    outcomes = set()
    for i, r in enumerate(relations):
        prep = prepare(r)
        for cap in (1, 2, 3, 16):
            fresh = transitive_closure(prefix_closure(r), cap)
            kept, finite = prep.closure(cap)
            # same states, transitions, initials, finals, exponent and flag
            assert kept == fresh, (i, cap)
            assert prep.closure(cap)[0] is kept
            if fresh.converged:
                assert finite == _finite_index(prep, fresh.closure), (i, cap)
            else:
                assert finite is None, (i, cap)
            outcomes.add((prep.prefix_closed, fresh.converged, finite))
    assert {(True, True, True), (True, True, False), (False, True, True)} <= outcomes
    assert {(False, True, False), (False, False, None)} <= outcomes
    # a cap below 1 raises on every call, as the search does, and keeps nothing
    for r in (build_agree_except_last(2), build_a_parity()):
        prep = prepare(r)
        for cap in (0, -1, 0):
            with pytest.raises(PreconditionError, match="cap must be at least 1"):
                prep.closure(cap)
            with pytest.raises(PreconditionError, match="cap must be at least 1"):
                analyze(r, cap=cap)
            with pytest.raises(PreconditionError, match="cap must be at least 1"):
                decide_kerseq_lp(r, cap=cap)
        assert analyze(r, pplus=full_same_length(AB), cap=0).closure is None
        assert vars(prep)["_closures"] == {}
    # the index against r still comes first: no closure work, no raise
    assert decide_kerseq_lp(build_c_singletons(), cap=0).reason == INFINITE_INDEX


def test_the_closure_keeps_its_complete_minimal_dfa(monkeypatch):
    from kernseq import automata, decision

    fixtures = [
        build_last_a(),
        build_a_parity(),
        build_agree_except_last(3),
        build_chained_classes(),
        build_chain(3),
        full_same_length(AB),
    ]
    for r in fixtures + default_suite(200, seed=7):
        closure = prepare(r).closure(DEFAULT_CLOSURE_CAP)[0].closure
        fresh = automata._dfa(closure.nfa.alphabet, *automata._subset_dfa(closure.nfa))
        assert pair_dfa(closure).nfa == minimize(closure.nfa) == fresh
    # so the synthesis builds no subset construction of a fresh relation's closure
    built = count_calls(monkeypatch, automata, "_subset_dfa")
    real = decision._subsequential_moves
    during = []  # subset constructions per synthesis

    def spy(prep, pplus):
        before = len(built)
        table = real(prep, pplus)
        during.append(len(built) - before)
        return table

    monkeypatch.setattr(decision, "_subsequential_moves", spy)
    for r in default_suite(200, seed=7):
        assert decide_kerseq_lp(r).outcome is Outcome.YES
    assert len(during) == 200 and set(during) == {0}


# ROADMAP's D4 inputs: the draw of largest minimal size among 30 draws of
# random_equivalence(random.Random(3), max_states=m), and the index against
# it of the identity's congruence ("identity") or of its own ("itself").
# At m = 24 (484 states) the identity's index: the square has 484² nodes,
# and a search holding a bitset of them per pair needs some 3 GB. At
# m = 48 (1,159 states) its own, a finite index: a triple pass holding
# bits numbered by pair, p·n + q, runs out of memory under 192 MB. The
# m = 48 congruence is slender, so ``_finite_index`` answers it with no
# search: the search is called directly, on ``_index_rows``.
_LARGE_CLOSURE_INDEX = """
import random, resource, sys
limit, m, against = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from kernseq.automata import Alphabet, minimize, trim
from kernseq.oracle import random_equivalence
from kernseq.relations import _finitely_valued, _index_rows, prepare
from kernseq.transducers import identity

rng = random.Random(3)
draws = [random_equivalence(rng, max_states=m) for _ in range(30)]
sizes = [len(trim(minimize(c.nfa)).states) for c in draws]
closure = draws[sizes.index(max(sizes))]
finer = closure if against == "itself" else identity(Alphabet(("a", "b")))
print(max(sizes), _finitely_valued(_index_rows(prepare(finer), closure)[0], 2))
"""


def test_the_valuedness_search_answers_a_large_closure_in_bounded_memory():
    pytest.importorskip("resource")
    import os
    import subprocess

    import kernseq

    src = os.path.dirname(os.path.dirname(kernseq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    inputs = [(24, "identity", 512, ["484", "False"]), (48, "itself", 160, ["1159", "True"])]
    for m, against, megabytes, answer in inputs:
        done = subprocess.run(
            [sys.executable, "-c", _LARGE_CLOSURE_INDEX, str(megabytes << 20), str(m), against],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, (m, done.stderr)
        assert done.stdout.split() == answer


# ROADMAP's D4 input from the co-sequential draws: draw 181's 16th closure
# iterate, of 738 states, which does not converge. The square pass links
# 2,881 pairs; a triple pass over the whole triple product visits 1.5 M
# nodes and peaks at 1.2 GB, while kept inside the square's components it
# visits some 3,000. The iterate is not transitive, so its index is the
# public check's, by composition: ``_finite_index`` needs a transitive target.
_CLOSURE_ITERATE_INDEX = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from kernseq.decision import index_is_finite
from kernseq.relations import prefix_closure, prepare, transitive_closure
from cosequential import cosequential_suite

prep = prepare(cosequential_suite(182)[181])
iterate = transitive_closure(prefix_closure(prep.relation), 16)
finite = index_is_finite(prep.congruence, iterate.closure)
print(len(iterate.closure.nfa.states), iterate.converged, finite)
"""


def test_the_valuedness_search_answers_a_closure_iterate_in_bounded_memory():
    pytest.importorskip("resource")
    import os
    import pathlib
    import subprocess

    import kernseq

    paths = [pathlib.Path(kernseq.__file__).parents[1], pathlib.Path(__file__).parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run(
        [sys.executable, "-c", _CLOSURE_ITERATE_INDEX, str(512 << 20)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["738", "False", "True"]


# ROADMAP's D5, D6, D7 and D8: searches that no budget bounds. Each pinned
# call must end in a reported outcome, a result or a ``KernseqError``,
# printed as one line per call, within 5 s under a 512 MB RLIMIT_AS. Today
# each runs past 5 s: D5 answers UNKNOWN after some 15 s, D6 and D7 raise
# ``MemoryError`` after 8 to 13 s, and D8 after some 20 s.
_PINNED_SEARCH = """
import random, resource, sys
limit, pin = int(sys.argv[1]), sys.argv[2]
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from kernseq.automata import Alphabet
from kernseq.decision import analyze, decide_kerseq_lp
from kernseq.errors import KernseqError
from kernseq.relations import inverse, transitive_closure
from kernseq.transducers import LetterTransducer, identity, pair_alphabet
from boolean_ops import relation_union
from cosequential import INDEX_OUT_OF_MEMORY, SLOW_CLOSURE, cosequential_suite, stress_draws


def d6():
    # draw 88 (0-based) of random.Random(11): R on {0, 1}, p = R ∪ R⁻¹ ∪ identity
    ab = Alphabet(("a", "b"))
    rng = random.Random(11)
    letters = pair_alphabet(ab, ab).letters
    for _ in range(89):
        trans = {(rng.randrange(2), rng.choice(letters), rng.randrange(2)) for _ in range(6)}
        fin = {rng.randrange(2)}
    r = LetterTransducer.build(ab, ab, {0, 1}, trans, {0}, fin)
    p = relation_union(relation_union(r, inverse(r)), identity(ab))
    return "CONVERGED" if transitive_closure(p, 2).converged else "UNKNOWN"


draws = cosequential_suite(68)
calls = {
    "D5": [lambda: decide_kerseq_lp(draws[SLOW_CLOSURE], cap=16).outcome.value],
    "D6": [d6],
    "D7": [lambda i=i: analyze(draws[i]).index_wrt_relation for i in (57, 67)],
    "D8": [lambda: decide_kerseq_lp(stress_draws(INDEX_OUT_OF_MEMORY + 1)[-1]).outcome.value],
}[pin]
for call in calls:
    try:
        print(call(), flush=True)
    except KernseqError as exc:
        print(exc.code, flush=True)
"""


class _OutOfBounds(Exception):
    """A pinned search ran past its time or its memory."""


def _unbounded(defect):
    return pytest.mark.xfail(strict=True, raises=_OutOfBounds, reason=f"ROADMAP {defect}: no budget")


@pytest.mark.slow
@pytest.mark.parametrize(
    "pin, answers",
    [
        pytest.param("D5", [{"UNKNOWN", "DIMENSION_CAP"}], marks=_unbounded("D5"), id="D5"),
        pytest.param("D6", [{"CONVERGED", "UNKNOWN", "DIMENSION_CAP"}], marks=_unbounded("D6"), id="D6"),
        pytest.param("D7", [{"INFINITE", "DIMENSION_CAP"}] * 2, id="D7"),
        pytest.param("D8", [{"YES", "UNKNOWN", "DIMENSION_CAP"}], marks=_unbounded("D8"), id="D8"),
    ],
)
def test_an_unbounded_search_ends_in_a_reported_outcome_within_its_limits(pin, answers):
    pytest.importorskip("resource")
    import os
    import pathlib
    import subprocess

    import kernseq

    paths = [pathlib.Path(kernseq.__file__).parents[1], pathlib.Path(__file__).parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    try:
        done = subprocess.run(
            [sys.executable, "-c", _PINNED_SEARCH, str(512 << 20), pin],
            env=env,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except subprocess.TimeoutExpired as exc:
        raise _OutOfBounds(f"{pin} ran past 5 s") from exc
    if "MemoryError" in done.stderr:
        raise _OutOfBounds(f"{pin} ran out of 512 MB")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(answers) and all(a in ok for a, ok in zip(lines, answers)), lines


def test_the_cosequential_suite_is_unchanged_by_the_stress_draws():
    import hashlib

    from cosequential import cosequential_suite

    # the 200 draws as rendered before cosequential_draw took max_states
    digest = hashlib.sha256("".join(map(render, cosequential_suite())).encode()).hexdigest()
    assert digest == "235b3cb7273a1383c8de9f2a344570b73d00d9fc4116129c9a732862bb39d28b"


def test_the_stress_draw_pinned_as_d8_is_the_relation_compose_builds():
    from kernseq.relations import inverse

    from cosequential import INDEX_OUT_OF_MEMORY, stress_draws, stress_machines

    t = stress_machines(INDEX_OUT_OF_MEMORY + 1)[-1]
    draw = stress_draws(INDEX_OUT_OF_MEMORY + 1)[-1]
    assert language_equal(draw.nfa, compose(inverse(t), t).nfa)


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

@pytest.mark.slow
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
