"""The exact kernel check and the minimal witnesses it certifies.

``kernel_counterexample`` walks the product of the squared machine with
the relation's pair DFA without building the squared machine, on
ordered pairs when the relation is symmetric. Here it is compared with
a reference copy of the two-phase check it replaced: build the whole
``kernel_transducer``, then walk its product with the pair DFA. Both
must return the same pair, or None, on every witness of the snapshot
relations, on wrong pairings of witness and relation and on random
small sequential machines. The walk over all pairs,
``reference_all_pairs``, checks the ordered walk pair for pair on
random machines against random relations, symmetric or not; it walks
``frozen_squaring``, a frozen copy of the squaring that works per pair
of input letters and shares no code with the walk. The two-phase
reference builds its squared machine with ``kernel_transducer``, which
shares the walk's successor function, so ``kernel_transducer`` itself is
compared with the frozen copy. The witnesses that leave the package
are Moore-minimal: no further refinement splits them, and each gives
the same output as the unminimized construction it came from.
"""

import random
from collections import deque

import pytest

from kernseq import synthesis
from kernseq.automata import Alphabet, explored, refine
from kernseq.decision import Outcome, decide_kerseq_ll, decide_kerseq_lp
from kernseq.errors import NotEquivalenceError, NotLetterToLetterError
from kernseq.fileformat import parse
from kernseq.machines import SequentialTransducer, SubsequentialTransducer
from kernseq.oracle import accepts_pair_backward, random_equivalence
from kernseq.relations import inverse, prepare, validate_relation
from kernseq.synthesis import (
    _mealy_moves,
    _subsequential_moves,
    kernel_counterexample,
    kernel_transducer,
    length_collision,
    minimal_machine,
    synthesize_mealy,
    synthesize_subsequential,
)
from kernseq.transducers import LetterTransducer, pair_alphabet, pair_dfa

from boolean_ops import relation_union
from conftest import AB, ABC, build_agree_except_last, build_mod_count, words
from test_verdicts import _relations


def reference_counterexample(f, r):
    """The two-phase check: the whole squared machine, then one product walk."""
    base = f.base if isinstance(f, SubsequentialTransducer) else f
    if not base.is_letter_to_letter:
        pair = length_collision(base)
        if pair is not None:
            return pair
    kernel = kernel_transducer(f).nfa
    rdfa = r.nfa if r.nfa.is_complete else pair_dfa(r).nfa
    k_table, d_table = kernel._table, rdfa._table
    stuck = [()] * len(rdfa.alphabet)
    (k0,) = kernel.initials
    (d0,) = rdfa.initials
    start = (k0, d0)
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        k, d = node
        if (k in kernel.finals) != (d in rdfa.finals):
            letters = []
            while parent[node] is not None:
                node, letter = parent[node]
                letters.append(letter)
            letters.reverse()
            return tuple(a for a, _b in letters), tuple(b for _a, b in letters)
        k_row = stuck if k is None else k_table[k]
        for letter, ks, (d2,) in zip(rdfa.alphabet.letters, k_row, d_table[d]):
            nxt = (ks[0] if ks else None, d2)
            if nxt not in parent:
                parent[nxt] = (node, letter)
                queue.append(nxt)
    return None


def reference_all_pairs(f, r):
    """The walk over all pairs, sharing no code with the ordered walk: the
    length stage, then one breadth-first walk over the product of
    ``frozen_squaring`` with r's pair DFA, reading every pair letter and
    squaring each squared node when the walk first expands it."""
    base = f.base if isinstance(f, SubsequentialTransducer) else f
    if not base.is_letter_to_letter:
        pair = length_collision(base)
        if pair is not None:
            return pair
    rdfa = r.nfa if r.nfa.is_complete else pair_dfa(r).nfa
    square, successors, accepting = frozen_squaring(f)
    rows = {None: {}}  # squared node -> its successors by pair letter; None is dead
    (d0,) = rdfa.initials
    start = (square, d0)
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        k, d = node
        if (k is not None and accepting(k)) != (d in rdfa.finals):
            letters = []
            while parent[node] is not None:
                node, letter = parent[node]
                letters.append(letter)
            letters.reverse()
            return tuple(a for a, _b in letters), tuple(b for _a, b in letters)
        if k not in rows:
            rows[k] = dict(successors(k))
        for letter, (d2,) in zip(rdfa.alphabet.letters, rdfa._table[d]):
            nxt = (rows[k].get(letter), d2)
            if nxt not in parent:
                parent[nxt] = (node, letter)
                queue.append(nxt)
    return None


def outcome(check, f, r):
    try:
        return check(f, r)
    except NotLetterToLetterError:
        return NotLetterToLetterError


def assert_disagreement(f, r, pair):
    """The kernel of ``f`` and the relation ``r`` disagree on ``pair``."""
    u, v = pair
    in_kernel = f.run(u) is not None and f.run(u) == f.run(v)
    assert in_kernel != accepts_pair_backward(r, u, v)


def assert_same_check(f, r):
    """The product walk answers as the two-phase check, or finds a true
    disagreement where the two-phase check runs out of budget first."""
    expected = outcome(reference_counterexample, f, r)
    got = outcome(kernel_counterexample, f, r)
    if expected is NotLetterToLetterError and got is not NotLetterToLetterError:
        assert_disagreement(f, r, got)
    else:
        assert got == expected
    return got


def handed_out(ll, lp):
    """Every witness that the two decisions hand out."""
    machines = [ll.witness] if ll.outcome is Outcome.YES else []
    if lp.outcome is Outcome.YES:
        machines += [lp.subsequential, lp.witness]
    return machines


@pytest.fixture(scope="module")
def snapshot_witnesses():
    """Per snapshot equivalence: its name, the relation, and its
    ``decide ll`` and ``decide lp`` verdicts."""
    found = []
    for name, r in _relations():
        try:
            found.append((name, r, decide_kerseq_ll(r), decide_kerseq_lp(r)))
        except NotEquivalenceError:
            continue
    return found


# ---------------------------------------------------------------- product walk

def test_product_walk_matches_the_two_phase_check_on_every_witness(snapshot_witnesses):
    checked = 0
    for name, r, ll, lp in snapshot_witnesses:
        for m in handed_out(ll, lp):
            assert kernel_counterexample(m, r) is None, name
            assert reference_counterexample(m, r) is None, name
            checked += 1
    assert checked > 400


def test_product_walk_matches_the_two_phase_check_on_wrong_pairings(snapshot_witnesses):
    # each witness against the next relation of the same alphabet
    differing = 0
    for (_n, _r, ll, lp), (_name, other, _ll, _lp) in zip(
        snapshot_witnesses, snapshot_witnesses[1:]
    ):
        for m in handed_out(ll, lp):
            if other.input_alphabet != m.input_alphabet:
                continue
            differing += assert_same_check(m, other) is not None
    assert differing > 100


def test_mod_two_witnesses_against_mod_three_give_the_same_pair():
    mod3 = build_mod_count(3)
    verdict = decide_kerseq_lp(build_mod_count(2))
    for m in (verdict.subsequential, verdict.witness):
        pair = assert_same_check(m, mod3)
        assert pair is not None


def random_machine(rng, uniform, inputs=AB, subsequential=False, length=1):
    """A random machine of 1-4 states with outputs over x and y.

    About one move in seven is missing. Outputs have ``length`` letters
    each when ``uniform``, or 0-2 letters (so runs lag) when not; with two
    output letters, several input letters often share an output word, and
    two different words of one length clash. A subsequential machine needs
    a letter-to-letter body.
    """
    states = range(rng.randint(1, 4))
    transitions = {}
    for q in states:
        for a in inputs.letters:
            if rng.random() < 0.85:
                size = length if uniform else rng.choice((0, 1, 1, 2))
                out = tuple(rng.choice("xy") for _ in range(size))
                transitions[(q, a)] = (out, rng.choice(states))
    machine = SequentialTransducer(
        input_alphabet=inputs,
        output_alphabet=Alphabet(("x", "y")),
        states=set(states),
        transitions=transitions,
        initial=0,
        finals={q for q in states if rng.random() < 0.6},
    )
    if not subsequential:
        return machine
    final_output = {q: rng.choice("xy") for q in sorted(machine.finals)}
    return SubsequentialTransducer(base=machine, final_output=final_output)


def test_product_walk_matches_the_two_phase_check_on_random_machines(snapshot_witnesses):
    rng = random.Random(2003)
    targets = [r for _n, r, _ll, _lp in snapshot_witnesses if r.input_alphabet == AB]
    answers = set()
    for i in range(400):
        m = random_machine(rng, uniform=i % 2 == 0)
        r = rng.choice(targets)
        got = assert_same_check(m, r)
        answers.add(got is None)
        if i == 325:
            # the walk over all pairs runs out of budget on this draw; the
            # ordered walk meets a disagreement first, which
            # assert_same_check confirmed
            assert outcome(reference_all_pairs, m, r) is NotLetterToLetterError
            assert got not in (None, NotLetterToLetterError)
    assert answers == {True, False}


def assert_every_check_runs_out(machine, relation):
    """The kernel of the machine equals the relation, which is symmetric,
    and the lag grows without bound along ordered pairs: every check runs
    out of the squaring budget."""
    machine = parse("kind sequential\ninputs a b\noutputs x y\n" + machine).machine
    relation = parse("kind letter-transducer\ninputs a b\noutputs a b\n" + relation).machine
    for check in (kernel_counterexample, reference_all_pairs, reference_counterexample):
        with pytest.raises(NotLetterToLetterError):
            check(machine, relation)


def test_product_walk_stops_on_the_lagging_machine():
    # a^k and b^k give x^k and x^2k and end in non-final states, so the
    # kernel is {(empty, empty)}
    assert_every_check_runs_out(
        "states 0 1 2\ninitial 0\nfinals 0\n"
        "0 a / x -> 1\n0 b / x x -> 2\n1 a / x -> 1\n2 b / x x -> 2\n",
        "states 0\ninitials 0\nfinals 0\n",
    )


def test_product_walk_stops_on_a_lagging_machine_with_a_larger_kernel():
    # a, b and the empty word give x, y and nothing; after a, a^k and b^k
    # give x^k and x^2k and end in non-final states, so the kernel is the
    # identity on words of length at most 1, whose pair DFA has 3 states
    assert_every_check_runs_out(
        "states 0 1 2 3 4\ninitial 0\nfinals 0 1 2\n"
        "0 a / x -> 1\n0 b / y -> 2\n1 a / x -> 3\n1 b / x x -> 4\n"
        "3 a / x -> 3\n4 b / x x -> 4\n",
        "states 0 1\ninitials 0\nfinals 0 1\n0 a / a -> 1\n0 b / b -> 1\n",
    )


def random_relation(rng):
    """An arbitrary relation over two letters: 1-3 states, about half the
    possible moves, random initial and final states."""
    states = range(rng.randint(1, 3))
    pair_letters = pair_alphabet(AB, AB).letters
    return LetterTransducer.build(
        AB,
        AB,
        set(states),
        {(p, ab, q) for p in states for ab in pair_letters for q in states if rng.random() < 0.5},
        {q for q in states if rng.random() < 0.5} or {0},
        {q for q in states if rng.random() < 0.6},
    )


def test_ordered_walk_returns_the_pair_of_the_walk_over_all_pairs():
    rng = random.Random(99)
    seen = {
        "symmetric": 0,
        "not symmetric": 0,
        "differ": 0,
        "equal": 0,
        "reference raises": 0,
        "two letters": 0,
    }
    for i in range(3600):
        # lagging, letter-to-letter, subsequential; after 3000 draws, every
        # move outputs two letters
        kind = i % 3 if i < 3000 else 3
        m = random_machine(rng, kind != 0, subsequential=kind == 2, length=1 + (kind == 3))
        seen["two letters"] += kind == 3
        target = i // 3 % 3
        if target == 0:
            r = random_equivalence(rng)
        else:
            r = random_relation(rng)
            if target == 1:
                r = relation_union(r, inverse(r))
        symmetric = validate_relation(r).is_symmetric
        seen["symmetric" if symmetric else "not symmetric"] += 1
        expected = outcome(reference_all_pairs, m, r)
        got = outcome(kernel_counterexample, m, r)
        if kind == 3:
            assert NotLetterToLetterError not in (expected, got), i
        if expected is NotLetterToLetterError:
            seen["reference raises"] += 1
            if got is not NotLetterToLetterError:
                assert_disagreement(m, r, got)
        else:
            assert got == expected, i
            seen["equal" if got is None else "differ"] += 1
    assert min(seen.values()) > 0, seen
    assert seen["symmetric"] > 1000 and seen["not symmetric"] > 500, seen


@pytest.mark.parametrize("k", [1, 3, 5])
def test_ordered_walk_squares_each_unordered_pair_of_states_once(monkeypatch, k):
    # the squared machine of an n-state agree-except-last-k witness has n²
    # states, and the walk on ordered pairs squares the n(n + 1)/2 with
    # p ≤ q only; the walk records each squared state it expands, and the
    # reference squares a node each time it charges the budget
    squares = []

    class Recorded(synthesis._Squared):
        def __init__(self, *args):
            super().__init__(*args)
            squares.append(self)

    squared = []
    frozen = frozen_squaring

    def counting(f):
        start, successors, accepting = frozen(f)

        def counted(node):
            squared.append(node)
            return successors(node)

        return start, counted, accepting

    r = build_agree_except_last(k)
    witness = decide_kerseq_ll(r).witness
    n = len(witness.states)
    monkeypatch.setattr(synthesis, "_Squared", Recorded)
    monkeypatch.setitem(globals(), "frozen_squaring", counting)
    assert kernel_counterexample(witness, r) is None
    (square,) = squares
    assert len(square.expanded) == n * (n + 1) // 2
    assert reference_all_pairs(witness, r) is None
    assert len(squared) == len(set(squared)) == n * n


def test_product_walk_builds_no_squared_machine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the squared machine is built")

    verdict = decide_kerseq_lp(build_agree_except_last(3))
    wrong = build_mod_count(3)
    monkeypatch.setattr(synthesis, "explored", forbidden)
    monkeypatch.setattr(synthesis, "kernel_transducer", forbidden)
    for m in (verdict.subsequential, verdict.witness):
        assert kernel_counterexample(m, build_agree_except_last(3)) is None
        assert kernel_counterexample(m, wrong) is not None


# ---------------------------------------------------------------- squared machine

def frozen_balance(left, right):
    n = min(len(left), len(right))
    if left[:n] != right[:n]:
        return None
    if len(left) >= len(right):
        return left[n:], 0
    return right[n:], 1


def frozen_squaring(f):
    """A frozen copy of the squaring that works per pair of input letters:
    its start node, successors and acceptance over tuple nodes
    (p, q, pending, side), with the budget of ``kernel_transducer``."""
    sub = isinstance(f, SubsequentialTransducer)
    base = f.base if sub else f
    longest = max((len(out) for out, _dst in base.transitions.values()), default=0)
    budget = (1 + longest) * len(base.states) ** 2
    held = 0
    moves, letters = base.transitions, base.input_alphabet.letters
    hops = {q: [(a, *moves[(q, a)]) for a in letters if (q, a) in moves] for q in base.states}

    def successors(node):
        nonlocal held
        p, q, pending, side = node
        held += 1 + len(pending)
        if held > budget:
            raise NotLetterToLetterError("over budget")
        extra = [(), ()]
        extra[side] = pending
        for a1, out1, p2 in hops[p]:
            for a2, out2, q2 in hops[q]:
                balance = frozen_balance(extra[0] + out1, extra[1] + out2)
                if balance is not None:
                    yield (a1, a2), (p2, q2) + balance

    def accepting(node):
        p, q, pending, _side = node
        return (
            not pending
            and p in base.finals
            and q in base.finals
            and (not sub or f.final_output[p] == f.final_output[q])
        )

    return (base.initial, base.initial, (), 0), successors, accepting


def frozen_kernel(f):
    base = f.base if isinstance(f, SubsequentialTransducer) else f
    start, successors, accepting = frozen_squaring(f)
    pairs = pair_alphabet(base.input_alphabet, base.input_alphabet)
    return explored(pairs, [start], successors, accepting)


def assert_same_squaring(f):
    """``kernel_transducer`` builds the automaton of the frozen squaring,
    state for state, or both run out of budget."""
    try:
        expected = frozen_kernel(f)
    except NotLetterToLetterError:
        with pytest.raises(NotLetterToLetterError):
            kernel_transducer(f)
        return None
    got = kernel_transducer(f).nfa
    assert got == expected
    return got


def test_squaring_matches_the_frozen_copy_on_every_witness(snapshot_witnesses):
    checked = 0
    for name, _r, ll, lp in snapshot_witnesses:
        for m in handed_out(ll, lp):
            assert assert_same_squaring(m) is not None, name
            checked += 1
    assert checked > 400


def test_squaring_matches_the_frozen_copy_on_random_machines():
    rng = random.Random(2016)
    seen = {
        "shared output": 0,
        "lag": 0,
        "missing move": 0,
        "subsequential": 0,
        "raise": 0,
        "two letters": 0,
    }
    for i in range(600):
        inputs = (AB, ABC)[i % 2]
        # lagging, letter-to-letter, subsequential; after 480 draws, every
        # move outputs two letters
        kind = i // 2 % 3 if i < 480 else 3
        m = random_machine(rng, kind != 0, inputs, subsequential=kind == 2, length=1 + (kind == 3))
        base = m.base if kind == 2 else m
        outputs = [out for out, _dst in base.transitions.values()]
        by_state = [
            [base.transitions[(q, a)][0] for a in inputs.letters if (q, a) in base.transitions]
            for q in base.states
        ]
        seen["shared output"] += any(len(set(outs)) < len(outs) for outs in by_state)
        seen["lag"] += len({len(out) for out in outputs}) > 1
        seen["missing move"] += len(outputs) < len(base.states) * len(inputs)
        seen["subsequential"] += kind == 2
        seen["two letters"] += kind == 3
        raised = assert_same_squaring(m) is None
        assert not (raised and kind == 3), i
        seen["raise"] += raised
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_squared_witnesses_of_agree_except_last_k_have_four_to_the_k_states(k):
    r = build_agree_except_last(k)
    lp = decide_kerseq_lp(r)
    for m in (decide_kerseq_ll(r).witness, lp.subsequential, lp.witness):
        assert len(kernel_transducer(m).nfa.states) == 4**k


# ---------------------------------------------------------------- minimal witnesses

@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_agree_except_last_k_witnesses_have_two_to_the_k_states(k):
    r = build_agree_except_last(k)
    assert len(decide_kerseq_ll(r).witness.states) == 2**k
    lp = decide_kerseq_lp(r)
    assert len(lp.subsequential.base.states) == 2**k
    assert len(lp.witness.states) == 2**k


def splits(m) -> bool:
    """Whether one more Moore refinement of a machine splits a block."""
    final_output = m.final_output if isinstance(m, SubsequentialTransducer) else {}
    base = m.base if isinstance(m, SubsequentialTransducer) else m
    letters = base.input_alphabet.letters
    hops = [[base.transitions[(q, a)] for a in letters] for q in range(len(base.states))]
    block, _ = refine(
        [
            (q in base.finals, final_output.get(q), *(out for out, _dst in row))
            for q, row in enumerate(hops)
        ],
        [[dst for _out, dst in row] for row in hops],
    )
    return len(set(block)) != len(hops)


def test_no_returned_witness_splits_further(snapshot_witnesses):
    checked = 0
    for name, r, ll, lp in snapshot_witnesses:
        minimal = []
        if ll.outcome is Outcome.YES:
            minimal += [ll.witness, synthesize_mealy(r)]
        if lp.outcome is Outcome.YES:
            minimal += [
                lp.subsequential,
                lp.witness,
                synthesize_subsequential(r, lp.closure.closure),
            ]
        for m in minimal:
            assert not splits(m), name
            checked += 1
    assert checked > 400


def test_minimal_witnesses_give_the_outputs_of_their_constructions(snapshot_witnesses):
    compared = 0
    for name, r, ll, lp in snapshot_witnesses:
        if not name.startswith("suite7_"):
            continue
        prep = prepare(r)
        pairs = []
        if ll.outcome is Outcome.YES:
            pairs.append((ll.witness, _mealy_moves(prep).machine()))
        if lp.outcome is Outcome.YES:
            built = _subsequential_moves(prep, lp.closure.closure).machine()
            pairs.append((lp.subsequential, built))
        for minimal, built in pairs:
            for w in words(r.input_alphabet.letters, 6):
                assert minimal.run(w) == built.run(w), (name, w)
            compared += 1
    assert compared > 200


def test_minimal_machine_keeps_the_provenance_of_least_members():
    built = _mealy_moves(prepare(build_agree_except_last(1))).machine()
    minimal = minimal_machine(built)
    # the 3 matrix states: the start state and row 1 of the 2-by-2 matrix
    # give the same output on every input, so the start state is kept
    assert len(built.states) == 3 and len(minimal.states) == 2
    assert dict(minimal.provenance) == {0: built.provenance[0], 1: built.provenance[2]}
    for w in words(AB.letters, 5):
        assert minimal.run(w) == built.run(w)


def test_eliminated_witness_of_agree_except_last_7_is_minimal():
    verdict = decide_kerseq_lp(build_agree_except_last(7))
    assert len(verdict.subsequential.base.states) == 128
    assert len(verdict.witness.states) == 128
    assert len(decide_kerseq_ll(build_agree_except_last(7)).witness.states) == 128


# ---------------------------------------------------------------- the move table

def _fields(m):
    """Every field of a machine, its provenance strings included."""
    base = m.base if isinstance(m, SubsequentialTransducer) else m
    return m, None if base.provenance is None else dict(base.provenance)


def test_the_deciders_build_the_machines_of_the_frozen_stages():
    from cosequential import SLOW_CLOSURE, cosequential_suite
    from reference_synthesis import reference_ll, reference_lp

    rng = random.Random(7)
    relations = [r for _name, r in _relations() if validate_relation(r).is_equivalence]
    relations += [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(200)]
    relations += [r for i, r in enumerate(cosequential_suite()) if i != SLOW_CLOSURE]
    compared = [0, 0, 0]  # decide ll YES, decide lp YES with one final-output value, with more
    for r in relations:
        ll = decide_kerseq_ll(r)
        if ll.outcome is Outcome.YES:
            assert _fields(ll.witness) == _fields(reference_ll(r))
            compared[0] += 1
        lp = decide_kerseq_lp(r)
        if lp.outcome is Outcome.YES:
            witness, sub = reference_lp(r, lp.closure.closure)
            assert _fields(lp.subsequential) == _fields(sub)
            assert _fields(lp.witness) == _fields(witness)
            compared[1 + (len(set(sub.final_output.values())) > 1)] += 1
    assert compared[0] > 400 and compared[1] > 400 and compared[2] > 100


def renamed(m, rng):
    """``m`` with its states renamed at random among 0..9, so that the initial
    one is often not the least, and each state's old name as its provenance."""
    sub = isinstance(m, SubsequentialTransducer)
    base = m.base if sub else m
    name = dict(zip(sorted(base.states), rng.sample(range(10), len(base.states))))
    body = SequentialTransducer(
        input_alphabet=base.input_alphabet,
        output_alphabet=base.output_alphabet,
        states={name[q] for q in base.states},
        transitions={
            (name[q], a): (out, name[dst]) for (q, a), (out, dst) in base.transitions.items()
        },
        initial=name[base.initial],
        finals={name[q] for q in base.finals},
        provenance={name[q]: f"state {q}" for q in base.states},
    )
    if not sub:
        return body
    return SubsequentialTransducer(body, {name[q]: v for q, v in m.final_output.items()})


def test_the_public_stages_equal_the_frozen_stages_on_random_machines():
    from kernseq.errors import PreconditionError
    from kernseq.synthesis import eliminate_final_output
    from reference_synthesis import reference_eliminate_final_output, reference_minimal_machine

    rng = random.Random(2003)
    seen = set()
    for i in range(1200):
        kind = i % 4  # partial with lagging outputs, uniform, subsequential, two-letter outputs
        m = random_machine(rng, kind != 0, subsequential=kind == 2, length=1 + (kind == 3))
        if i % 8 >= 4:
            m = renamed(m, rng)
        try:
            expected = _fields(reference_minimal_machine(m))
        except KeyError:  # a machine with a missing move, which the frozen stage refuses
            expected = None
        minimal = minimal_machine(m)
        if expected is not None:
            assert _fields(minimal) == expected
        else:
            for w in words(AB.letters, 4):
                assert minimal.run(w) == m.run(w)
        seen.add((kind, expected is not None))
        if kind == 2:
            try:
                expected = _fields(reference_eliminate_final_output(m))
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    eliminate_final_output(m)
                seen.add("accepts nothing")
            else:
                assert _fields(eliminate_final_output(m)) == expected
    assert {(kind, complete) for kind in range(4) for complete in (True, False)} < seen
    assert "accepts nothing" in seen


def test_each_returned_machine_is_constructed_once(monkeypatch):
    built = []
    for cls in (SequentialTransducer, SubsequentialTransducer):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, check=check: built.append(type(self)) or check(self)
        )
    one_class, two_classes = build_agree_except_last(3), build_mod_count(2)
    assert decide_kerseq_ll(one_class).outcome is Outcome.YES
    assert built == [SequentialTransducer]
    for r in (one_class, two_classes):
        built.clear()
        verdict = decide_kerseq_lp(r)
        assert verdict.outcome is Outcome.YES
        assert built == [SequentialTransducer, SequentialTransducer, SubsequentialTransducer]
    assert len(set(verdict.subsequential.final_output.values())) == 2
