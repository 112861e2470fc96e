import random
import time

import pytest

from kernseq.automata import Alphabet, language_equal
from kernseq.decision import Outcome, analyze, decide_kerseq_ll, decide_kerseq_lp
from kernseq.errors import (
    AlphabetMismatchError,
    DimensionCapError,
    InternalInvariantError,
    NotLetterToLetterError,
    PreconditionError,
)
from kernseq.machines import SequentialTransducer, SubsequentialTransducer
from kernseq.transducers import LetterTransducer, full_same_length
from kernseq.oracle import (
    accepts_pair_backward,
    brute_index,
    brute_kernel,
    default_suite,
    enumerate_relation,
    random_equivalence,
)
from kernseq.relations import (
    compose,
    inverse,
    prefix_closure,
    prepare,
    syntactic_congruence,
    transitive_closure,
)
from kernseq import synthesis
from kernseq.synthesis import (
    _check_matrix,
    _length_graded,
    _mealy_moves,
    _Moves,
    _partition,
    _subsequential_moves,
    _worklist,
    eliminate_final_output,
    kernel_counterexample,
    kernel_transducer,
    length_collision,
    synthesize_mealy,
    synthesize_subsequential,
    validate_closure_witness,
)
from reference_synthesis import (
    reference_check_matrix,
    reference_machine,
    reference_partition,
    reference_worklist,
)
from conftest import (
    AB,
    ABC,
    build_a_parity,
    build_agree_except_last,
    build_b_c_at_zero,
    build_c_singletons,
    build_chain,
    build_last_a,
    build_mod_count,
    count_calls,
    validation_walks,
    words,
)


def closure_of(r, cap=8):
    result = transitive_closure(prefix_closure(r), cap=cap)
    assert result.converged
    return result.closure


# ---------------------------------------------------------------- mealy

def test_mealy_for_identity_is_one_state(ident_ab):
    machine = synthesize_mealy(ident_ab)
    assert len(machine.states) == 1
    assert machine.is_letter_to_letter and machine.is_total
    assert language_equal(kernel_transducer(machine).nfa, ident_ab.nfa)
    # distinct letters keep distinct outputs
    assert machine.run(("a",)) != machine.run(("b",))


def test_mealy_for_full_relation_collapses_everything(full_ab):
    machine = synthesize_mealy(full_ab)
    assert len(machine.states) == 1
    outputs = {machine.run(w) for w in words(AB.letters, 4) if len(w) == 4}
    assert len(outputs) == 1  # one output word per length
    assert language_equal(kernel_transducer(machine).nfa, full_ab.nfa)


def test_mealy_for_agree_except_last(agree_except_last):
    machine = synthesize_mealy(agree_except_last)
    assert machine.is_letter_to_letter and machine.is_total
    # the matrices genuinely reach dimension 2: the output alphabet
    # carries row indexes up to 2
    assert any(name.startswith("o2_") for name in machine.output_alphabet.letters)
    assert language_equal(kernel_transducer(machine).nfa, agree_except_last.nfa)
    assert brute_kernel(machine, 8).pairs == enumerate_relation(
        agree_except_last, 8
    ).pairs


def test_mealy_outputs_equal_iff_related(agree_except_last):
    machine = synthesize_mealy(agree_except_last)
    related = enumerate_relation(agree_except_last, 6).pairs
    pool = words(AB.letters, 6)
    for u in pool:
        for v in pool:
            if len(u) == len(v):
                assert (machine.run(u) == machine.run(v)) == ((u, v) in related)


def test_mealy_witness_bounds_index(ident_ab, agree_except_last):
    for r in (ident_ab, agree_except_last):
        machine = synthesize_mealy(r)
        s, _ = syntactic_congruence(r)
        assert brute_index(s, r, 6) <= len(machine.states)


def test_mealy_rejects_non_prefix_closed(a_parity):
    with pytest.raises(PreconditionError):
        synthesize_mealy(a_parity)


def test_mealy_rejects_infinite_index(c_singletons):
    with pytest.raises(PreconditionError):
        synthesize_mealy(c_singletons)


def test_each_synthesizer_prepares_its_relation_once(monkeypatch, a_parity, c_singletons):
    from kernseq import relations

    yes = build_agree_except_last(2)
    yes_plus, parity_plus, singletons_plus = map(closure_of, (yes, a_parity, c_singletons))
    walks = validation_walks(monkeypatch)
    builds = count_calls(monkeypatch, relations, "_least_walk")
    # per relation object: each synthesizer, and the refusal it meets if any
    runs = [
        (yes, [(synthesize_mealy, (), None), (synthesize_subsequential, (yes_plus,), None)]),
        (
            a_parity,
            [
                (synthesize_mealy, (), "not prefix-closed"),
                (synthesize_subsequential, (parity_plus,), None),
            ],
        ),
        # the index checks read the prepared representatives, so refusals share them too
        (
            c_singletons,
            [
                (synthesize_mealy, (), "infinite index with respect to the relation"),
                (
                    synthesize_subsequential,
                    (singletons_plus,),
                    "infinite index with respect to the closure",
                ),
            ],
        ),
    ]
    for r, calls in runs:
        walks.clear()
        builds.clear()
        for entry, rest, refusal in calls:
            if refusal is None:
                entry(r, *rest)
            else:
                with pytest.raises(PreconditionError, match=refusal):
                    entry(r, *rest)
        assert len(walks) == 1 and walks[0][0] is prepare(r).rows[0]
        assert len(builds) == 1


def test_mealy_states_carry_provenance(agree_except_last):
    machine = synthesize_mealy(agree_except_last)
    assert machine.provenance is not None
    assert "row" in machine.provenance[0]


def test_provenance_names_every_state_and_no_other(agree_except_last):
    machine = synthesize_mealy(agree_except_last)
    assert set(machine.provenance) == set(machine.states)
    assert len(machine.provenance) == len(machine.states)
    assert machine.provenance.get(len(machine.states)) is None
    assert all(text.startswith("row ") for text in machine.provenance.values())


def test_entry_cap_ends_a_construction_with_a_broken_precondition(monkeypatch, last_a):
    import kernseq.synthesis

    # the index of last_a is infinite with respect to its closure, so the
    # matrices grow without bound
    monkeypatch.setattr(kernseq.synthesis, "ENTRY_CAP", 10_000)
    with pytest.raises(DimensionCapError):
        _subsequential_moves(prepare(last_a), closure_of(last_a))


# ---------------------------------------------------------------- subsequential

def test_subsequential_degenerate_prefix_closed_case(agree_except_last):
    r = agree_except_last
    sub = synthesize_subsequential(r, closure_of(r))
    mealy = synthesize_mealy(r)
    for w in words(AB.letters, 6):
        assert sub.base.run(w) == mealy.run(w)
    assert set(sub.final_output.values()) == {"t1"}  # constant final output
    assert language_equal(kernel_transducer(sub).nfa, r.nfa)
    # with one final-output class, elimination stays letter-to-letter
    flat = eliminate_final_output(sub)
    assert flat.is_letter_to_letter
    assert brute_kernel(flat, 6).pairs == enumerate_relation(r, 6).pairs


def test_subsequential_parity_distinguishes_lengths_by_final_letter(a_parity):
    sub = synthesize_subsequential(a_parity, closure_of(a_parity))
    assert len(set(sub.final_output.values())) == 2
    # the body alone confuses the parities: outputs track the closure
    same = {sub.base.run(("a",)), sub.base.run(("b",))}
    assert len(same) == 1
    assert sub.run(("a",)) != sub.run(("b",))
    assert language_equal(kernel_transducer(sub).nfa, a_parity.nfa)


def test_subsequential_chain_pipeline(chained_classes):
    sub = synthesize_subsequential(chained_classes, closure_of(chained_classes))
    assert language_equal(kernel_transducer(sub).nfa, chained_classes.nfa)
    flat = eliminate_final_output(sub)
    assert brute_kernel(flat, 5).pairs == enumerate_relation(chained_classes, 5).pairs


def test_subsequential_validates_the_closure_witness(a_parity, ident_ab):
    from kernseq.errors import BadClosureWitnessError

    with pytest.raises(BadClosureWitnessError):
        synthesize_subsequential(a_parity, ident_ab)


def test_closure_witness_errors_name_a_shortest_offending_pair(
    a_parity, chained_classes, ident_ab
):
    from kernseq.errors import BadClosureWitnessError

    pc = prefix_closure(chained_classes)
    upper = _upper(AB)
    cases = [
        # the identity lacks the prefix closure of parity
        (a_parity, ident_ab, prefix_closure(a_parity), "prefix closure"),
        # the prefix closure of the chain links a to c and c to b, not a to b
        (chained_classes, pc, compose(pc, pc), "not transitive"),
        # the identity lies inside a transitive closure that relates a to b, not b to a
        (ident_ab, upper, inverse(upper), "not symmetric"),
    ]
    for r, witness, required, what in cases:
        with pytest.raises(BadClosureWitnessError, match=what) as info:
            validate_closure_witness(r, witness)
        u, v = info.value.pair
        assert str((u, v)) in str(info.value)
        assert accepts_pair_backward(required, u, v)
        assert not accepts_pair_backward(witness, u, v)
        shorter = len(u) - 1
        assert enumerate_relation(required, shorter).pairs <= enumerate_relation(
            witness, shorter
        ).pairs
    with pytest.raises(BadClosureWitnessError, match=r"\(\('a',\), \('b',\)\)"):
        decide_kerseq_lp(a_parity, closure=ident_ab)
    # no wrong NO: the identity is the kernel of the identity machine
    refused = r"witness is not symmetric: it lacks the pair \(\('b',\), \('a',\)\)"
    for check in (decide_kerseq_lp, synthesize_subsequential):
        with pytest.raises(BadClosureWitnessError, match=refused):
            check(ident_ab, upper)
    with pytest.raises(BadClosureWitnessError, match=refused):
        analyze(ident_ab, pplus=upper)
    # a closure whose input and output alphabets differ is no transitive closure
    wide = LetterTransducer.build(
        AB, ABC, {0}, {(0, (x, y), 0) for x in AB.letters for y in ABC.letters}, {0}, {0}
    )
    with pytest.raises(AlphabetMismatchError):
        validate_closure_witness(wide, wide)


def _upper(alphabet):
    """One final state with every (a, a) and every (a, b) for a before b:
    reflexive and transitive, not symmetric."""
    letters = alphabet.letters
    moves = {(0, (a, b), 0) for i, a in enumerate(letters) for b in letters[i:]}
    return LetterTransducer.build(alphabet, alphabet, {0}, moves, {0}, {0})


def test_subsequential_body_outputs_track_the_closure(a_parity):
    pplus = closure_of(a_parity)
    sub = synthesize_subsequential(a_parity, pplus)
    related = enumerate_relation(pplus, 6).pairs
    pool = words(AB.letters, 6)
    for u in pool:
        for v in pool:
            if len(u) == len(v):
                assert (sub.base.run(u) == sub.base.run(v)) == ((u, v) in related)


def test_all_witness_kernels_agree(a_parity, chained_classes):
    # the subsequential machine and its final-output-free form induce the
    # same relation as the input, pairwise, on every short word
    for r in (a_parity, chained_classes):
        sub = synthesize_subsequential(r, closure_of(r))
        flat = eliminate_final_output(sub)
        reference = enumerate_relation(r, 7).pairs
        assert brute_kernel(sub, 7).pairs == reference
        assert brute_kernel(flat, 7).pairs == reference


# ---------------------------------------------------------------- final-output elimination

def hand_machine():
    alpha_in = AB
    alpha_out = Alphabet(("x", "t1", "t2"))
    base = SequentialTransducer(
        input_alphabet=alpha_in,
        output_alphabet=alpha_out,
        states={0, 1},
        transitions={
            (0, "a"): (("x",), 1),
            (0, "b"): (("x",), 0),
            (1, "a"): (("x",), 0),
            (1, "b"): (("x",), 1),
        },
        initial=0,
        finals={0, 1},
    )
    return SubsequentialTransducer(base, {0: "t1", 1: "t2"})


def test_eliminate_hand_case_two_classes(a_parity):
    m = hand_machine()  # kernel: same length and same number of a's mod 2
    flat = eliminate_final_output(m)
    assert not flat.is_letter_to_letter
    assert brute_kernel(flat, 6).pairs == brute_kernel(m, 6).pairs
    assert len(flat.states) == 2  # a (state, letter) state per state: one output letter
    assert brute_kernel(flat, 6).pairs == enumerate_relation(a_parity, 6).pairs


def test_eliminate_repetition_counts_encode_classes():
    m = hand_machine()
    flat = eliminate_final_output(m)
    # initial state's class is renumbered last, so its own outputs start
    # without padding: the first step emits exactly class-many letters
    out_a = flat.run(("a",))
    out_b = flat.run(("b",))
    assert set(out_a) == {"x"} and set(out_b) == {"x"}
    assert len(out_a) != len(out_b)


def test_eliminate_one_state_per_body_state_with_one_final_class():
    sub = decide_kerseq_lp(build_agree_except_last(7)).subsequential
    assert set(sub.final_output.values()) == {"t1"}
    flat = eliminate_final_output(sub)
    assert len(sub.base.states) == len(flat.states) == 128
    assert flat.transitions == sub.base.transitions and flat.finals == sub.base.finals
    # two classes: a state is a body state with the letter it carries
    base = SequentialTransducer(
        input_alphabet=AB,
        output_alphabet=Alphabet(("x", "y", "t1", "t2")),
        states={0, 1},
        transitions={
            (0, "a"): (("x",), 1),
            (0, "b"): (("y",), 0),
            (1, "a"): (("x",), 0),
            (1, "b"): (("y",), 1),
        },
        initial=0,
        finals={0, 1},
    )
    m = SubsequentialTransducer(base, {0: "t1", 1: "t2"})
    flat = eliminate_final_output(m)
    assert sorted(flat.provenance.values()) == ["(0, 'x')", "(0, 'y')", "(1, 'x')", "(1, 'y')"]
    assert brute_kernel(flat, 6).pairs == brute_kernel(m, 6).pairs


def test_eliminate_from_parity_pipeline_matches_relation(a_parity):
    sub = synthesize_subsequential(a_parity, closure_of(a_parity))
    flat = eliminate_final_output(sub)
    assert brute_kernel(flat, 8).pairs == enumerate_relation(a_parity, 8).pairs


# ---------------------------------------------------------------- kernel transducer

def test_kernel_of_identity_machine_is_identity(ident_ab):
    machine = synthesize_mealy(ident_ab)
    assert language_equal(kernel_transducer(machine).nfa, ident_ab.nfa)


def test_kernel_of_constant_machine_is_full_relation(full_ab):
    machine = synthesize_mealy(full_ab)
    assert language_equal(kernel_transducer(machine).nfa, full_ab.nfa)


def test_kernel_stops_squaring_beyond_its_budget():
    # runs on a^k and b^k emit x^k and x^2k: the lag grows without bound,
    # and the budget is (1 + 2) * 1**2
    m = SequentialTransducer(
        input_alphabet=AB,
        output_alphabet=Alphabet(("x",)),
        states={0},
        transitions={(0, "a"): (("x",), 0), (0, "b"): (("x", "x"), 0)},
        initial=0,
        finals={0},
    )
    with pytest.raises(NotLetterToLetterError, match="budget of 3 "):
        kernel_transducer(m)


def test_kernel_budget_admits_exactly_the_squared_states():
    from kernseq.decision import decide_kerseq_ll

    # the minimal agree-except-last-3 witness has 8 states, and its square
    # all 64 pairs of them, none pending; the budget sized from the
    # machine builds it in full
    witness = decide_kerseq_ll(build_agree_except_last(3)).witness
    assert len(witness.states) == 8
    assert len(kernel_transducer(witness).nfa.states) == 64


def test_kernel_of_eliminated_machine_within_its_lag(a_parity):
    flat = eliminate_final_output(hand_machine())  # two final-output classes
    assert language_equal(kernel_transducer(flat).nfa, a_parity.nfa)
    assert length_collision(flat) is None


@pytest.mark.parametrize(
    "states, transitions, finals",
    [
        # a loop: pumping it changes the length difference
        ({0}, {(0, "a"): (("x",), 0), (0, "b"): (("x", "x"), 0)}, {0}),
        # no loop: a and bb both give x
        (
            {0, 1, 2, 3},
            {(0, "a"): (("x",), 1), (0, "b"): ((), 2), (2, "b"): (("x",), 3)},
            {1, 3},
        ),
    ],
    ids=["loop", "no-loop"],
)
def test_length_collision_finds_inputs_of_different_lengths(
    full_ab, states, transitions, finals
):
    m = SequentialTransducer(
        input_alphabet=AB,
        output_alphabet=Alphabet(("x",)),
        states=states,
        transitions=transitions,
        initial=0,
        finals=finals,
    )
    u, v = length_collision(m)
    assert len(u) != len(v) and m.run(u) == m.run(v)
    # relations here relate words of equal length only, so the collision
    # separates the kernel from every one of them
    assert kernel_counterexample(m, full_ab) == (u, v)


@pytest.mark.parametrize(
    "transitions, finals, dead, collides",
    [
        # x^k only on a^k; were state 9 final, b and aa would both give xx
        ({(0, "a"): (("x",), 0)}, {0}, {(0, "b"): (("x", "x"), 9)}, False),
        # a and bb both give x; were state 9 final, ab and a would too
        (
            {(0, "a"): (("x",), 1), (0, "b"): ((), 2), (2, "b"): (("x",), 3)},
            {1, 3},
            {(1, "b"): ((), 9)},
            True,
        ),
    ],
    ids=["none", "no-loop"],
)
def test_length_collision_ignores_a_branch_that_cannot_accept(
    transitions, finals, dead, collides
):
    def machine(moves):
        return SequentialTransducer(
            input_alphabet=AB,
            output_alphabet=Alphabet(("x",)),
            states={0, 1, 2, 3, 9},
            transitions=moves,
            initial=0,
            finals=finals,
        )

    pair = length_collision(machine(transitions))
    assert (pair is not None) == collides
    # state 9 loops on both letters without output and is never final
    loops = {(9, "a"): ((), 9), (9, "b"): ((), 9)}
    assert length_collision(machine({**transitions, **dead, **loops})) == pair


def graded_or_not(rng):
    """A random sequential machine of 1-4 live states over a and b, and maybe
    a dead branch, with outputs over x and maybe y.

    Each move between live states p and q outputs c + φ(q) − φ(p) letters
    for a c of 1-3 and a potential φ drawn below c (graded), up to c (a
    span of c, which may collide), or any 0-3 letters (lagging). About one
    move in six is missing. A dead state, never final, loops on both
    letters, and some live moves lead into it with 0-4 letters.
    """
    kind = rng.choice(("graded", "span c", "lagging"))
    c = rng.randint(1, 3)
    n = rng.randint(1, 4)
    phi = [rng.randrange(c + (kind == "span c")) for _ in range(n)]
    outputs = ("x", "y")[: rng.randint(1, 2)]
    dead = n if rng.random() < 0.4 else None

    def word(size):
        return tuple(rng.choice(outputs) for _ in range(size))

    transitions = {}
    for p in range(n):
        for a in AB.letters:
            if rng.random() < 1 / 6:
                continue
            if dead is not None and rng.random() < 0.2:
                transitions[(p, a)] = word(rng.randint(0, 4)), dead
                continue
            q = rng.randrange(n)
            size = rng.randint(0, 3) if kind == "lagging" else c + phi[q] - phi[p]
            transitions[(p, a)] = word(size), q
    if dead is not None:
        transitions |= {(dead, a): (word(rng.randint(0, 2)), dead) for a in AB.letters}
    states = range(n + (dead is not None))
    return SequentialTransducer(
        input_alphabet=AB,
        output_alphabet=Alphabet(outputs),
        states=set(states),
        transitions=transitions,
        initial=0,
        finals={q for q in range(n) if rng.random() < 0.6},
    )


def test_a_length_graded_machine_has_no_length_collision():
    rng = random.Random(2024)
    seen = set()
    for _ in range(2000):
        m = graded_or_not(rng)
        graded = _length_graded(_Moves.of(m))
        pair = length_collision(m)
        if graded:
            assert pair is None
        seen.add((graded, pair is None, m.is_letter_to_letter))
    # graded machines of every kind, machines left to the full search that
    # it clears, and collisions, some with a potential spanning exactly c
    assert seen >= {(True, True, True), (True, True, False), (False, True, False), (False, False, False)}


def test_length_collision_finds_every_collision_that_enumeration_finds():
    # an independent reference: the outputs of every accepted input up to
    # length 6, read off the machine's transitions
    rng = random.Random(2024)
    found = returned = 0
    for _ in range(2000):
        m = graded_or_not(rng)
        lengths = {}  # output -> the lengths of the inputs giving it
        runs = [(m.initial, ())]  # per input of length k: its state and output
        for k in range(7):
            for q, out in runs:
                if q in m.finals:
                    lengths.setdefault(out, set()).add(k)
            runs = [
                (nxt[1], out + nxt[0])
                for q, out in runs
                for a in AB.letters
                if (nxt := m.transitions.get((q, a))) is not None
            ]
        collides = any(len(ks) > 1 for ks in lengths.values())
        pair = length_collision(m)
        if collides:
            assert pair is not None
        if pair is not None:
            u, v = pair
            assert len(u) != len(v) and m.run(u) is not None and m.run(u) == m.run(v)
        found += collides
        returned += pair is not None
    # the search also finds collisions longer than the enumeration reaches
    assert 0 < found <= returned < 2000


def test_eliminated_witnesses_are_length_graded(monkeypatch):
    from kernseq import synthesis

    searches = count_calls(monkeypatch, synthesis, "_length_collision")
    relations = [build_mod_count(k) for k in range(2, 6)] + [build_chain(k) for k in (1, 2)]
    relations += [build_agree_except_last(k) for k in range(1, 6)]
    flat = []
    for r in relations:
        verdict = decide_kerseq_lp(r)
        assert _length_graded(_Moves.of(verdict.witness))
        flat += [verdict.witness] if not verdict.witness.is_letter_to_letter else []
    # mod 2..5 and both chains fold more than one final-output class
    assert len(flat) == 6
    # so no length-collision search runs on their certification
    assert searches == []


def test_kernel_counterexample_rejects_mod_two_witness_against_mod_three():
    mod3 = build_mod_count(3)
    witness = decide_kerseq_lp(build_mod_count(2)).witness
    u, v = kernel_counterexample(witness, mod3)
    assert len(u) == len(v)
    assert (witness.run(u) == witness.run(v)) != accepts_pair_backward(mod3, u, v)


def test_kernel_counterexample_agrees_with_enumeration_on_the_suite():
    suite = default_suite(41)
    bound = 7
    enumerated = {}
    for r, other in zip(suite, suite[1:]):
        verdict = decide_kerseq_lp(r)
        for machine in (verdict.subsequential, verdict.witness):
            kernel = brute_kernel(machine, bound).pairs
            for target in (r, other):
                if id(target) not in enumerated:
                    enumerated[id(target)] = enumerate_relation(target, bound).pairs
                pair = kernel_counterexample(machine, target)
                short = pair is not None and len(pair[0]) <= bound
                assert (kernel != enumerated[id(target)]) == short
                if pair is not None:
                    u, v = pair
                    assert (machine.run(u) == machine.run(v)) != accepts_pair_backward(
                        target, u, v
                    )


def test_kernel_of_subsequential_uses_final_outputs():
    m = hand_machine()
    k = kernel_transducer(m)
    pairs = enumerate_relation(k, 4).pairs
    assert (("a",), ("a",)) in pairs
    assert (("a",), ("b",)) not in pairs  # final outputs differ
    assert (("a", "b"), ("b", "a")) in pairs


def test_eliminate_needs_at_least_one_final_state():
    base = SequentialTransducer(
        input_alphabet=AB,
        output_alphabet=Alphabet(("x",)),
        states={0},
        transitions={(0, "a"): (("x",), 0)},
        initial=0,
        finals=set(),
    )
    with pytest.raises(PreconditionError):
        eliminate_final_output(SubsequentialTransducer(base, {}))


# ---------------------------------------------------------------- matrix construction

def test_mealy_witness_for_agree_except_last_1_is_exact():
    # one coarse class per matrix: its least item is the output, and the
    # fine-class minima (1, a) and (1, b) become the rows of the successor
    m = _mealy_moves(prepare(build_agree_except_last(1))).machine()
    assert m.transitions == {
        (0, "a"): (("o1_a",), 1),
        (0, "b"): (("o1_a",), 2),
        (1, "a"): (("o1_a",), 1),
        (1, "b"): (("o1_a",), 2),
        (2, "a"): (("o2_a",), 1),
        (2, "b"): (("o2_a",), 2),
    }
    assert dict(m.provenance) == {
        0: "row 1 of ((0,),)",
        1: "row 1 of ((0, 1), (1, 0))",
        2: "row 2 of ((0, 1), (1, 0))",
    }


# one abstract pair state "d": equal letters stay on it, unequal ones leave
_STAY = {
    ("d", ("a", "a")): "d",
    ("d", ("a", "b")): "x",
    ("d", ("b", "a")): "x",
    ("d", ("b", "b")): "d",
}
_PAIRS = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]  # by pair letter position


@pytest.mark.parametrize(
    "coarse, fine, message",
    [
        (lambda q: q == "d", lambda q: False, "non-diagonal entry on its diagonal"),
        (lambda q: False, lambda q: True, "non-accepting entry"),
    ],
    ids=["off-diagonal", "non-accepting"],
)
def test_worklist_raises_on_a_broken_invariant(coarse, fine, message):
    with pytest.raises(InternalInvariantError, match=message):
        _worklist(AB, "d", lambda q: [_STAY[(q, p)] for p in _PAIRS], coarse, fine)


def test_partition_agrees_with_the_all_pairs_check():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 40)
        block = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        table = [[block[x] == block[y] for y in range(n)] for x in range(n)]
        assert _partition([bytes(row) for row in table]) == reference_partition(table, "claim")


def _rotated(targets):
    """``targets`` with every row rotated by one pair letter."""

    def rotated(entry):
        row = list(targets(entry))
        return row[1:] + row[:1]

    return rotated


# faults injected into ``_worklist``'s targets, coarse flag and fine flag
_FAULTS = {
    "fine-is-coarse": lambda targets, coarse, fine: (targets, coarse, coarse),
    "fine-always-true": lambda targets, coarse, fine: (targets, coarse, lambda q: True),
    "fine-always-false": lambda targets, coarse, fine: (targets, coarse, lambda q: False),
    "coarse-always-false": lambda targets, coarse, fine: (targets, lambda q: False, fine),
    "targets-rotated": lambda targets, coarse, fine: (_rotated(targets), coarse, fine),
    "fine-third-cleared": lambda targets, coarse, fine: (
        targets, coarse, lambda q: fine(q) and hash(q) % 3 != 0
    ),
}

_EVERY_ENTRY = ("ll", "lp", "mealy", "subsequential")
# per relation of the gate, the entry points whose witness ``_worklist`` builds
_GATED = {
    "agree-except-last-2": (lambda: build_agree_except_last(2), _EVERY_ENTRY),
    "agree-except-last-3": (lambda: build_agree_except_last(3), _EVERY_ENTRY),
    "mod-3": (lambda: build_mod_count(3), ("lp", "subsequential")),
    "chain-1": (lambda: build_chain(1), ("lp", "subsequential")),
}


@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("name", _GATED)
def test_a_faulted_matrix_construction_is_refused_or_certified(monkeypatch, name, fault):
    # every call ends in InternalInvariantError or in machines whose kernel
    # is the relation, within 5 s and never at a cap
    build, entries = _GATED[name]
    r = build()
    pplus = decide_kerseq_lp(r).closure.closure  # the searched closure, built unfaulted

    def lp():
        verdict = decide_kerseq_lp(r)
        return verdict.witness, verdict.subsequential

    calls = {
        "ll": lambda: (decide_kerseq_ll(r).witness,),
        "lp": lp,
        "mealy": lambda: (synthesize_mealy(r),),
        "subsequential": lambda: (synthesize_subsequential(r, pplus),),
    }
    worklist = synthesis._worklist
    faulted = []

    def inject(inputs, initial_entry, targets, coarse_final, fine_final, tag=None):
        faulted.append(fault)
        return worklist(inputs, initial_entry, *_FAULTS[fault](targets, coarse_final, fine_final), tag)

    monkeypatch.setattr(synthesis, "_worklist", inject)
    for entry in entries:
        del faulted[:]
        start = time.perf_counter()
        try:
            machines = calls[entry]()
        except InternalInvariantError:
            machines = ()
        assert time.perf_counter() - start < 5, entry
        assert faulted, entry
        # the matrix check stops a construction whose entries are not coarse-final
        assert not (machines and fault == "coarse-always-false"), entry
        for m in machines:
            assert kernel_counterexample(m, r) is None, entry


@pytest.mark.parametrize(
    "build, synthesize",
    [
        (lambda: build_agree_except_last(3), lambda r, _pplus: synthesize_mealy(r)),
        (lambda: build_mod_count(3), synthesize_subsequential),
    ],
    ids=["mealy", "subsequential"],
)
def test_the_synthesizers_certify_what_they_return(monkeypatch, build, synthesize):
    r = build()
    pplus = decide_kerseq_lp(r).closure.closure  # the searched closure
    minimal = synthesis._minimal
    flipped = []

    def flip(t):
        # the minimal table with the output code of state 0 on its first letter changed
        t = minimal(t)
        t.codes = [row[:] for row in t.codes]
        t.codes[0][0] = (t.codes[0][0] + 1) % len(t.words)
        flipped.append(t)
        return t

    monkeypatch.setattr(synthesis, "_minimal", flip)
    with pytest.raises(InternalInvariantError, match="kernel differs from input"):
        synthesize(r, pplus)
    assert len(flipped) == 1


def _walked_relations():
    """The relations whose constructions both reference tests compare."""
    rng = random.Random(7)
    return (
        [build_mod_count(k) for k in (2, 3, 4, 5)]
        + [build_agree_except_last(k) for k in (1, 2, 3, 4, 5)]
        + [build_chain(k) for k in (1, 2)]
        + [build_b_c_at_zero(k) for k in (1, 2, 3, 5)]
        + [build_last_a(), build_c_singletons(), build_a_parity()]
        + default_suite(200, seed=7)
        + [random_equivalence(rng, letters=("a", "b", "c")) for _ in range(200)]
    )


def _worklist_args(prep, inputs, initial_entry, targets, final, tag=None):
    """The arguments of the ``_worklist`` call that a ``_walk`` call on
    ``prep`` stands for: the Mealy construction's on a pair-DFA state, and
    the subsequential one's on a pair of states."""
    r_diag = prep.diagonal
    if not isinstance(initial_entry, tuple):
        return inputs, initial_entry, targets, final, r_diag.__contains__
    return inputs, initial_entry, targets, final, lambda q: q[0] in r_diag, tag


def _reference_built(inputs, initial_entry, targets, coarse_final, fine_final, tag=None):
    """The machine that ``reference_worklist`` and ``reference_machine``
    build from the arguments of a ``_worklist`` call, checking each
    diagonal by ``fine_final`` as ``_check_matrix`` does: with ``tag``,
    the subsequential one whose final outputs ``tag`` gives the rows."""
    found = reference_worklist(
        inputs.letters, initial_entry, targets, coarse_final, fine_final, fine_final
    )
    matrices, order, _transitions, l_max = found
    if tag is None:
        return reference_machine(inputs, found)
    body = reference_machine(inputs, found, (f"t{j}" for j in range(1, l_max + 1)))
    final_output = {sid: tag(matrices[mi][row - 1]) for sid, (mi, row) in enumerate(order)}
    return SubsequentialTransducer(body, final_output)


def _table_facts(t):
    """Every field of a table, with the provenance of every state."""
    return (
        t.inputs, t.outputs, t.words, t.codes, t.targets, t.tags, t.sub, t.names,
        [t.render(q) for q in range(len(t.codes))],
    )


def _spy_walks(monkeypatch, compare):
    """Call ``compare(args, found)`` on each ``_walk`` call and its result."""
    walk = synthesis._walk

    def spy(*args):
        found = walk(*args)
        compare(args, found)
        return found

    monkeypatch.setattr(synthesis, "_walk", spy)


def test_worklist_builds_what_the_reference_builds(monkeypatch):
    built = []
    worklist = synthesis._worklist

    def both(*args):
        found = worklist(*args)
        assert _facts(found.machine()) == _facts(_reference_built(*args))
        built.append(len(found.words) // len(found.inputs))  # the largest dimension
        return found

    def walked(args, found):
        assert _facts(found.machine()) == _facts(_reference_built(*_worklist_args(prep, *args)))
        built.append(len(found.words) // len(found.inputs))

    monkeypatch.setattr(synthesis, "_worklist", both)
    _spy_walks(monkeypatch, walked)
    for r in _walked_relations():
        prep = prepare(r)
        decide_kerseq_ll(r)
        decide_kerseq_lp(r)
    assert len(built) > 600 and max(built) == 32


def test_walk_builds_what_the_worklist_builds(monkeypatch):
    from cosequential import SLOW_CLOSURE, cosequential_suite

    walks = []

    def walked(args, found):
        assert _table_facts(found) == _table_facts(_worklist(*_worklist_args(prep, *args)))
        walks.append(len(found.codes))

    _spy_walks(monkeypatch, walked)
    relations = _walked_relations()
    relations += [r for i, r in enumerate(cosequential_suite()) if i != SLOW_CLOSURE]
    for r in relations:
        prep = prepare(r)
        decide_kerseq_ll(r)
        decide_kerseq_lp(r)
    # the walk runs on the relations that are prefix-closed and their own
    # congruence, once for each decider
    assert len(walks) > 500 and max(walks) == 5


def _facts(m):
    """A machine with its provenance strings, which its equality skips."""
    base = m.base if isinstance(m, SubsequentialTransducer) else m
    return m, dict(base.provenance)


def test_a_supplied_closure_builds_what_the_searched_closure_builds(monkeypatch):
    walks = count_calls(monkeypatch, synthesis, "_walk")
    worklists = count_calls(monkeypatch, synthesis, "_worklist")
    congruences = 0
    for r in default_suite(200, seed=7):
        prep = prepare(r)
        if not (prep.prefix_closed and prep.own_congruence):
            continue
        congruences += 1
        searched = decide_kerseq_lp(r)
        closure = searched.closure.closure
        assert closure is prep.first_iterate[0]
        # the very closure the search found takes the walk; an equal copy
        # takes the worklist and builds the same machines
        for supplied, walked in [(closure, True), (closure.with_nfa(closure.nfa), False)]:
            del walks[:], worklists[:]
            verdict = decide_kerseq_lp(r, closure=supplied)
            assert (len(walks), len(worklists)) == (walked, not walked)
            assert _facts(verdict.witness) == _facts(searched.witness)
            assert _facts(verdict.subsequential) == _facts(searched.subsequential)
        # a closure with a larger language never takes the walk
        del walks[:], worklists[:]
        verdict = decide_kerseq_lp(r, closure=full_same_length(r.input_alphabet))
        assert verdict.outcome is Outcome.YES
        assert (len(walks), len(worklists)) == (0, 1)
    assert congruences > 100


@pytest.mark.parametrize(
    "matrix",
    [
        ((0, 2), (2, 0)),  # a non-accepting entry
        ((0, 1), (0, 3)),  # a bad diagonal entry
        ((0, 2), (1, 3)),  # both, the non-accepting one first
    ],
    ids=["non-accepting", "diagonal", "non-accepting-first"],
)
def test_check_matrix_names_the_first_bad_cell_as_the_reference_does(matrix):
    def coarse_final(q):
        return q != 2

    def fine_final(q):
        return q == 0

    with pytest.raises(InternalInvariantError) as expected:
        reference_check_matrix(matrix, coarse_final, fine_final)
    with pytest.raises(InternalInvariantError) as got:
        _check_matrix(matrix, coarse_final, fine_final)
    assert str(got.value) == str(expected.value)
    _check_matrix(((0, 1), (1, 0)), coarse_final, fine_final)
