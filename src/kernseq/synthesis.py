"""Witness construction.

The central construction turns a suitable relation into an
input-deterministic machine whose kernel is that relation. Machine
states are square matrices of pair-automaton states: entry (i, j) is
the state reached by reading the pair of the i-th and j-th class
representatives, and the distinguished row says which representative
the current input tracks. Successor states are computed from the matrix
alone, so representatives never need to be materialized; the fixed
order on (row index, input letter) pairs stands in for the
lexicographic order of the representatives themselves.

Three public constructions live here:

* ``synthesize_mealy``: letter-to-letter machine whose kernel equals a
  prefix-closed relation with finite congruence index.
* ``synthesize_subsequential``: machine over the product with a
  transitive prefix-closure fixpoint, plus a final-output letter that
  separates fixpoint-equivalent but unrelated words.
* ``eliminate_final_output``: folds the final outputs into repetition
  counts, trading letter-to-letter outputs for plain sequential ones
  while preserving the kernel.

The deciders, having established the preconditions, call the unchecked
constructions ``mealy_machine`` and ``subsequential_machine`` directly.

Their kernels are checked exactly by ``kernel_counterexample``, which
squares a machine with a bounded pending-output buffer
(``kernel_transducer``) and walks the product with the relation once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import Alphabet, Nfa, Word, language_equal
from .errors import (
    AlphabetMismatchError,
    BadClosureWitnessError,
    DimensionCapError,
    InternalInvariantError,
    NotLetterToLetterError,
    PreconditionError,
)
from .machines import SequentialTransducer, SubsequentialTransducer
from .relations import Prepared, prepare
from .transducers import LetterTransducer, diagonal_states, pair_alphabet, pair_dfa

STATE_CAP = 100_000

Item = tuple[int, object]  # (1-based row index, input letter)


@dataclass(frozen=True)
class MatrixState:
    """An l-by-l matrix of pair-automaton states plus a distinguished row."""

    matrix: tuple[tuple[object, ...], ...]
    row: int

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def describe(self) -> str:
        return f"row {self.row} of {self.matrix!r}"


@dataclass(frozen=True)
class SuccessorPartition:
    """How the successors of one matrix regroup into classes.

    ``items`` lists the (row, letter) pairs in the fixed order;
    ``coarse_classes`` groups them by whether the stepped pair state is
    accepting, ``fine_classes`` by whether it is diagonal. Each coarse
    class keeps the ordered minimal fine representatives that become the
    rows of the successor matrix, and its least item, which becomes the
    output letter.
    """

    items: tuple[Item, ...]
    coarse_classes: tuple[tuple[Item, ...], ...]
    fine_classes: tuple[tuple[Item, ...], ...]
    minimal_reps: tuple[tuple[Item, ...], ...]
    outputs: tuple[Item, ...]

    def coarse_index(self, item: Item) -> int:
        for ci, cls in enumerate(self.coarse_classes):
            if item in cls:
                return ci
        raise KeyError(item)


def _partition(items, related, what):
    """Group items by a claimed equivalence; verify it really is one."""
    classes: list[list] = []
    for x in items:
        for cls in classes:
            if related(x, cls[0]):
                cls.append(x)
                break
        else:
            classes.append([x])
    member = {}
    for ci, cls in enumerate(classes):
        for x in cls:
            member[x] = ci
    for x in items:
        for y in items:
            if related(x, y) != (member[x] == member[y]):
                raise InternalInvariantError(
                    f"{what} is not an equivalence relation on successor items; "
                    "a synthesis precondition does not actually hold"
                )
    return tuple(tuple(cls) for cls in classes), member


def successor_partition(
    matrix, letters, succ, coarse_final, fine_final
) -> SuccessorPartition:
    l = len(matrix)
    items = tuple((i, a) for i in range(1, l + 1) for a in letters)

    def coarse(x, y):
        return coarse_final(succ(x, y))

    def fine(x, y):
        return fine_final(succ(x, y))

    coarse_classes, coarse_member = _partition(items, coarse, "coarse grouping")
    fine_classes, fine_member = _partition(items, fine, "fine grouping")
    for cls in fine_classes:
        if len({coarse_member[x] for x in cls}) != 1:
            raise InternalInvariantError("fine grouping does not refine coarse grouping")
    first_of_fine = {}
    for x in items:  # items are in the fixed order, so first seen = class minimum
        first_of_fine.setdefault(fine_member[x], x)
    minimal_reps = tuple(
        tuple(x for x in cls if first_of_fine[fine_member[x]] == x)
        for cls in coarse_classes
    )
    outputs = tuple(cls[0] for cls in coarse_classes)
    return SuccessorPartition(items, coarse_classes, fine_classes, minimal_reps, outputs)


def _check_matrix(matrix, coarse_final, diag_ok):
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if not coarse_final(entry):
                raise InternalInvariantError(
                    "reachable matrix holds a non-accepting entry"
                )
            if i == j and not diag_ok(entry):
                raise InternalInvariantError(
                    "reachable matrix holds a non-diagonal entry on its diagonal"
                )


def _worklist(
    letters,
    initial_entry,
    delta,
    coarse_final,
    fine_final,
    diag_ok,
):
    """Explore matrix states breadth-first from the 1-by-1 start matrix.

    Returns discovery-ordered states, transitions keyed by (state id,
    input letter) valued ((output row, output letter), successor id),
    and the largest dimension reached.
    """
    start = MatrixState(((initial_entry,),), 1)
    _check_matrix(start.matrix, coarse_final, diag_ok)
    ids = {start: 0}
    order = [start]
    transitions: dict = {}
    partitions: dict = {}
    l_max = 1
    i = 0
    while i < len(order):
        mstate = order[i]
        sid = i
        i += 1
        matrix = mstate.matrix

        if matrix not in partitions:

            def succ(x, y, matrix=matrix):
                (xi, xa), (yj, yb) = x, y
                return delta(matrix[xi - 1][yj - 1], (xa, yb))

            partitions[matrix] = (successor_partition(
                matrix, letters, succ, coarse_final, fine_final
            ), succ)
        part, succ = partitions[matrix]

        for a in letters:
            item = (mstate.row, a)
            ci = part.coarse_index(item)
            reps = part.minimal_reps[ci]
            new_matrix = tuple(
                tuple(succ(x, y) for y in reps) for x in reps
            )
            fine_hits = [
                m for m, rep in enumerate(reps, start=1) if fine_final(succ(item, rep))
            ]
            if len(fine_hits) != 1:
                raise InternalInvariantError(
                    "successor item matches none or several minimal representatives"
                )
            nxt = MatrixState(new_matrix, fine_hits[0])
            if nxt not in ids:
                _check_matrix(new_matrix, coarse_final, diag_ok)
                ids[nxt] = len(order)
                order.append(nxt)
                l_max = max(l_max, nxt.dimension)
                if len(order) > STATE_CAP:
                    raise DimensionCapError("matrix state count exceeds safety cap")
            transitions[(sid, a)] = (part.outputs[ci], ids[nxt])
    return order, transitions, l_max


def _output_alphabet(l_max: int, inputs: Alphabet) -> tuple[Alphabet, dict]:
    names = []
    encode = {}
    for j in range(1, l_max + 1):
        for a in inputs.letters:
            name = f"o{j}_{a}"
            names.append(name)
            encode[(j, a)] = name
    return Alphabet(tuple(names)), encode


def synthesize_mealy(r: LetterTransducer) -> SequentialTransducer:
    """Letter-to-letter sequential machine whose kernel is exactly r.

    Requires r to be a length-preserving equivalence, prefix-closed,
    with finitely many congruence classes inside each class of r; those
    conditions are verified first, then ``mealy_machine`` builds it.
    """
    from .decision import index_is_finite

    prep = prepare(r)
    if not prep.prefix_closed:
        raise PreconditionError("relation is not prefix-closed")
    if not index_is_finite(prep.congruence, r):
        raise PreconditionError(
            "syntactic congruence has infinite index with respect to the relation"
        )
    return mealy_machine(prep)


def mealy_machine(prep: Prepared) -> SequentialTransducer:
    """The matrix construction of ``synthesize_mealy``, without its checks.

    The relation must be prefix-closed with finite congruence index, as
    ``decide_kerseq_ll`` establishes before calling it. The matrix
    dimension is not capped, since a finite index bounds it; more than
    ``STATE_CAP`` states raise ``DimensionCapError``.
    """
    r, det, diag = prep.relation, prep.det, prep.diagonal
    finals = det.nfa.finals
    (initial,) = det.nfa.initials
    step = det.nfa.step

    order, transitions, l_max = _worklist(
        r.input_alphabet.letters,
        initial,
        lambda q, pair: step(q, pair),
        lambda q: q in finals,
        lambda q: q in diag,
        lambda q: q in diag,
    )
    out_alpha, encode = _output_alphabet(l_max, r.input_alphabet)
    return SequentialTransducer(
        input_alphabet=r.input_alphabet,
        output_alphabet=out_alpha,
        states=frozenset(range(len(order))),
        transitions={
            key: ((encode[item],), dst) for key, (item, dst) in transitions.items()
        },
        initial=0,
        finals=frozenset(range(len(order))),
        provenance={i: m.describe() for i, m in enumerate(order)},
    )


def validate_closure_witness(r: LetterTransducer, closure: LetterTransducer) -> None:
    """Checks that a claimed transitive prefix-closure fixpoint is consistent.

    Verifies containment of the prefix closure, transitivity, and the
    fixpoint equation itself. These are the checkable necessary
    conditions; minimality of the closure is taken on trust as part of
    the input contract.
    """
    from .automata import includes
    from .relations import compose, prefix_closure, relation_union

    pc = prefix_closure(r)
    if not includes(pc.nfa, closure.nfa):
        raise BadClosureWitnessError("witness does not contain the prefix closure")
    if not includes(compose(closure, closure).nfa, closure.nfa):
        raise BadClosureWitnessError("witness is not transitive")
    if not language_equal(
        closure.nfa, relation_union(closure, compose(closure, pc)).nfa
    ):
        raise BadClosureWitnessError("witness is not a fixpoint of the closure step")


def synthesize_subsequential(
    r: LetterTransducer, pplus: LetterTransducer
) -> SubsequentialTransducer:
    """Subsequential letter-to-letter machine whose kernel is exactly r.

    ``pplus`` must be the transitive closure of the prefix closure of r.
    That r is an equivalence, that ``pplus`` passes
    ``validate_closure_witness`` and that the congruence index with
    respect to it is finite are verified first, then
    ``subsequential_machine`` builds it.
    """
    from .decision import index_is_finite

    prep = prepare(r)
    validate_closure_witness(r, pplus)
    if not index_is_finite(prep.congruence, pplus):
        raise PreconditionError(
            "syntactic congruence has infinite index with respect to the closure"
        )
    return subsequential_machine(prep, pplus)


def subsequential_machine(prep: Prepared, pplus: LetterTransducer) -> SubsequentialTransducer:
    """The matrix construction of ``synthesize_subsequential``, without its checks.

    The body runs over the product of both pair automata: outputs follow
    the closure classes, rows follow the congruence classes, and the
    final output separates closure-equal but unrelated words by the least
    related row index. ``decide_kerseq_lp`` establishes the conditions
    before calling it.
    """
    r, rdfa, r_diag = prep.relation, prep.det, prep.diagonal
    pdfa = pair_dfa(pplus)
    p_diag = diagonal_states(pdfa)
    r_finals = rdfa.nfa.finals
    p_finals = pdfa.nfa.finals
    (r0,) = rdfa.nfa.initials
    (p0,) = pdfa.nfa.initials
    r_step = rdfa.nfa.step
    p_step = pdfa.nfa.step

    order, transitions, l_max = _worklist(
        r.input_alphabet.letters,
        (r0, p0),
        lambda q, pair: (r_step(q[0], pair), p_step(q[1], pair)),
        lambda q: q[1] in p_finals,
        lambda q: q[0] in r_diag,
        lambda q: q[0] in r_diag and q[1] in p_diag,
    )
    out_alpha, encode = _output_alphabet(l_max, r.input_alphabet)
    final_letters = tuple(f"t{j}" for j in range(1, l_max + 1))
    full_alpha = Alphabet(out_alpha.letters + final_letters)

    final_output = {}
    for sid, mstate in enumerate(order):
        i = mstate.row
        related = [
            j
            for j in range(1, mstate.dimension + 1)
            if mstate.matrix[i - 1][j - 1][0] in r_finals
        ]
        if not related:
            raise InternalInvariantError("matrix row is not related to itself")
        final_output[sid] = f"t{min(related)}"

    body = SequentialTransducer(
        input_alphabet=r.input_alphabet,
        output_alphabet=full_alpha,
        states=frozenset(range(len(order))),
        transitions={
            key: ((encode[item],), dst) for key, (item, dst) in transitions.items()
        },
        initial=0,
        finals=frozenset(range(len(order))),
        provenance={i: m.describe() for i, m in enumerate(order)},
    )
    return SubsequentialTransducer(base=body, final_output=final_output)


def eliminate_final_output(m: SubsequentialTransducer) -> SequentialTransducer:
    """Fold final outputs into repetition counts of the body outputs.

    With n distinct final-output values, every body output letter is
    repeated n times except the last one, whose repetition count encodes
    the class of the ending state. The class of the initial state is
    numbered n so that empty input needs no special treatment, and
    non-final states (none in synthesized machines) share that number.
    The result is sequential, letter-to-letter only when n is 1, and
    has the same kernel as the input machine.
    """
    base = m.base
    if not base.finals:
        raise PreconditionError("machine accepts nothing; no final outputs to fold")
    out_order = {a: i for i, a in enumerate(base.output_alphabet.letters)}
    values = sorted({m.final_output[q] for q in base.finals}, key=out_order.__getitem__)
    n = len(values)
    initial_value = m.final_output.get(base.initial)
    if initial_value is not None:
        values = [v for v in values if v != initial_value] + [initial_value]
    klass = {v: i for i, v in enumerate(values, start=1)}

    def class_of(state: int) -> int:
        if state in base.finals:
            return klass[m.final_output[state]]
        return n

    b0 = base.output_alphabet.letters[0]
    start = (base.initial, b0)
    ids = {start: 0}
    order = [start]
    transitions = {}
    i = 0
    while i < len(order):
        p, c = order[i]
        sid = i
        i += 1
        for a in base.input_alphabet.letters:
            hop = base.transitions.get((p, a))
            if hop is None:
                continue
            (b,), q = hop
            out = (c,) * (n - class_of(p)) + (b,) * class_of(q)
            nxt = (q, b)
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            transitions[(sid, a)] = (out, ids[nxt])
    return SequentialTransducer(
        input_alphabet=base.input_alphabet,
        output_alphabet=base.output_alphabet,
        states=frozenset(range(len(order))),
        transitions=transitions,
        initial=0,
        finals=frozenset(ids[(p, c)] for (p, c) in order if p in base.finals),
        provenance={ids[pc]: str(pc) for pc in order},
    )


def _balance(left: Word, right: Word):
    """What two runs still disagree on after emitting ``left`` and ``right``.

    Returns (pending, side): the output one run has emitted beyond the
    other, and which run that is (0 left, 1 right; 0 when nothing is
    pending). None when neither output is a prefix of the other, so the
    two runs can never end on equal outputs.
    """
    n = min(len(left), len(right))
    if left[:n] != right[:n]:
        return None
    if len(left) >= len(right):
        return left[n:], 0
    return right[n:], 1


def _ahead(pending: Word, side: int) -> list[Word]:
    """The output each run has emitted beyond the other."""
    extra = [(), ()]
    extra[side] = pending
    return extra


def kernel_transducer(
    f: SequentialTransducer | SubsequentialTransducer,
    lag: int = 0,
    budget: int | None = None,
) -> LetterTransducer:
    """Pairs of equal-length inputs on which a machine gives equal outputs.

    The machine is squared (Béal, Carton, Prieur, Sakarovitch, *Squaring
    transducers*, TCS 2003): a state is a pair of machine states plus the
    output one run has emitted beyond the other, tagged with the run that
    is ahead. A step on (a1, a2) appends both outputs and survives only
    if one side stays a prefix of the other. A state accepts when nothing
    is pending, both machine states are final and, for subsequential
    machines, the final letters agree. The machine is input-deterministic,
    so the result is deterministic over pair letters.

    ``lag`` bounds the pending output: letter-to-letter and subsequential
    machines never lag, word-output machines may, and a reachable state
    lagging further raises ``NotLetterToLetterError``. ``budget``, when
    given, bounds the squared states counted together with the output
    letters they hold, and going beyond it raises the same error; it stops
    the squaring early on a machine whose lag grows without bound, where
    the states and their buffers grow together. The result is the whole
    kernel when inputs of different lengths never share an output, which
    ``length_collision`` decides.
    """
    if isinstance(f, SubsequentialTransducer):
        base = f.base

        def final_pair(p, q):
            return f.final_output[p] == f.final_output[q]

    else:
        base = f

        def final_pair(p, q):
            return True

    inputs = base.input_alphabet
    start = (base.initial, base.initial, (), 0)
    ids = {start: 0}
    order = [start]
    transitions = []
    held = 1
    i = 0
    while i < len(order):
        p, q, pending, side = order[i]
        extra = _ahead(pending, side)
        src = i
        i += 1
        for a1 in inputs.letters:
            hop1 = base.transitions.get((p, a1))
            if hop1 is None:
                continue
            left = extra[0] + hop1[0]
            for a2 in inputs.letters:
                hop2 = base.transitions.get((q, a2))
                if hop2 is None:
                    continue
                balance = _balance(left, extra[1] + hop2[0])
                if balance is None:
                    continue
                if len(balance[0]) > lag:
                    raise NotLetterToLetterError(
                        f"two runs differ by {len(balance[0])} output letters, "
                        f"above the lag bound {lag}"
                    )
                dst = (hop1[1], hop2[1]) + balance
                if dst not in ids:
                    ids[dst] = len(order)
                    order.append(dst)
                    held += 1 + len(balance[0])
                    if budget is not None and held > budget:
                        raise NotLetterToLetterError(
                            f"squared machine exceeds the budget of {budget} "
                            "states and pending output letters"
                        )
                transitions.append((src, (a1, a2), ids[dst]))
    nfa = Nfa(
        alphabet=pair_alphabet(inputs, inputs),
        states=frozenset(range(len(order))),
        transitions=frozenset(transitions),
        initials=frozenset({0}),
        finals=frozenset(
            ids[(p, q, pending, side)]
            for (p, q, pending, side) in order
            if not pending and p in base.finals and q in base.finals and final_pair(p, q)
        ),
        origins={ids[node]: str(node) for node in order},
    )
    return LetterTransducer(inputs, inputs, nfa)


def length_collision(m: SequentialTransducer) -> tuple[Word, Word] | None:
    """Two inputs of different lengths with the same output, or None.

    Both runs are explored asynchronously, always advancing the run whose
    output is behind (either run when neither is), so the pending output
    is a suffix of one step output and the exploration is finite. Every
    pair of inputs with equal outputs is read along some accepting path.
    A left move weighs +1 and a right move -1, so a collision is an
    accepting path of nonzero weight. Potentials from the start, over the
    states that reach acceptance, find one: either two paths to one state
    differ in weight, and completing both to acceptance leaves one of
    nonzero weight, or every path to a state weighs its potential and a
    collision ends in an accepting state of nonzero potential.
    """
    live = set(m.finals)  # states that can reach a final state; no others are explored
    while more := {p for (p, _a), (_out, q) in m.transitions.items() if q in live} - live:
        live |= more
    letters = m.input_alphabet.letters
    start = (m.initial, m.initial, (), 0)
    moves: dict = {start: []}
    todo = [start]
    while todo:
        node = todo.pop()
        runs = (0, 1) if not node[2] else (1 - node[3],)
        for run in runs:
            for a in letters:
                hop = m.transitions.get((node[run], a))
                if hop is None or hop[1] not in live:
                    continue
                extra = _ahead(node[2], node[3])
                extra[run] += hop[0]
                balance = _balance(*extra)
                if balance is None:
                    continue
                states = [node[0], node[1]]
                states[run] = hop[1]
                nxt = tuple(states) + balance
                moves[node].append(((run, a), nxt))
                if nxt not in moves:
                    moves[nxt] = []
                    todo.append(nxt)

    def accepting(node):
        return not node[2] and node[0] in m.finals and node[1] in m.finals

    back: dict = {}
    for node, out in moves.items():
        for move, nxt in out:
            back.setdefault(nxt, []).append((node, move))
    toward = {node: None for node in moves if accepting(node)}  # first move to acceptance
    todo = list(toward)
    while todo:
        node = todo.pop()
        for prev, move in back.get(node, ()):
            if prev not in toward:
                toward[prev] = (move, node)
                todo.append(prev)
    if start not in toward:
        return None

    def path_to(node):
        path = []
        while parent[node] is not None:
            node, move = parent[node]
            path.append(move)
        return path[::-1]

    def path_from(node):
        path = []
        while toward[node] is not None:
            move, node = toward[node]
            path.append(move)
        return path

    def spell(path):
        return tuple(a for run, a in path if run == 0), tuple(a for run, a in path if run == 1)

    potential = {start: 0}
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if accepting(node) and potential[node]:
            return spell(path_to(node))
        for move, nxt in moves[node]:
            if nxt not in toward:
                continue
            weight = potential[node] + (1 if move[0] == 0 else -1)
            if nxt not in potential:
                potential[nxt] = weight
                parent[nxt] = (node, move)
                queue.append(nxt)
            elif potential[nxt] != weight:
                tail = path_from(nxt)
                u, v = spell(path_to(node) + [move] + tail)
                if len(u) == len(v):
                    u, v = spell(path_to(nxt) + tail)
                return u, v
    return None


def kernel_counterexample(
    f: SequentialTransducer | SubsequentialTransducer,
    r: LetterTransducer,
    lag: int = 0,
    budget: int | None = None,
) -> tuple[Word, Word] | None:
    """A pair of inputs on which the kernel of ``f`` and the relation ``r`` disagree.

    None when the kernel equals r. Inputs of different lengths with one
    output are looked for first, by ``length_collision``: r relates only
    words of equal length, and letter-to-letter and subsequential
    machines have no such pairs. Then one breadth-first walk over the
    synchronous product of ``kernel_transducer(f, lag)`` with the pair
    DFA of r stops at the first pair of states that disagree on
    acceptance, which spells a shortest separating pair; r serves as
    its own pair DFA when it is complete already. Raises
    ``NotLetterToLetterError`` beyond ``lag`` or ``budget`` as
    ``kernel_transducer`` does.
    """
    base = f.base if isinstance(f, SubsequentialTransducer) else f
    if r.nfa.alphabet != pair_alphabet(base.input_alphabet, base.input_alphabet):
        raise AlphabetMismatchError("machine inputs and relation letters differ")
    if not base.is_letter_to_letter:
        pair = length_collision(base)
        if pair is not None:
            return pair
    kernel = kernel_transducer(f, lag, budget).nfa
    rdfa = r.nfa if r.nfa.is_complete else pair_dfa(r).nfa
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
        for letter in rdfa.alphabet:
            ks = kernel.successors(k, letter) if k is not None else ()
            nxt = (next(iter(ks), None), rdfa.step(d, letter))
            if nxt not in parent:
                parent[nxt] = (node, letter)
                queue.append(nxt)
    return None
