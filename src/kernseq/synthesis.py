"""Witness construction.

The central construction turns a suitable relation into an
input-deterministic machine whose kernel is that relation. A machine
state is a pair (matrix, row). The matrix is square, of pair-automaton
states: entry (i, j) is the state reached by reading the pair of the
i-th and j-th class representatives, and the row says which
representative the current input tracks. Successors are computed from
the matrix alone, so representatives never need to be materialized; the
fixed order on (row index, input letter) pairs stands in for the
lexicographic order of the representatives themselves. A successor
matrix depends only on the matrix and the class of the item read, not
on the row, so each distinct matrix is stored, checked and expanded
once, and its table of moves serves every row. The table is built from
the items (row, letter). Two items share a coarse class when reading
their pair from the entry of their rows reaches an accepting state (of
the closure, in the subsequential construction), and a fine class when
it reaches a diagonal state of the relation. Each coarse class outputs
its least item and moves to the matrix whose rows are its fine-class
minima, in order; an item moves to the row of its own fine-class
minimum.

When the relation is its own congruence (``Prepared.own_congruence``),
every coarse class is one fine class: every matrix is 1 by 1, and a
state is one entry. ``_walk`` then builds in one breadth-first walk over
entries exactly what ``_worklist``, the one general construction, would
build. The Mealy construction takes it whenever the relation is its own
congruence; the subsequential one only when, besides, the relation is
prefix-closed and the closure is the one ``Prepared.closure`` searched,
the relation's own minimal DFA, where an entry is accepting in the
closure exactly when it is diagonal in the relation.

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
Every witness leaves the package Moore-minimal: the deciders and the
``synthesize_*`` functions pass what the constructions build through
``minimal_machine``, which merges the states that give the same output
on every input, before any final-output elimination, and ``decide lp``
passes an eliminated machine with more than one final-output value
through it too: with one, it has the moves of the minimal body. The
constructions themselves keep one state per (matrix, row).

The kernels are checked exactly by ``kernel_counterexample``, whose
contract ``_kernel_counterexample`` states.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from functools import cache

from .automata import (
    Alphabet,
    Word,
    _reach,
    determinize,
    explore,
    explored,
    inclusion_counterexample,
    refine,
)
from .errors import (
    AlphabetMismatchError,
    BadClosureWitnessError,
    DimensionCapError,
    InternalInvariantError,
    NotLetterToLetterError,
    PreconditionError,
)
from .machines import SequentialTransducer, SubsequentialTransducer
from .relations import Prepared, _axioms, _finite_index, prefix_closure, prepare
from .transducers import LetterTransducer, diagonal_states, pair_alphabet, pair_dfa

# Largest number of matrix states a construction expands before it raises
# ``DimensionCapError``. States share their matrices, so the states alone
# hold little memory; ``ENTRY_CAP`` bounds what the matrices hold.
STATE_CAP = 100_000

# Largest sum of l * l over the distinct l-by-l matrices a construction
# stores before it raises ``DimensionCapError``, counted as each matrix is
# first reached. An entry of the subsequential product holds a fresh pair
# of states, about 80 bytes with its slot, so the cap stands for about
# 160 MB (a Mealy entry, a shared int, costs less). A finite index bounds
# the matrices; when a precondition is broken (an infinite index) this
# cap ends the construction before memory runs out. Agree-except-last-9
# needs 349,525 entries.
ENTRY_CAP = 2_000_000

def _partition(rows, what):
    """Each item's least class member under a claimed equivalence, verified.

    Items are numbered in the fixed order and ``rows[x]`` is the claim for
    item x as ``bytes``: byte y is 1 when x relates to y, else 0. The claim
    is an equivalence exactly when every row is the indicator of the items
    with an equal row; those items are then a class, and the first of them
    is its least member.
    """
    first: dict = {}  # distinct row -> the first item with it
    least = [first.setdefault(row, x) for x, row in enumerate(rows)]
    indicator = {row: bytearray(len(rows)) for row in first}
    for x, row in enumerate(rows):
        indicator[row][x] = 1
    if any(indicator[row] != row for row in first):
        raise InternalInvariantError(
            f"{what} is not an equivalence relation on successor items; "
            "a synthesis precondition does not actually hold"
        )
    return least


def _check_matrix(matrix, coarse_final, diag_ok):
    """Raise unless every entry is coarse-final and every diagonal entry
    ``diag_ok``. Each distinct entry is tested once; only a failing
    matrix is scanned row-major, to name its first bad cell."""
    for entry in set().union(*matrix):
        if not coarse_final(entry):
            break
    else:
        for entry in {row[i] for i, row in enumerate(matrix)}:
            if not diag_ok(entry):
                break
        else:
            return
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
    targets,
    coarse_final,
    fine_final,
    diag_ok,
):
    """Explore (matrix, row) states breadth-first from the 1-by-1 start matrix.

    ``targets(entry)`` lists the entries reached from ``entry`` by pair
    letter, the pair (a, b) at position a * len(letters) + b, as in the
    rows of a pair DFA's table; it is called once per distinct entry.
    Each distinct matrix is interned once, checked once and, on its
    first expansion, given a table of moves for all of its rows. The
    items (row, letter) are grouped twice by the entry reached on reading
    the pair of two items: by ``coarse_final`` and, finer, by
    ``fine_final``. Each distinct entry and input letter a is cut once
    into a piece: its targets on (a, b) by b, and their two flags as
    ``bytes``; the claims of an item (row i, letter a) about every item
    are the join of the pieces of row i's entries on a. Each coarse class
    outputs its least item and steps to the matrix whose rows are its
    fine-class minima, in order; an item moves to the row of its
    fine-class minimum. Returns the matrices in the order they were
    interned, the discovery-ordered states as (matrix index, row) pairs,
    transitions keyed by (state id, input letter) valued ((output row,
    output letter), successor id), and the largest dimension reached.
    """
    width = len(letters)
    index: dict = {}
    matrices: list = []
    tables: dict = {}
    pieces: dict = {}  # entry -> per input letter: (targets, coarse flags, fine flags)
    entries = 0
    expanded = 0

    def intern(matrix):
        nonlocal entries
        mi = index.get(matrix)
        if mi is None:
            entries += len(matrix) ** 2
            if entries > ENTRY_CAP:
                raise DimensionCapError("stored matrix entries exceed safety cap")
            _check_matrix(matrix, coarse_final, diag_ok)
            mi = index[matrix] = len(matrices)
            matrices.append(matrix)
        return mi

    def cut(entry):
        found = pieces.get(entry)
        if found is None:
            row = targets(entry)
            parts = [row[a * width : (a + 1) * width] for a in range(width)]
            found = pieces[entry] = [
                (part, bytes(map(coarse_final, part)), bytes(map(fine_final, part)))
                for part in parts
            ]
        return found

    def moves(matrix):
        # item (row i, letter a) is number (i - 1) * width + a, and lines[x]
        # lists its pieces, one per entry of its matrix row, cut once per row
        lines = [line for matrix_row in matrix for line in zip(*map(cut, matrix_row))]
        coarse = _partition([b"".join([p[1] for p in line]) for line in lines], "coarse grouping")
        fine = _partition([b"".join([p[2] for p in line]) for line in lines], "fine grouping")
        n = len(lines)
        if any(coarse[fine[x]] != coarse[x] for x in range(n)):
            raise InternalInvariantError("fine grouping does not refine coarse grouping")
        reps: dict = {}  # least item of each coarse class -> its fine-class minima
        for x in range(n):
            if fine[x] == x:
                reps.setdefault(coarse[x], []).append(x)
        step = {}  # fine-class minimum -> (successor matrix index, row)
        for minima in reps.values():
            at = [divmod(y, width) for y in minima]  # (entry, letter) of each minimum
            target = intern(tuple(tuple(lines[x][j][0][b] for j, b in at) for x in minima))
            step.update((rep, (target, m)) for m, rep in enumerate(minima, start=1))
        item = [(x // width + 1, letters[x % width]) for x in range(n)]
        return [(item[coarse[x]], step[fine[x]]) for x in range(n)]

    def successors(node):
        nonlocal expanded
        expanded += 1
        if expanded > STATE_CAP:
            raise DimensionCapError("matrix state count exceeds safety cap")
        mi, row = node
        if mi not in tables:
            tables[mi] = moves(matrices[mi])
        table = tables[mi]
        for a, letter in enumerate(letters):
            out, nxt = table[(row - 1) * width + a]
            yield (letter, out), nxt

    order, edges = explore([(intern(((initial_entry,),)), 1)], successors)
    transitions = {(sid, a): (out, dst) for sid, (a, out), dst in edges}
    return matrices, order, transitions, max(map(len, matrices))


def _walk(letters, initial_entry, targets, final):
    """``_worklist`` when every coarse class is one fine class, in one walk.

    That is so when ``coarse_final`` and ``fine_final`` agree on every
    entry that a reached entry leads to, and ``final`` is both. Every
    matrix is then 1 by 1, a single entry e, and a state is e: on input a
    it outputs item (1, m), with m the least letter for which the pair
    (a, m) leads from e to a ``final`` entry, and it moves to the entry
    that (m, m) leads to. One breadth-first walk over entries returns
    exactly ``_worklist``'s result: the first entries reached in the order
    of a are reached in the order of m, the order in which ``_worklist``
    interns the matrices, and state n is matrix n, row 1. It charges
    ``STATE_CAP`` and ``ENTRY_CAP`` as ``_worklist`` does, one per entry
    expanded and one per entry stored. It checks no matrix and no
    grouping: what it builds is certified by the kernel check.
    """
    width = len(letters)
    number: dict = {}  # entry -> its state
    entries: list = []

    def reach(entry):
        n = number.get(entry)
        if n is None:
            if len(entries) >= ENTRY_CAP:
                raise DimensionCapError("stored matrix entries exceed safety cap")
            n = number[entry] = len(entries)
            entries.append(entry)
        return n

    reach(initial_entry)
    transitions = {}
    for sid, entry in enumerate(entries):  # entries grows while it is walked
        if sid >= STATE_CAP:
            raise DimensionCapError("matrix state count exceeds safety cap")
        row = targets(entry)
        for a, letter in enumerate(letters):
            m = next(b for b in range(width) if final(row[a * width + b]))
            transitions[(sid, letter)] = ((1, letters[m]), reach(row[m * width + m]))
    return [((e,),) for e in entries], [(n, 1) for n in range(len(entries))], transitions, 1


def _targets(nfa):
    """Per state of a complete DFA, its successors by letter position."""
    table = nfa._table
    return lambda q: [t for (t,) in table[q]]


class _Provenance(Mapping):
    """State id to its provenance string, rendered when it is read."""

    def __init__(self, render, count):
        self._render, self._count = render, count

    def __getitem__(self, sid):
        if sid not in range(self._count):
            raise KeyError(sid)
        return self._render(sid)

    def __len__(self):
        return self._count

    def __iter__(self):
        return iter(range(self._count))


def _machine(inputs: Alphabet, found, extra_outputs=()) -> SequentialTransducer:
    """The machine of a ``_worklist`` result, every state final.

    The item (row j, letter a) is output as ``o<j>_<a>``; ``extra_outputs``
    are appended to the output alphabet. State ``sid`` has the provenance
    ``row <r> of <matrix>``.
    """
    matrices, order, transitions, l_max = found
    encode = {(j, a): f"o{j}_{a}" for j in range(1, l_max + 1) for a in inputs.letters}
    states = frozenset(range(len(order)))

    def render(sid):
        mi, row = order[sid]
        return f"row {row} of {matrices[mi]!r}"

    return SequentialTransducer(
        input_alphabet=inputs,
        output_alphabet=Alphabet(tuple(encode.values()) + tuple(extra_outputs)),
        states=states,
        transitions={key: ((encode[item],), dst) for key, (item, dst) in transitions.items()},
        initial=0,
        finals=states,
        provenance=_Provenance(render, len(order)),
    )


def minimal_machine(m):
    """The Moore-minimal machine with the outputs of a synthesized machine.

    ``m`` is a ``SequentialTransducer`` or a ``SubsequentialTransducer``
    with a move on every state and input letter, as every machine of
    ``_worklist`` and every result of ``eliminate_final_output`` on one
    has. Two states merge when every input gives the same output from
    both, ends in both or in neither, and (subsequential machines) with
    the same final output. The refinement is
    ``automata.refine``, started from each state's finality, final
    output and output per input letter. A merged state keeps the
    provenance of its least member, and the states are renumbered
    breadth first from the initial state. The result gives the same
    output as ``m`` on every input, so it has the same kernel.
    """
    sub = isinstance(m, SubsequentialTransducer)
    base = m.base if sub else m
    final_output = m.final_output if sub else {}
    letters = base.input_alphabet.letters
    states = sorted(base.states)
    number = {q: n for n, q in enumerate(states)}
    hops = [[base.transitions[(q, a)] for a in letters] for q in states]
    block, _ = refine(
        [
            (q in base.finals, final_output.get(q), *(out for out, _dst in row))
            for q, row in zip(states, hops)
        ],
        [[number[dst] for _out, dst in row] for row in hops],
    )
    least: dict = {}  # block -> its least member, by number
    for n, b in enumerate(block):
        least.setdefault(b, n)

    def successors(b):
        for a, (out, dst) in zip(letters, hops[least[b]]):
            yield (a, out), block[number[dst]]

    order, edges = explore([block[number[base.initial]]], successors)
    kept = [states[least[b]] for b in order]  # per new state, the state it keeps
    provenance = base.provenance
    minimal = SequentialTransducer(
        input_alphabet=base.input_alphabet,
        output_alphabet=base.output_alphabet,
        states=frozenset(range(len(kept))),
        transitions={(sid, a): (out, dst) for sid, (a, out), dst in edges},
        initial=0,
        finals=frozenset(sid for sid, q in enumerate(kept) if q in base.finals),
        provenance=None
        if provenance is None
        else _Provenance(lambda sid: provenance[kept[sid]], len(kept)),
    )
    if not sub:
        return minimal
    return SubsequentialTransducer(
        base=minimal,
        final_output={sid: final_output[q] for sid, q in enumerate(kept) if q in base.finals},
    )


def synthesize_mealy(r: LetterTransducer) -> SequentialTransducer:
    """Letter-to-letter sequential machine whose kernel is exactly r.

    Requires r to be a length-preserving equivalence, prefix-closed,
    with finitely many congruence classes inside each class of r; those
    conditions are verified first, then ``mealy_machine`` builds it.
    """
    prep = prepare(r)
    if not prep.prefix_closed:
        raise PreconditionError("relation is not prefix-closed")
    if not prep.finite_index:
        raise PreconditionError(
            "syntactic congruence has infinite index with respect to the relation"
        )
    return minimal_machine(mealy_machine(prep))


def mealy_machine(prep: Prepared) -> SequentialTransducer:
    """The matrix construction of ``synthesize_mealy``, without its checks.

    The relation must be prefix-closed with finite congruence index, as
    ``decide_kerseq_ll`` establishes before calling it. The matrix
    dimension is not capped, since a finite index bounds it; more than
    ``STATE_CAP`` states or ``ENTRY_CAP`` stored matrix entries raise
    ``DimensionCapError``, also when a precondition is broken. A relation
    that is its own congruence (``Prepared.own_congruence``) is built by
    ``_walk``, whose 1-by-1 matrices are the relation's pair-DFA states.
    """
    r, det, diag = prep.relation, prep.det, prep.diagonal
    finals = det.nfa.finals
    (initial,) = det.nfa.initials
    letters, targets = r.input_alphabet.letters, _targets(det.nfa)

    if prep.own_congruence:
        found = _walk(letters, initial, targets, finals.__contains__)
    else:
        found = _worklist(
            letters,
            initial,
            targets,
            lambda q: q in finals,
            lambda q: q in diag,
            lambda q: q in diag,
        )
    return _machine(r.input_alphabet, found)


def validate_closure_witness(r: LetterTransducer, closure: LetterTransducer) -> None:
    """Checks that a claimed transitive prefix-closure fixpoint is consistent.

    Verifies containment of the prefix closure, by one inclusion, and
    transitivity, by the transitivity walk of ``relations._axioms`` alone
    on the closure's complete pair DFA. The fixpoint equation follows
    from the two: composing the witness with the prefix closure stays
    inside the witness composed with itself. These are the checkable necessary
    conditions; minimality of the closure is taken on trust as part of
    the input contract. A failed check raises ``BadClosureWitnessError``
    naming a shortest offending pair (u, v), also kept as its ``pair``;
    a closure whose input and output alphabets differ raises
    ``AlphabetMismatchError``.
    """
    word = inclusion_counterexample(prefix_closure(r).nfa, closure.nfa)
    what = "does not contain the prefix closure"
    if word is None:
        if not closure.same_alphabets():
            raise AlphabetMismatchError("a closure witness needs equal input and output alphabets")
        *_, transitive = _axioms(determinize(closure.nfa), closure.input_alphabet)
        word = transitive()
        what = "is not transitive"
    if word is not None:
        pair = (tuple(x for x, _y in word), tuple(y for _x, y in word))
        raise BadClosureWitnessError(f"witness {what}: it lacks the pair {pair}", pair)


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
    prep = prepare(r)
    validate_closure_witness(r, pplus)
    if not _finite_index(prep, pplus):
        raise PreconditionError(
            "syntactic congruence has infinite index with respect to the closure"
        )
    return minimal_machine(subsequential_machine(prep, pplus))


def subsequential_machine(prep: Prepared, pplus: LetterTransducer) -> SubsequentialTransducer:
    """The matrix construction of ``synthesize_subsequential``, without its checks.

    The body runs over the product of both pair automata: outputs follow
    the closure classes, rows follow the congruence classes, and the
    final output separates closure-equal but unrelated words by the least
    related row index. ``decide_kerseq_lp`` establishes the conditions
    before calling it. A prefix-closed relation that is its own congruence
    is built by ``_walk`` when ``pplus`` is the very closure
    ``Prepared.closure`` searched (``Prepared.own_closure``); any other
    closure, a supplied one of the same language included, by
    ``_worklist``.
    """
    r, rdfa = prep.relation, prep.det
    pdfa = pair_dfa(pplus)
    r_finals = rdfa.nfa.finals
    p_finals = pdfa.nfa.finals
    (r0,) = rdfa.nfa.initials
    (p0,) = pdfa.nfa.initials
    r_targets = _targets(rdfa.nfa)
    p_targets = _targets(pdfa.nfa)
    letters = r.input_alphabet.letters

    def targets(q):
        return list(zip(r_targets(q[0]), p_targets(q[1])))

    def coarse_final(q):
        return q[1] in p_finals

    if prep.prefix_closed and prep.own_congruence and pplus is prep.own_closure:
        found = _walk(letters, (r0, p0), targets, coarse_final)
    else:
        r_diag, p_diag = prep.diagonal, diagonal_states(pdfa)
        found = _worklist(
            letters,
            (r0, p0),
            targets,
            coarse_final,
            lambda q: q[0] in r_diag,
            lambda q: q[0] in r_diag and q[1] in p_diag,
        )
    matrices, order, _transitions, l_max = found
    final_output = {}
    for sid, (mi, i) in enumerate(order):
        related = [
            j for j, entry in enumerate(matrices[mi][i - 1], start=1) if entry[0] in r_finals
        ]
        if not related:
            raise InternalInvariantError("matrix row is not related to itself")
        final_output[sid] = f"t{min(related)}"
    body = _machine(r.input_alphabet, found, (f"t{j}" for j in range(1, l_max + 1)))
    return SubsequentialTransducer(base=body, final_output=final_output)


def eliminate_final_output(m: SubsequentialTransducer) -> SequentialTransducer:
    """Fold final outputs into repetition counts of the body outputs.

    With n distinct final-output values, every body output letter is
    repeated n times except the last one, whose repetition count encodes
    the class of the ending state. The class of the initial state is
    numbered n so that empty input needs no special treatment, and
    non-final states (none in synthesized machines) share that number.
    A state is a body state with the last body output letter, which it
    carries into its next step. With n = 1 that letter is repeated 0
    times, so each body state is one state, and its letter is the one
    it is first reached with. States are numbered breadth first; a
    state's provenance is ``str((body state, letter))``. The result is
    sequential, letter-to-letter only when n is 1, and has the same
    kernel as the input machine.
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
    start = base.output_alphabet.letters[0]
    first = {base.initial: start}  # body state -> the letter it is first reached with

    def class_of(state: int) -> int:
        if state in base.finals:
            return klass[m.final_output[state]]
        return n

    def successors(node):
        p, c = node
        for a in base.input_alphabet.letters:
            hop = base.transitions.get((p, a))
            if hop is None:
                continue
            (b,), q = hop
            first.setdefault(q, b)
            yield (a, (c,) * (n - class_of(p)) + (b,) * class_of(q)), (q, b if n > 1 else None)

    order, edges = explore([(base.initial, start if n > 1 else None)], successors)
    return SequentialTransducer(
        input_alphabet=base.input_alphabet,
        output_alphabet=base.output_alphabet,
        states=frozenset(range(len(order))),
        transitions={(sid, a): (out, dst) for sid, (a, out), dst in edges},
        initial=0,
        finals=frozenset(sid for sid, (p, _c) in enumerate(order) if p in base.finals),
        provenance={
            sid: str((p, first[p] if c is None else c)) for sid, (p, c) in enumerate(order)
        },
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


class _Squared:
    """The squared machine of ``kernel_transducer`` over integer states.

    A squared state is k = (balance × n + p) × n + q over the n machine
    states numbered 0..n-1, where a balance numbers what one run has
    emitted beyond the other in the order first met, 0 for nothing
    pending: k < n² exactly when nothing is pending. One pass over the
    machine's moves gives each state, per input-letter position, the code
    of its output word (-1 where the move is missing) and its target, as
    what a step to (p', q') adds to a squared state: p' × n on the left
    (``lefts``) and q' on the right (``rights``), each times ``scale``.
    ``successors`` is the one successor function and ``charge`` the one
    charge of the budget.
    """

    def __init__(self, f: SequentialTransducer | SubsequentialTransducer, scale: int = 1):
        if isinstance(f, SubsequentialTransducer):
            base, final_output = f.base, f.final_output
        else:
            base, final_output = f, dict.fromkeys(f.finals, True)
        states = list(base.states)
        number = {q: i for i, q in enumerate(states)}
        position = base.input_alphabet._index  # letter -> its position
        n = self.n = len(states)
        self.nn, self.scale = n * n, scale
        self.codes = [[-1] * len(position) for _ in states]
        self.lefts = [[0] * len(position) for _ in states]  # target × n × scale
        self.rights = [[0] * len(position) for _ in states]  # target × scale
        words: dict = {}  # output word -> its code
        for (q, a), (out, dst) in base.transitions.items():
            p, i = number[q], position[a]
            self.codes[p][i] = words.setdefault(out, len(words))
            self.rights[p][i] = t = number[dst] * scale
            self.lefts[p][i] = t * n
        self.words = list(words)
        self.lengths = [len(out) for out in self.words]
        self.uniform = len(set(self.lengths)) < 2  # every move outputs as many letters
        self.budget = (1 + max(self.lengths, default=0)) * self.nn
        self.held = 0
        self.expanded: set = set()  # the squared states the walk has expanded
        self.tags = [final_output.get(q) for q in states]  # None when q is not final
        self.start = number[base.initial] * (n + 1)
        self.balances = {((), 0): 0}
        self.extras = [((), ())]  # per balance: what each run has emitted beyond the other

    def balance(self, left: Word, right: Word) -> int:
        """The balance after two runs emit ``left`` and ``right``; -1 when
        neither is a prefix of the other."""
        if len(left) == len(right):
            return 0 if left == right else -1
        balance = _balance(left, right)
        if balance is None:
            return -1
        b = self.balances.get(balance)
        if b is None:
            b = self.balances[balance] = len(self.extras)
            self.extras.append(tuple(_ahead(*balance)))
        return b

    def charge(self, k: int) -> None:
        """Charge the budget for expanding squared state k."""
        left, right = self.extras[k // self.nn]
        self.held += 1 + len(left) + len(right)
        if self.held > self.budget:
            raise NotLetterToLetterError(
                f"squared machine exceeds the budget of {self.budget} "
                "states and pending output letters"
            )

    def successors(self, k: int) -> list[int]:
        """Squared state k's successors times ``scale`` by pair-letter
        position, -``scale`` where a move is missing or the outputs clash."""
        b, pq = divmod(k, self.nn)
        p, q = divmod(pq, self.n)
        left, right = self.extras[b]
        words, step, dead = self.words, self.nn * self.scale, -self.scale
        found = []
        for c1, t1 in zip(self.codes[p], self.lefts[p]):
            for c2, t2 in zip(self.codes[q], self.rights[q]):
                if c1 < 0 or c2 < 0:
                    found.append(dead)
                    continue
                b2 = self.balance(left + words[c1], right + words[c2])
                found.append(b2 * step + t1 + t2 if b2 >= 0 else dead)
        return found

    def accepting(self, k: int) -> bool:
        if k >= self.nn:
            return False
        p, q = divmod(k, self.n)
        return self.tags[p] is not None and self.tags[p] == self.tags[q]


def kernel_transducer(f: SequentialTransducer | SubsequentialTransducer) -> LetterTransducer:
    """Pairs of equal-length inputs on which a machine gives equal outputs.

    The machine is squared (Béal, Carton, Prieur, Sakarovitch, *Squaring
    transducers*, TCS 2003): a state is a pair of machine states plus the
    output one run has emitted beyond the other, tagged with the run that
    is ahead. A step on (a1, a2) appends both outputs and survives only
    if one side stays a prefix of the other. A state accepts when nothing
    is pending, both machine states are final and, for subsequential
    machines, the final letters agree. The machine is input-deterministic,
    so the result is deterministic over pair letters. Squaring runs under
    the budget of ``_kernel_counterexample`` and raises
    ``NotLetterToLetterError`` beyond it. The result is the whole kernel
    when inputs of different lengths never share an output, which
    ``length_collision`` decides.
    """
    base = f.base if isinstance(f, SubsequentialTransducer) else f
    inputs = base.input_alphabet
    alphabet = pair_alphabet(inputs, inputs)
    square = _Squared(f)

    def successors(k):
        square.charge(k)
        return ((ab, t) for ab, t in zip(alphabet.letters, square.successors(k)) if t >= 0)

    nfa = explored(alphabet, [square.start], successors, square.accepting)
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
    # the states that can reach a final state; no others are explored
    live = _reach(m.finals, ((q, p) for (p, _a), (_out, q) in m.transitions.items()))
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


def _length_graded(m: SequentialTransducer) -> bool:
    """Whether ``m`` is length-graded, so that ``length_collision(m)`` is None.

    ``m`` is length-graded when, over its live states (reachable, and
    reaching a final one), every move p → q outputs c + φ(q) − φ(p)
    letters, for one c ≥ 1 and a potential φ spanning less than c. An
    accepted input u then outputs c·|u| + φ(q) − φ(initial) letters for
    the state q it ends in, so inputs of different lengths differ in
    output length by at least c minus the span, and never share an
    output. Letter-to-letter machines are graded with c = 1 and φ ≡ 0,
    and the witnesses of ``eliminate_final_output`` with n classes with
    c = n and φ the class of a state.

    One breadth-first walk over the moves between live states gives each
    state its depth k and the output length ℓ along the walk, so φ is
    ℓ − c·k. A move off the walk's tree then needs ℓ(p) + |out| − ℓ(q)
    = c·(k(p) + 1 − k(q)), a factor that a breadth-first walk keeps
    nonnegative. The first positive factor fixes c, and every other move
    must agree; a machine whose moves fix no c is tested with c = 1,
    which may leave a graded machine to the full search, never the
    converse.
    """
    if m.is_letter_to_letter:
        return True
    live = _reach(m.finals, ((q, p) for (p, _a), (_out, q) in m.transitions.items()))
    if m.initial not in live:
        return True  # m accepts nothing
    letters = m.input_alphabet.letters
    walked = {m.initial: (0, 0)}  # state -> (depth, output length) along the walk
    order = [m.initial]
    off_tree = []  # per move off the walk's tree: (factor, output length gained)
    for p in order:  # order grows while it is walked
        k, length = walked[p]
        for a in letters:
            hop = m.transitions.get((p, a))
            if hop is None or hop[1] not in live:
                continue
            out, q = hop
            seen = walked.get(q)
            if seen is None:
                walked[q] = k + 1, length + len(out)
                order.append(q)
            else:
                off_tree.append((k + 1 - seen[0], length + len(out) - seen[1]))
    c = next((gain // factor for factor, gain in off_tree if factor), 1)
    if c < 1 or any(gain != c * factor for factor, gain in off_tree):
        return False
    phi = [length - c * k for k, length in walked.values()]
    return max(phi) - min(phi) < c


def kernel_counterexample(
    f: SequentialTransducer | SubsequentialTransducer, r: LetterTransducer
) -> tuple[Word, Word] | None:
    """A pair of inputs on which the kernel of ``f`` and the relation ``r`` disagree.

    None when the kernel equals r; otherwise the shortlex-least such pair,
    over pair letters in alphabet order, as ``_kernel_counterexample``
    finds it. r's complete pair DFA is r itself when r is complete with
    states 0..n-1, and ``pair_dfa(r)`` otherwise; the symmetry walk of
    ``relations._axioms`` on it says whether r is symmetric.
    """
    base = f.base if isinstance(f, SubsequentialTransducer) else f
    if r.nfa.alphabet != pair_alphabet(base.input_alphabet, base.input_alphabet):
        raise AlphabetMismatchError("machine inputs and relation letters differ")
    d = r.nfa
    if not d.is_complete or d.states != frozenset(range(len(d.states))):
        d = pair_dfa(r).nfa
    _reflexive, symmetric, _transitive = _axioms(d, r.input_alphabet)
    return _kernel_counterexample(f, d, symmetric() is None)


@cache
def _pair_moves(width: int) -> tuple[tuple, tuple]:
    """The moves of a node of ``_kernel_counterexample`` over ``width`` input
    letters, as (pair-letter position, a, b, bit kept) for the pair letter
    (a, b), per bit: with the bit clear every pair letter, and with it set
    the (a, b) with a ≤ b, where only (a, a) keeps it."""
    every = tuple((a * width + b, a, b, 0) for a in range(width) for b in range(width))
    ordered = tuple(
        (a * width + b, a, b, int(a == b)) for a in range(width) for b in range(a, width)
    )
    return every, ordered


def _kernel_counterexample(f, d, symmetric: bool) -> tuple[Word, Word] | None:
    """The shortlex-least pair on which the kernel of ``f`` and the relation R
    of the complete pair DFA ``d``, with states 0..m-1, disagree, or None.

    ``symmetric`` must be true only when R is symmetric. Inputs of
    different lengths with one output are looked for first, by
    ``length_collision``: R relates only words of equal length. That
    search is skipped on a length-graded machine (``_length_graded``):
    one whose live moves each output c + φ(q) − φ(p) letters, for one
    c ≥ 1 and a potential φ spanning less than c, so that inputs of
    different lengths have outputs of different lengths. Letter-to-letter
    and subsequential machines are graded, and so are eliminated
    witnesses, but for the few whose states ``minimal_machine`` merged out
    of grading.

    Then one breadth-first walk over the synchronous product of the
    squared machine of ``kernel_transducer`` with ``d`` stops at the first
    node where the two disagree on acceptance, which spells the pair. A
    product node carries one more bit, set while the two words read so
    far are equal. On a symmetric R a set bit lets the walk read only the
    pair letters (a, b) with a ≤ b, (a, a) keeping it set, and a clear bit
    every pair letter; otherwise the bit starts clear. The kernel is
    symmetric too, so a pair and its swap both disagree or neither does,
    and the shortlex-least disagreement has a < b at its first difference,
    where it has one: the ordered walk meets it, and returns the pair the
    walk over all pairs would, while expanding about half the squared
    states.

    The squared machine is never built. A node is the integer (k × m + s)
    × 2 + bit, for the squared state k of ``_Squared``, -1 when dead, and
    the state s of ``d``; the move tables hold their targets times 2m, so
    a successor node is a sum. While nothing is pending (k < n², for n
    machine states) the walk computes each successor inline from those
    tables: equal output codes go to the pair of targets, still with
    nothing pending; a missing move, or two different codes of equal
    length, goes to the dead state; only codes of different lengths
    number a balance. A squared state with output pending takes its
    successors from ``_Squared.successors``, as ``kernel_transducer``
    does.

    The budget: a squared state is charged when the walk first expands
    it, which ``_Squared.expanded`` records, 1 plus the output letters it
    holds pending, and once the charges pass (1 + longest move output) ×
    n² the walk raises ``NotLetterToLetterError``. That ends the walk on a
    machine whose two runs on equal-length inputs lag apart without
    bound, where the states and their buffers grow together. A machine
    whose moves all output the same number of letters never has output
    pending, so it expands at most n² squared states, within its budget,
    and the walk charges it nothing. Subsequential machines have
    letter-to-letter bodies. The witnesses of ``eliminate_final_output``
    fit too: with c final-output classes, runs on inputs of one length lag
    by fewer than c letters, and the pending word is fixed by the pair of
    states. When the kernel equals R the walk expands every squared state
    it reaches; when they differ, it returns the pair it meets first, also
    where the whole squared machine exceeds the budget.
    """
    base = f.base if isinstance(f, SubsequentialTransducer) else f
    if not _length_graded(base):
        pair = length_collision(base)
        if pair is not None:
            return pair
    table = d._table
    states = range(len(d.states))
    size2 = 2 * len(states)
    square = _Squared(f, size2)
    n, nn, codes, lefts, rights = square.n, square.nn, square.codes, square.lefts, square.rights
    words, lengths, tags, uniform = square.words, square.lengths, square.tags, square.uniform
    balance, charge, successors, expanded = (
        square.balance, square.charge, square.successors, square.expanded
    )
    step = nn * size2  # one balance
    width = len(base.input_alphabet)
    moves = _pair_moves(width)
    # per node remainder (state of d, bit): the targets of the state of d as
    # the nodes of squared state 0 with the bit clear, the moves, and acceptance
    d_rows = [[2 * t for (t,) in table[q]] for q in states]
    by_rest = [(d_rows[r >> 1], moves[r & 1], r >> 1 in d.finals) for r in range(size2)]
    dead = -size2
    dead_row = [dead] * (width * width)
    (d0,) = d.initials
    start = square.start * size2 + 2 * d0 + symmetric
    parent = {start: None}  # product node -> the node it was first reached from
    queue = [start]
    for node in queue:  # the queue grows while it is walked
        k, rest = divmod(node, size2)
        d_row, pair_moves, d_final = by_rest[rest]
        if 0 <= k < nn:
            p, q = divmod(k, n)
            if (tags[p] is not None and tags[p] == tags[q]) != d_final:
                break
            if k not in expanded:
                expanded.add(k)
                if not uniform:
                    charge(k)
            code1, code2, to1, to2 = codes[p], codes[q], lefts[p], rights[q]
            for at, a, b, keep in pair_moves:
                c1, c2 = code1[a], code2[b]
                if c1 == c2 >= 0:
                    nxt = to1[a] + to2[b] + d_row[at] + keep
                elif uniform or c1 < 0 or c2 < 0 or lengths[c1] == lengths[c2]:
                    nxt = dead + d_row[at] + keep
                else:
                    b2 = balance(words[c1], words[c2])
                    nxt = (b2 * step + to1[a] + to2[b] if b2 >= 0 else dead) + d_row[at] + keep
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        else:
            if d_final:
                break
            if k >= 0 and k not in expanded:
                expanded.add(k)
                charge(k)
            k_row = successors(k) if k >= 0 else dead_row
            for at, _a, _b, keep in pair_moves:
                nxt = k_row[at] + d_row[at] + keep
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
    else:
        return None
    letters = []
    while (up := parent[node]) is not None:
        k, rest = divmod(up, size2)
        d_row, pair_moves, _final = by_rest[rest]
        k_row = successors(k) if k >= 0 else dead_row
        # the first move leading there: the walk tried them in order
        letters.append(next(
            (a, b) for at, a, b, keep in pair_moves if k_row[at] + d_row[at] + keep == node
        ))
        node = up
    names = base.input_alphabet.letters
    letters.reverse()
    return tuple(names[a] for a, _b in letters), tuple(names[b] for _a, b in letters)
