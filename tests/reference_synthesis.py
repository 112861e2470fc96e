"""The witness stages on machine objects, kept as a test reference.

The library builds, minimizes, eliminates and certifies each witness on
one integer move table (``kernseq.synthesis._Moves``) and constructs
each returned machine once. These are the stages it must agree with,
field for field and provenance string for provenance string: the
matrix worklist returning its matrices, states and transitions
(``reference_worklist``), the machine of its result
(``reference_machine``), Moore minimization of a machine
(``reference_minimal_machine``) and final-output elimination of one
(``reference_eliminate_final_output``), each rebuilding a machine from
the last. ``reference_ll`` and ``reference_lp`` chain them as the
deciders do.
"""

from kernseq.automata import Alphabet, explore, refine
from kernseq.errors import DimensionCapError, InternalInvariantError, PreconditionError
from kernseq.machines import SequentialTransducer, SubsequentialTransducer
from kernseq.relations import prepare
from kernseq.synthesis import ENTRY_CAP, STATE_CAP, _partition
from kernseq.transducers import diagonal_states, pair_dfa


def reference_check_matrix(matrix, coarse_final, diag_ok):
    """The cell-by-cell check of a matrix, the reference of ``_check_matrix``."""
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if not coarse_final(entry):
                raise InternalInvariantError("reachable matrix holds a non-accepting entry")
            if i == j and not diag_ok(entry):
                raise InternalInvariantError(
                    "reachable matrix holds a non-diagonal entry on its diagonal"
                )


def reference_worklist(letters, initial_entry, targets, coarse_final, fine_final, diag_ok):
    """The matrix worklist over machine objects: it returns the matrices in
    the order they were interned, the discovery-ordered states as (matrix
    index, row) pairs, transitions keyed by (state id, input letter)
    valued ((output row, output letter), successor id), and the largest
    dimension reached. Entries are cut once per input letter and each
    matrix is checked cell by cell."""
    width = len(letters)
    index: dict = {}
    matrices: list = []
    tables: dict = {}
    pieces: dict = {}
    entries = 0
    expanded = 0

    def intern(matrix):
        nonlocal entries
        mi = index.get(matrix)
        if mi is None:
            entries += len(matrix) ** 2
            if entries > ENTRY_CAP:
                raise DimensionCapError("stored matrix entries exceed safety cap")
            reference_check_matrix(matrix, coarse_final, diag_ok)
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
        lines = [
            [cells[a] for cells in map(cut, matrix_row)]
            for matrix_row in matrix
            for a in range(width)
        ]
        coarse = _partition([b"".join(p[1] for p in line) for line in lines], "coarse grouping")
        fine = _partition([b"".join(p[2] for p in line) for line in lines], "fine grouping")
        n = len(lines)
        if any(coarse[fine[x]] != coarse[x] for x in range(n)):
            raise InternalInvariantError("fine grouping does not refine coarse grouping")
        reps: dict = {}
        for x in range(n):
            if fine[x] == x:
                reps.setdefault(coarse[x], []).append(x)
        step = {}
        for minima in reps.values():
            target = intern(
                tuple(tuple(lines[x][y // width][0][y % width] for y in minima) for x in minima)
            )
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


def reference_machine(inputs, found, extra_outputs=()):
    """The machine of a ``reference_worklist`` result, every state final.

    The item (row j, letter a) is output as ``o<j>_<a>``; ``extra_outputs``
    are appended to the output alphabet. State ``sid`` has the provenance
    ``row <r> of <matrix>``.
    """
    matrices, order, transitions, l_max = found
    encode = {(j, a): f"o{j}_{a}" for j in range(1, l_max + 1) for a in inputs.letters}
    states = frozenset(range(len(order)))
    return SequentialTransducer(
        input_alphabet=inputs,
        output_alphabet=Alphabet(tuple(encode.values()) + tuple(extra_outputs)),
        states=states,
        transitions={key: ((encode[item],), dst) for key, (item, dst) in transitions.items()},
        initial=0,
        finals=states,
        provenance={sid: f"row {row} of {matrices[mi]!r}" for sid, (mi, row) in enumerate(order)},
    )


def reference_minimal_machine(m):
    """The Moore-minimal machine with the outputs of ``m``, which needs a
    move on every state and input letter (a ``KeyError`` otherwise). A
    merged state keeps the provenance of its least member, and the states
    are renumbered breadth first from the initial state."""
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
    least: dict = {}
    for n, b in enumerate(block):
        least.setdefault(b, n)

    def successors(b):
        for a, (out, dst) in zip(letters, hops[least[b]]):
            yield (a, out), block[number[dst]]

    order, edges = explore([block[number[base.initial]]], successors)
    kept = [states[least[b]] for b in order]
    provenance = base.provenance
    minimal = SequentialTransducer(
        input_alphabet=base.input_alphabet,
        output_alphabet=base.output_alphabet,
        states=frozenset(range(len(kept))),
        transitions={(sid, a): (out, dst) for sid, (a, out), dst in edges},
        initial=0,
        finals=frozenset(sid for sid, q in enumerate(kept) if q in base.finals),
        provenance=None if provenance is None else {sid: provenance[q] for sid, q in enumerate(kept)},
    )
    if not sub:
        return minimal
    return SubsequentialTransducer(
        base=minimal,
        final_output={sid: final_output[q] for sid, q in enumerate(kept) if q in base.finals},
    )


def reference_eliminate_final_output(m):
    """Final-output elimination of a subsequential machine, as
    ``kernseq.synthesis.eliminate_final_output`` documents it."""
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
    first = {base.initial: start}

    def class_of(state):
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


def _rows(nfa):
    table = nfa._table
    return lambda q: [t for (t,) in table[q]]


def reference_ll(r):
    """The witness ``decide_kerseq_ll`` returns for a relation it accepts."""
    prep = prepare(r)
    det, diag = prep.det.nfa, prep.diagonal
    (initial,) = det.initials
    found = reference_worklist(
        r.input_alphabet.letters, initial, _rows(det), det.finals.__contains__,
        diag.__contains__, diag.__contains__,
    )
    return reference_minimal_machine(reference_machine(r.input_alphabet, found))


def reference_lp(r, pplus):
    """The witness and subsequential machine ``decide_kerseq_lp`` returns
    for a relation it accepts with the closure ``pplus``."""
    prep = prepare(r)
    closure_dfa = pair_dfa(pplus)
    rdfa, pdfa = prep.det.nfa, closure_dfa.nfa
    r_diag, p_diag = prep.diagonal, diagonal_states(closure_dfa)
    r_rows, p_rows = _rows(rdfa), _rows(pdfa)
    (r0,), (p0,) = rdfa.initials, pdfa.initials
    found = reference_worklist(
        r.input_alphabet.letters,
        (r0, p0),
        lambda q: list(zip(r_rows(q[0]), p_rows(q[1]))),
        lambda q: q[1] in pdfa.finals,
        lambda q: q[0] in r_diag,
        lambda q: q[0] in r_diag and q[1] in p_diag,
    )
    matrices, order, _transitions, l_max = found
    final_output = {}
    for sid, (mi, i) in enumerate(order):
        related = [j for j, entry in enumerate(matrices[mi][i - 1], start=1) if entry[0] in rdfa.finals]
        if not related:
            raise InternalInvariantError("matrix row is not related to itself")
        final_output[sid] = f"t{min(related)}"
    body = reference_machine(r.input_alphabet, found, (f"t{j}" for j in range(1, l_max + 1)))
    sub = reference_minimal_machine(SubsequentialTransducer(base=body, final_output=final_output))
    witness = reference_eliminate_final_output(sub)
    if len(set(sub.final_output.values())) > 1:
        witness = reference_minimal_machine(witness)
    return witness, sub
