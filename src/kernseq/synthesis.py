"""Witness construction.

The central construction turns a suitable relation into an
input-deterministic machine whose kernel is that relation. A machine
state is a pair (matrix, row): the matrix holds pair-automaton states,
entry (i, j) reached by reading the pair of the i-th and j-th class
representatives, and the row says which representative the input
tracks. ``_worklist`` is the one general construction and states its
contract; ``_walk`` builds what it would, in one walk, when the
relation is its own congruence (``Prepared.own_congruence``).

Three public constructions live here:

* ``synthesize_mealy``: letter-to-letter machine whose kernel equals a
  prefix-closed relation with finite congruence index.
* ``synthesize_subsequential``: machine over the product with a
  transitive prefix-closure fixpoint, plus a final-output letter that
  separates fixpoint-equivalent but unrelated words.
* ``eliminate_final_output``: folds the final outputs into repetition
  counts, trading letter-to-letter outputs for plain sequential ones
  while preserving the kernel.

Every stage of a witness runs on one integer move table, ``_Moves``,
whose docstring states its contract: the constructions fill it from the
relation's ``Prepared.rows``, Moore minimization (``_minimal``),
final-output elimination (``_eliminated``) and the kernel check
(``_kernel_counterexample``) read it, and each returned machine is
constructed from it once (``_Moves.machine``); the public functions
read a machine into one (``_Moves.of``). Every witness leaves the
package Moore-minimal, minimized before any final-output elimination;
``decide lp`` minimizes an eliminated table with more than one
final-output value too: with one, it has the moves of the minimal body.

One design certifies what is built: the matrix check (``_check_matrix``)
stops a broken construction before the caps, the exact kernel check
(``_certify``) decides every synthesized machine, and no grouping is
re-verified.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from functools import cache

from .automata import Alphabet, Word, _breadth_first, _reach, explored, inclusion_counterexample, refine
from .errors import (
    AlphabetMismatchError,
    BadClosureWitnessError,
    DimensionCapError,
    InternalInvariantError,
    NotLetterToLetterError,
    PreconditionError,
)
from .machines import SequentialTransducer, SubsequentialTransducer, _assembled
from .relations import Prepared, _axioms, _finite_index, _prepared, prefix_closure, prepare
from .transducers import LetterTransducer, pair_alphabet

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

def _partition(rows):
    """Per item x, the first item whose claim equals its claim ``rows[x]``."""
    first: dict = {}  # distinct row -> the first item with it
    return [first.setdefault(row, x) for x, row in enumerate(rows)]


def _check_matrix(matrix, coarse_final, fine_final):
    """Raise unless every entry is coarse-final and every diagonal entry
    fine-final, testing each distinct entry once."""
    diagonal = {row[i] for i, row in enumerate(matrix)}
    for entry in set().union(*matrix):
        if not coarse_final(entry):
            raise InternalInvariantError("reachable matrix holds a non-accepting entry")
        if entry in diagonal and not fine_final(entry):
            raise InternalInvariantError("reachable matrix holds a non-diagonal entry on its diagonal")


class _Moves:
    """A machine as one integer move table, the form every witness stage reads.

    The states are 0..n-1, state 0 initial. Per state and input-letter
    position, ``codes`` holds the code of the move's output word, -1
    where there is no move, and ``targets`` the move's target, the state
    itself where there is none. ``words`` lists the word of each code,
    each word once; it may list words that no move outputs, but only of
    a length that some move outputs (a letter-to-letter table lists
    every output letter). ``tags`` holds per state None when it is not
    final, else its final-output letter in a subsequential table
    (``sub``) and True in a sequential one. ``outputs`` is the output
    alphabet, and ``render(q)`` state q's provenance string,
    unless ``render`` is None. A table that synthesis built numbers its
    states breadth first, along the moves in letter order, and its
    ``names`` is None; on one read from a machine (``of``), ``names``
    lists the machine's states by number: the initial one, then the
    others ascending. ``machine`` assembles the machine of a built table,
    unchecked (``kernseq.machines._assembled``): it is right by construction.
    """

    __slots__ = ("inputs", "outputs", "words", "codes", "targets", "tags", "sub", "render", "names")

    def __init__(self, inputs, outputs, words, codes, targets, tags, sub, render, names=None):
        self.inputs, self.outputs, self.words, self.codes = inputs, outputs, words, codes
        self.targets, self.tags, self.sub, self.render, self.names = targets, tags, sub, render, names

    @classmethod
    def of(cls, m: SequentialTransducer | SubsequentialTransducer) -> _Moves:
        sub = isinstance(m, SubsequentialTransducer)
        base = m.base if sub else m
        names = [base.initial, *sorted(base.states - {base.initial})]
        number = {q: i for i, q in enumerate(names)}
        position = base.input_alphabet._index  # letter -> its position
        codes = [[-1] * len(position) for _ in names]
        targets = [[i] * len(position) for i in range(len(names))]
        index: dict = {}  # output word -> its code
        for (q, a), (out, dst) in base.transitions.items():
            p, i = number[q], position[a]
            codes[p][i] = index.setdefault(out, len(index))
            targets[p][i] = number[dst]
        tags = m.final_output if sub else dict.fromkeys(base.finals, True)
        render = None if base.provenance is None else lambda i: base.provenance[names[i]]
        return cls(
            base.input_alphabet, base.output_alphabet, list(index), codes, targets,
            [tags.get(q) for q in names], sub, render, names,
        )

    def machine(self) -> SequentialTransducer | SubsequentialTransducer:
        letters, words, n = self.inputs.letters, self.words, len(self.codes)
        finals = [q for q, tag in enumerate(self.tags) if tag is not None]
        body = _assembled(
            SequentialTransducer,
            self.inputs,
            self.outputs,
            frozenset(range(n)),
            {
                (q, a): (words[c], t) for q, (row, to) in enumerate(zip(self.codes, self.targets))
                for a, c, t in zip(letters, row, to) if c >= 0
            },
            0,
            frozenset(finals),
            None if self.render is None else _Provenance(self.render, n),
        )
        if not self.sub:
            return body
        return _assembled(SubsequentialTransducer, body, {q: self.tags[q] for q in finals})


def _table(inputs: Alphabet, l_max, codes, targets, render, rows, tag) -> _Moves:
    """A construction's table, every state final; with ``tag``, subsequential,
    state q's final output ``tag(rows[q])``, of its matrix row."""
    outputs, words = _encoding(inputs, l_max, tag is not None)
    tags = [True] * len(codes) if tag is None else list(map(tag, rows))
    return _Moves(inputs, outputs, words, codes, targets, tags, tag is not None, render)


@cache
def _encoding(inputs: Alphabet, l_max: int, sub: bool) -> tuple[Alphabet, list]:
    """The output alphabet of a construction whose matrices have up to l_max
    rows, and its words by code, built once: item (row j, letter a), code
    (j - 1) × width + a, is output as ``o<j>_<a>``, and a subsequential
    construction appends its final outputs ``t1``..``t<l_max>``."""
    items = tuple(f"o{j}_{a}" for j in range(1, l_max + 1) for a in inputs.letters)
    extra = tuple(f"t{j}" for j in range(1, l_max + 1)) if sub else ()
    return Alphabet(items + extra), tuple((o,) for o in items)


def _worklist(inputs, initial_entry, targets, coarse_final, fine_final, tag=None):
    """Explore (matrix, row) states breadth-first from the 1-by-1 start matrix.

    ``targets(entry)`` lists the entries reached from ``entry`` by pair
    letter, the pair (a, b) at position a * len(inputs) + b, as in the
    rows of a pair DFA's table; it is called once per distinct entry.
    Each distinct matrix is interned once, checked once by
    ``_check_matrix`` and, on its first expansion, given a table of moves
    for all of its rows. The items (row, letter) are grouped twice by the
    entry reached on reading the pair of two items: by ``coarse_final``
    and, finer, by ``fine_final``, each grouping taken as claimed. Each
    distinct entry and input letter a is cut once into a piece: its
    targets on (a, b) by b, and their two flags as ``bytes``; the claims
    of an item (row i, letter a) about every item are the join of the
    pieces of row i's entries on a. Each coarse class
    outputs its least item and steps to the matrix whose rows are its
    fine-class minima, in order; an item moves to the row of its
    fine-class minimum. Returns the ``_table`` of the states in discovery
    order, state q's provenance ``row <r> of <matrix>``, with the largest
    dimension reached as l_max and ``tag`` as given.
    """
    width = len(inputs)
    index: dict = {}
    matrices: list = []
    tables: dict = {}
    pieces: dict = {}  # entry -> per input letter: (targets, coarse flags, fine flags)
    entries = 0

    def intern(matrix):
        nonlocal entries
        mi = index.get(matrix)
        if mi is None:
            entries += len(matrix) ** 2
            if entries > ENTRY_CAP:
                raise DimensionCapError("stored matrix entries exceed safety cap")
            _check_matrix(matrix, coarse_final, fine_final)
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
        coarse = _partition([b"".join([p[1] for p in line]) for line in lines])
        fine = _partition([b"".join([p[2] for p in line]) for line in lines])
        n = len(lines)
        reps: dict = {}  # least item of each coarse class -> its fine-class minima
        for x in range(n):
            if fine[x] == x:
                reps.setdefault(coarse[x], []).append(x)
        step = {}  # fine-class minimum -> (successor matrix index, row)
        for minima in reps.values():
            at = [divmod(y, width) for y in minima]  # (entry, letter) of each minimum
            target = intern(tuple(tuple(lines[x][j][0][b] for j, b in at) for x in minima))
            step.update((rep, (target, m)) for m, rep in enumerate(minima, start=1))
        # per item, in two lists: the code of its coarse class's least item, and its successor
        return coarse, [step[fine[x]] for x in range(n)]

    codes = []

    def successors(state):  # (matrix index, row)
        if len(codes) >= STATE_CAP:
            raise DimensionCapError("matrix state count exceeds safety cap")
        mi, row = state
        table = tables.get(mi)
        if table is None:
            table = tables[mi] = moves(matrices[mi])
        lo = (row - 1) * width
        codes.append(table[0][lo : lo + width])
        return table[1][lo : lo + width]

    order, moved = _breadth_first((intern(((initial_entry,),)), 1), successors)

    def render(q):
        mi, row = order[q]
        return f"row {row} of {matrices[mi]!r}"

    rows = [matrices[mi][row - 1] for mi, row in order] if tag else None
    return _table(inputs, max(map(len, matrices)), codes, moved, render, rows, tag)


def _walk(inputs, initial_entry, targets, final, tag=None):
    """``_worklist`` when every coarse class is one fine class, in one walk.

    That is so when ``coarse_final`` and ``fine_final`` agree on every
    entry that a reached entry leads to, and ``final`` is both. Every
    matrix is then 1 by 1, a single entry e, and a state is e: on input a
    it outputs item (1, m), with m the least letter for which the pair
    (a, m) leads from e to a ``final`` entry, and it moves to the entry
    that (m, m) leads to. One breadth-first walk over entries returns
    exactly ``_worklist``'s table: the first entries reached in the order
    of a are reached in the order of m, the order in which ``_worklist``
    interns the matrices, and state n is matrix n, row 1. It charges
    ``STATE_CAP`` and ``ENTRY_CAP`` as ``_worklist`` does, one per entry
    expanded and one per entry stored. It checks no matrix.
    """
    width = len(inputs)
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
    codes, moved = [], []
    for sid, entry in enumerate(entries):  # entries grows while it is walked
        if sid >= STATE_CAP:
            raise DimensionCapError("matrix state count exceeds safety cap")
        row = targets(entry)
        flags = list(map(final, row))  # per pair letter (a, b), at a × width + b
        codes.append([flags.index(True, a, a + width) - a for a in range(0, width * width, width)])
        moved.append([reach(row[m * width + m]) for m in codes[-1]])  # item (1, m) on letter a

    def render(q):
        return f"row 1 of {((entries[q],),)!r}"

    rows = [(entry,) for entry in entries] if tag else None
    return _table(inputs, 1, codes, moved, render, rows, tag)


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


def _minimal(t: _Moves) -> _Moves:
    """The Moore-minimal table with the outputs of ``t``. Two states merge
    when every input gives the same output from both and their tags are
    equal: ``automata.refine`` starts from each state's tag and output
    codes. A merged state keeps the provenance of its least member (by
    machine state, on a table read from a machine), and the merged states
    are numbered breadth first from the initial one."""
    block, blocks = refine([(tag, *row) for tag, row in zip(t.tags, t.codes)], t.targets)
    if len(blocks) == len(block) and t.names is None:
        return t  # nothing merges, and the states are numbered as below
    members = range(len(block))
    if t.names is not None:
        members = sorted(members, key=t.names.__getitem__)
    least: dict = {}  # block -> its least member
    for q in members:
        least.setdefault(block[q], q)
    found, targets = _breadth_first(block[0], lambda b: [block[q] for q in t.targets[least[b]]])
    kept = [least[b] for b in found]  # per state, the member it keeps
    render = t.render
    return _Moves(
        t.inputs, t.outputs, t.words, [t.codes[q] for q in kept], targets,
        [t.tags[q] for q in kept], t.sub, None if render is None else lambda s: render(kept[s]),
    )


def minimal_machine(m):
    """The Moore-minimal machine with the outputs of a synthesized machine
    ``m``, sequential or subsequential, as ``_minimal`` builds it: ``m``
    gives the same output, so it has the same kernel."""
    return _minimal(_Moves.of(m)).machine()


def _certify(table: _Moves, prep: Prepared, what: str) -> _Moves:
    """A synthesized table, returned once ``_kernel_counterexample`` finds its
    machine's kernel exactly the relation; else ``InternalInvariantError``."""
    try:
        pair = _kernel_counterexample(table, *prep.rows, prep.validation.is_symmetric)
    except NotLetterToLetterError as exc:
        raise InternalInvariantError(f"{what}: {exc}") from exc
    if pair is not None:
        raise InternalInvariantError(f"{what} kernel differs from input on {pair}")
    return table


def synthesize_mealy(r: LetterTransducer) -> SequentialTransducer:
    """Letter-to-letter sequential machine whose kernel is exactly r.

    Requires r to be a length-preserving equivalence, prefix-closed,
    with finitely many congruence classes inside each class of r; those
    conditions are verified first, then ``_mealy_moves`` builds it and
    ``_certify`` checks its kernel.
    """
    prep = prepare(r)
    if not prep.prefix_closed:
        raise PreconditionError("relation is not prefix-closed")
    if not prep.finite_index:
        raise PreconditionError(
            "syntactic congruence has infinite index with respect to the relation"
        )
    return _certify(_minimal(_mealy_moves(prep)), prep, "synthesized machine").machine()


def _mealy_moves(prep: Prepared) -> _Moves:
    """The matrix construction of ``synthesize_mealy``, without its checks.

    The relation must be prefix-closed with finite congruence index, as
    ``decide_kerseq_ll`` establishes before calling it. The matrix
    dimension is not capped, since a finite index bounds it; more than
    ``STATE_CAP`` states or ``ENTRY_CAP`` stored matrix entries raise
    ``DimensionCapError``, also when a precondition is broken. A relation
    that is its own congruence (``Prepared.own_congruence``) is built by
    ``_walk``, whose 1-by-1 matrices are the states of ``Prepared.rows``.
    """
    inputs = prep.relation.input_alphabet
    rows, finals = prep.rows
    if prep.own_congruence:
        return _walk(inputs, 0, rows.__getitem__, finals.__getitem__)
    return _worklist(inputs, 0, rows.__getitem__, finals.__getitem__, prep.diagonal.__contains__)


def validate_closure_witness(r: LetterTransducer, closure: LetterTransducer) -> None:
    """Checks that a claimed transitive prefix-closure fixpoint is consistent.

    Verifies containment of the prefix closure, by one inclusion, then
    transitivity and symmetry, by those two walks of ``relations._axioms``
    on the closure's ``Prepared.rows``, in that order. The closure of an
    equivalence's prefix closure is symmetric, and containing the
    relation makes it reflexive. The fixpoint equation follows from
    containment and transitivity: composing the witness with the prefix
    closure stays inside the witness composed with itself. These are the
    checkable necessary conditions; minimality of the closure is taken on
    trust as part of the input contract. A failed check raises
    ``BadClosureWitnessError`` naming a shortest offending pair (u, v),
    also kept as its ``pair``; a closure whose input and output alphabets
    differ raises ``AlphabetMismatchError``.
    """
    word = inclusion_counterexample(prefix_closure(r).nfa, closure.nfa)
    what = "does not contain the prefix closure"
    if word is None:
        if not closure.same_alphabets():
            raise AlphabetMismatchError("a closure witness needs equal input and output alphabets")
        kept = _prepared(closure)
        _reflexive, symmetric, transitive = _axioms(*kept.rows, kept.live, closure.input_alphabet)
        word, what = transitive(), "is not transitive"
        if word is None:
            word, what = symmetric(), "is not symmetric"
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
    ``_subsequential_moves`` builds it and ``_certify`` checks its kernel.
    """
    prep = prepare(r)
    validate_closure_witness(r, pplus)
    if not _finite_index(prep, pplus):
        raise PreconditionError(
            "syntactic congruence has infinite index with respect to the closure"
        )
    return _certify(_minimal(_subsequential_moves(prep, pplus)), prep, "subsequential witness").machine()


def _subsequential_moves(prep: Prepared, pplus: LetterTransducer) -> _Moves:
    """The matrix construction of ``synthesize_subsequential``, without its checks.

    The body runs over the product of the ``Prepared.rows`` of the
    relation and of the closure: outputs follow the closure classes, rows
    follow the congruence classes, and the final output separates
    closure-equal but unrelated words by the least related row index.
    ``decide_kerseq_lp`` establishes the conditions before calling it. A
    prefix-closed relation that is its own congruence is built by
    ``_walk`` when ``pplus`` is the very closure ``Prepared.closure``
    found, the relation's first iterate (``Prepared.first_iterate``),
    where an entry is accepting in the closure exactly when it is
    diagonal in the relation; any other closure, a supplied one of the
    same language included, by ``_worklist``.
    """
    closure = _prepared(pplus)
    r_rows, r_finals = prep.rows
    p_rows, p_finals = closure.rows
    inputs = prep.relation.input_alphabet

    def targets(q):
        return list(zip(r_rows[q[0]], p_rows[q[1]]))

    def coarse_final(q):
        return p_finals[q[1]]

    def tag(row):
        j = next((j for j, entry in enumerate(row, start=1) if r_finals[entry[0]]), None)
        if j is None:
            raise InternalInvariantError("matrix row is not related to itself")
        return f"t{j}"

    if prep.prefix_closed and prep.own_congruence and pplus is prep.first_iterate[0]:
        return _walk(inputs, (0, 0), targets, coarse_final, tag)
    r_diag = prep.diagonal
    return _worklist(inputs, (0, 0), targets, coarse_final, lambda q: q[0] in r_diag, tag)


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
    kernel as the input machine. ``_eliminated`` folds the table.
    """
    return _eliminated(_Moves.of(m)).machine()


def _eliminated(t: _Moves) -> _Moves:
    """``eliminate_final_output`` on a subsequential table; with one
    final-output value every move keeps its code."""
    values = sorted({tag for tag in t.tags if tag is not None}, key=t.outputs.index)
    if not values:
        raise PreconditionError("machine accepts nothing; no final outputs to fold")
    n = len(values)
    values.sort(key=lambda v: v == t.tags[0])  # the initial state's value last
    klass = {v: i for i, v in enumerate(values, start=1)}
    counts = [n if tag is None else klass[tag] for tag in t.tags]  # per body state, its class
    words, start = t.words, t.outputs.letters[0]
    first = {0: start}  # body state -> the letter it is first reached with
    index: dict = {}  # output word -> its code, when n > 1
    codes = []

    def successors(state):  # (body state, letter carried)
        p, c = state
        code_row, to = [], []
        for code, q in zip(t.codes[p], t.targets[p]):
            if code >= 0:
                (b,) = words[code]
                first.setdefault(q, b)
                if n > 1:
                    code = index.setdefault((c,) * (n - counts[p]) + (b,) * counts[q], len(index))
                to.append((q, b if n > 1 else None))
            else:
                to.append(state)  # no move: the state itself
            code_row.append(code)
        codes.append(code_row)
        return to

    order, targets = _breadth_first((0, start if n > 1 else None), successors)
    names = t.names

    def render(s):
        p, c = order[s]
        return str((p if names is None else names[p], first[p] if c is None else c))

    tags = [None if t.tags[p] is None else True for p, _c in order]
    return _Moves(
        t.inputs, t.outputs, words if n == 1 else list(index), codes, targets, tags, False, render
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
    A squared state is k = (balance × n + p) × n + q over the n states of a
    ``_Moves`` table, a balance numbering what one run has emitted beyond
    the other in the order first met, 0 for nothing pending: k < n²
    exactly when nothing is pending, and the start is 0. A step to (p',
    q') adds p' × n × ``scale`` (``lefts``) and q' × ``scale``
    (``rights``). ``successors`` is the one successor function and
    ``charge`` the one charge of the budget."""

    def __init__(self, t: _Moves, scale: int = 1):
        n = self.n = len(t.codes)
        self.nn, self.scale = n * n, scale
        self.codes, self.words, self.tags = t.codes, t.words, t.tags
        self.rights = [[q * scale for q in row] for row in t.targets]
        self.lefts = [[q * n for q in row] for row in self.rights]
        self.lengths = [len(out) for out in self.words]
        self.uniform = len(set(self.lengths)) < 2  # every move outputs as many letters
        self.budget = (1 + max(self.lengths, default=0)) * self.nn
        self.held = 0
        self.expanded: set = set()  # the squared states the walk has expanded
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
    the budget of ``_kernel_counterexample``, raising
    ``NotLetterToLetterError`` beyond it. The result is the whole kernel
    unless inputs of different lengths share an output (``length_collision``).
    """
    t = _Moves.of(f)
    inputs = t.inputs
    alphabet = pair_alphabet(inputs, inputs)
    square = _Squared(t)

    def successors(k):
        square.charge(k)
        return ((ab, t) for ab, t in zip(alphabet.letters, square.successors(k)) if t >= 0)

    nfa = explored(alphabet, [0], successors, square.accepting)
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
    return _length_collision(_Moves.of(m))


def _live(t: _Moves) -> frozenset[int]:
    """The states of a table that reach a final state."""
    return _reach(
        [q for q, tag in enumerate(t.tags) if tag is not None],
        ((q, p) for p, row in enumerate(t.targets) for c, q in zip(t.codes[p], row) if c >= 0),
    )


def _length_collision(t: _Moves) -> tuple[Word, Word] | None:
    """``length_collision`` on a table."""
    live = _live(t)  # no other states are explored
    moved = [
        [(a, t.words[c], q) for a, c, q in zip(t.inputs.letters, codes, row) if c >= 0 and q in live]
        for codes, row in zip(t.codes, t.targets)
    ]
    start = (0, 0, (), 0)
    moves: dict = {start: []}
    todo = [start]
    while todo:
        node = todo.pop()
        runs = (0, 1) if not node[2] else (1 - node[3],)
        for run in runs:
            for a, out, dst in moved[node[run]]:
                extra = _ahead(node[2], node[3])
                extra[run] += out
                balance = _balance(*extra)
                if balance is None:
                    continue
                states = [node[0], node[1]]
                states[run] = dst
                nxt = tuple(states) + balance
                moves[node].append(((run, a), nxt))
                if nxt not in moves:
                    moves[nxt] = []
                    todo.append(nxt)

    def accepting(node):
        return not node[2] and t.tags[node[0]] is not None and t.tags[node[1]] is not None

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


def _length_graded(t: _Moves) -> bool:
    """Whether the machine of table ``t`` is length-graded, so that it has no
    ``length_collision``.

    It is length-graded when, over its live states (reachable, and
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
    lengths = [len(out) for out in t.words]
    if all(n == 1 for n in lengths):
        return True  # letter to letter
    live = _live(t)
    if 0 not in live:
        return True  # the machine accepts nothing
    walked = {0: (0, 0)}  # state -> (depth, output length) along the walk
    order = [0]
    off_tree = []  # per move off the walk's tree: (factor, output length gained)
    for p in order:  # order grows while it is walked
        k, length = walked[p]
        for c, q in zip(t.codes[p], t.targets[p]):
            if c < 0 or q not in live:
                continue
            seen = walked.get(q)
            if seen is None:
                walked[q] = k + 1, length + lengths[c]
                order.append(q)
            else:
                off_tree.append((k + 1 - seen[0], length + lengths[c] - seen[1]))
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
    finds it on r's ``Prepared.rows``, where the symmetry walk of
    ``relations._axioms`` says whether r is symmetric.
    """
    base = f.base if isinstance(f, SubsequentialTransducer) else f
    if r.nfa.alphabet != pair_alphabet(base.input_alphabet, base.input_alphabet):
        raise AlphabetMismatchError("machine inputs and relation letters differ")
    prep = _prepared(r)
    _reflexive, symmetric, _transitive = _axioms(*prep.rows, prep.live, r.input_alphabet)
    return _kernel_counterexample(_Moves.of(f), *prep.rows, symmetric() is None)


def _kernel_counterexample(t: _Moves, rows: list, finals: list, symmetric: bool) -> tuple | None:
    """The shortlex-least pair on which the kernel of table ``t``'s machine
    and the relation R of a complete pair DFA, given by its rows and
    finality as ``Prepared.rows`` holds them, disagree, or None.

    ``symmetric`` must be true only when R is symmetric. Inputs of
    different lengths with one output are looked for first, by
    ``length_collision``: R relates only words of equal length. That
    search is skipped on a length-graded machine (``_length_graded``),
    where such inputs have outputs of different lengths: letter-to-letter
    and subsequential machines, and eliminated witnesses but for the few
    whose states minimization merged out of grading.

    Then one breadth-first walk over the synchronous product of the
    squared machine of ``kernel_transducer`` with the DFA stops at the
    first node where the two disagree on acceptance, which spells the
    pair. A product node carries one more bit, set while the two words
    read so far are equal. On a symmetric R a set bit lets the walk read
    only the (a, b) with a ≤ b, (a, a) keeping it set, and a clear bit
    every pair letter; otherwise the bit starts clear. The kernel is
    symmetric too, so the shortlex-least disagreement, if any, has a < b
    at its first difference: the ordered walk returns the pair the walk
    over all pairs would, expanding about half the squared states.

    The squared machine is never built. A node is the integer k × 2m +
    bit × m + s, for the squared state k of ``_Squared`` (-1 when dead)
    and the state s of the DFA: the move tables hold their targets times
    2m and a kept bit adds m, so a successor node is a sum. While nothing
    is pending (k < n², for n machine states) the walk computes each
    successor inline: equal output codes go to the pair of targets; a
    missing move, or two different codes of equal length, to the dead
    state; only codes of different lengths number a balance. Otherwise
    ``_Squared.successors`` gives them.

    The budget: a squared state is charged when the walk first expands it
    (``_Squared.expanded``), 1 plus the output letters it holds pending;
    past (1 + longest move output) × n² the walk raises
    ``NotLetterToLetterError``, which ends it on a machine whose two runs
    on equal-length inputs lag apart without bound. Moves that all output
    as many letters, as letter-to-letter bodies do, never leave output
    pending and are charged nothing. Eliminated witnesses with c
    final-output classes lag by fewer than c letters, the pending word
    fixed by the pair of states. When the kernel equals R the walk
    expands every squared state it reaches; otherwise it returns the
    first pair it meets, also past the budget of the whole machine.
    """
    if not _length_graded(t):
        pair = _length_collision(t)
        if pair is not None:
            return pair
    m = len(rows)
    size2 = 2 * m
    square = _Squared(t, size2)
    n, nn, codes, lefts, rights = square.n, square.nn, square.codes, square.lefts, square.rights
    words, lengths, tags, uniform = square.words, square.lengths, square.tags, square.uniform
    balance, charge, successors, expanded = (
        square.balance, square.charge, square.successors, square.expanded
    )
    step = nn * size2  # one balance
    width = len(t.inputs)
    # per bit, the moves of a node as (pair-letter position, a, b, what a kept bit
    # adds): with the bit clear every pair letter, set only the (a, b) with a ≤ b
    moves = [
        [(a * width + b, a, b, 0) for a in range(width) for b in range(width)],
        [(a * width + b, a, b, m * (a == b)) for a in range(width) for b in range(a, width)],
    ]
    # per node remainder bit × m + s: the row of s, the moves, and acceptance
    by_rest = [(rows[s], moves[bit], finals[s]) for bit in (0, 1) for s in range(m)]
    dead = -size2
    dead_row = [dead] * (width * width)
    start = symmetric * m  # squared state 0, state 0 of the DFA
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
    names = t.inputs.letters
    letters.reverse()
    return tuple(names[a] for a, _b in letters), tuple(names[b] for _a, b in letters)
