"""Decision procedures and verdicts.

Finite valuedness is decided structurally by Weber's two pumping
patterns, each found in one pass over the strongly connected components
of a product of the transducer's minimal pair DFA with itself; there,
runs that part on one input must write different outputs, so no search
tracks whether outputs have diverged. The search reads that DFA as
dense rows. Finite index reduces to it through the uniformizer: the
composition of the uniformizer with the target feeds the subset
construction directly (``relations._composed``), and the search reads
the minimal rows it returns, with no automaton built in between. The
class-membership deciders chain the
necessary conditions and, on success, hand back a synthesized witness
whose kernel has been checked exactly against the input by
``synthesis.kernel_counterexample``. No decision enumerates words.

Every entry point reads its relation's stages from the ``Prepared``
value that ``relations.prepare`` keeps on the relation object: the
validation, the pair DFA, prefix-closedness, the syntactic congruence,
its uniformizer, the index against the relation, and for each cap the
searched closure with the index against it. Each is built once per
relation object, whichever entry points the object passes through, and
held for as long as the object lives. A prefix-closed relation is its
own searched closure, read off its kept pair DFA with no search, and
its index against that closure is the kept index against the relation.
A supplied closure is validated and its index checked on every call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .automata import _dense, _sink_free, drop_sink, includes, minimize
from .errors import InternalInvariantError, NotEquivalenceError, NotFinerError, NotLetterToLetterError
from .machines import SequentialTransducer, SubsequentialTransducer
from .relations import (
    ClosureResult,
    Prepared,
    RelationValidation,
    _composed,
    min_lex_uniformizer,
    prepare,
)
from .transducers import LetterTransducer

NOT_PREFIX_CLOSED = "NOT_PREFIX_CLOSED"
INFINITE_INDEX = "INFINITE_INDEX"
CLOSURE_CAP_EXHAUSTED = "CLOSURE_CAP_EXHAUSTED"

FINITE = "FINITE"
INFINITE = "INFINITE"

DEFAULT_CLOSURE_CAP = 16


class Outcome(enum.Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    reason: str | None = None
    witness: SequentialTransducer | None = None
    subsequential: SubsequentialTransducer | None = None
    closure: ClosureResult | None = None

    def __post_init__(self):
        if self.outcome is Outcome.YES and self.witness is None:
            raise ValueError("YES verdicts carry a witness")


@dataclass(frozen=True)
class AnalysisReport:
    validation: RelationValidation
    length_preserving: bool
    prefix_closed: bool | None
    index_wrt_relation: str | None
    closure: ClosureResult | None
    index_wrt_closure: str | None


def _explore(starts, expand, bits: dict) -> tuple[dict, list[int], list[int]]:
    """Strongly connected components of the graph that ``expand(node)``
    spans from ``starts``, by an iterative Tarjan numbering nodes as found.

    Returns the numbering, each number's component and, per component,
    the union of ``bits`` (node -> int) over the nodes it reaches. A node
    collects the unions of the completed components its edges meet and
    hands what it holds to its parent in the search tree, so a component's
    root holds the whole union when the component completes.
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


def _has_transfer(moves: list, linked: list[tuple[int, int]]) -> bool:
    """Loop at p, transfer p to q, loop at q, all on one input word, on a
    pair-deterministic machine with ``moves[q][x]`` the (output, next)
    moves of q on input x: (p, q, q) reached from (p, p, q).
    """
    n = len(moves)

    def expand(node):
        x, y, z = node
        return [
            (x2, y2, z2)
            for xs, ys, zs in zip(moves[x], moves[y], moves[z])
            for _, x2 in xs
            for _, y2 in ys
            for _, z2 in zs
        ]

    targets = {(p, q, q): 1 << (p * n + q) for p, q in linked}
    ids, comp, reach = _explore([(p, p, q) for p, q in linked], expand, targets)
    return any(reach[comp[ids[(p, p, q)]]] >> (p * n + q) & 1 for p, q in linked)


def _finitely_valued(rows: list, width: int) -> bool:
    """The valuedness search on a trimmed minimal pair DFA given as dense rows:
    ``rows[q][x * width + z]`` the target of q on the pair (x, z), -1 for none.

    Infinite exactly when the machine shows one of Weber's two pumpable
    patterns: a state with two equal-input loops of different output, or
    a loop-transfer-loop triple. The square pass walks the
    input-synchronized self-product on integer nodes p * n + q from every
    diagonal node (p, p) with ``_explore``, whose Tarjan numbers the
    components in reverse topological order, keeping each node's
    successors. The loops are an edge of different outputs inside the
    component of a diagonal node; that is tested first. Otherwise the
    components are labelled forward, from the highest number down:
    ``label[c]`` gains bit p from (p, p) and passes its bits on to every
    successor component, so (p, q) is reached from (p, p) exactly when
    bit p is in the label of its component, with n bits per component.
    The triple is (p, q, q) reached from (p, p, q) in the triple product,
    for p != q so linked; it needs no divergence flag: the loop and the
    transfer leave p on one input and end in different states, which in a
    pair DFA they can only do by writing different outputs.
    """
    n = len(rows)
    # per state and input letter: its (output position, target) moves
    moves = [
        [[(z, t) for z, t in enumerate(row[x : x + width]) if t >= 0] for x in range(0, len(row), width)]
        for row in rows
    ]
    diverging = []  # square edges whose two outputs differ
    succ = {}  # node -> its successor nodes

    def expand(node):
        p, q = divmod(node, n)
        succ[node] = out = []
        for xs, ys in zip(moves[p], moves[q]):
            for z1, p2 in xs:
                for z2, q2 in ys:
                    out.append(p2 * n + q2)
                    if z1 != z2:
                        diverging.append((node, p2 * n + q2))
        return out

    diagonal = range(0, n * n, n + 1)  # the nodes (p, p)
    ids, comp, components = _explore(diagonal, expand, {})
    looped = {comp[ids[d]] for d in diagonal}
    for u, v in diverging:
        c = comp[ids[u]]
        if c == comp[ids[v]] and c in looped:
            return False
    members: list[list] = [[] for _ in components]
    for node, v in ids.items():
        members[comp[v]].append(node)
    label = [0] * len(members)
    for p, d in enumerate(diagonal):
        label[comp[ids[d]]] |= 1 << p
    for c in range(len(members) - 1, -1, -1):  # sources first
        bits = label[c]
        for node in members[c]:
            for w in succ[node]:
                label[comp[ids[w]]] |= bits
    linked = [
        (p, q)
        for node, v in ids.items()
        for p, q in [divmod(node, n)]
        if p != q and label[comp[v]] >> p & 1
    ]
    return not _has_transfer(moves, linked)


def is_finitely_valued(t: LetterTransducer) -> bool:
    """Structural finite-valuedness of the realized transduction.

    Valuedness depends only on the relation, so ``_finitely_valued``
    searches its minimal pair DFA without the sink (``drop_sink``, which
    trims it), read into dense rows. ``minimize`` numbers its blocks by
    the shortlex-least words reaching them, so its result depends only
    on the language and needs no trimmed input.
    """
    return _finitely_valued(_dense(drop_sink(minimize(t.nfa))), len(t.output_alphabet))


def _composition_finitely_valued(f: LetterTransducer, target: LetterTransducer) -> bool:
    """``is_finitely_valued(compose(f, target))``, searched on the dense rows of
    ``relations._composed`` with the sink dropped: no automaton is built."""
    rows, _finals = _sink_free(*_composed(f, target))
    return _finitely_valued(rows, len(f.output_alphabet))


def index_is_finite(s: LetterTransducer, r: LetterTransducer) -> bool:
    """Whether finitely many s-classes meet any single r-image.

    Reduces to finite valuedness of (canonical function of s) after r.
    """
    if not includes(s.nfa, r.nfa):
        raise NotFinerError("first relation is not included in the second")
    return _composition_finitely_valued(min_lex_uniformizer(s), r)


def _finite_index(prep: Prepared, target: LetterTransducer) -> bool:
    """``index_is_finite(prep.congruence, target)`` without its checks.

    On the decision path they hold by construction: the congruence
    refines the relation, which lies inside its prefix closure and so
    inside every closure fixpoint, and it is an equivalence. A supplied
    closure passes ``validate_closure_witness`` first, so it contains
    the prefix closure too.
    """
    return _composition_finitely_valued(prep.uniformizer, target)


def _certify(machine, prep: Prepared, what: str) -> None:
    """Raise unless the kernel of a synthesized machine is exactly the relation."""
    from .synthesis import kernel_counterexample

    try:
        pair = kernel_counterexample(machine, prep.det)
    except NotLetterToLetterError as exc:
        raise InternalInvariantError(f"{what}: {exc}") from exc
    if pair is not None:
        raise InternalInvariantError(f"{what} kernel differs from input on {pair}")


def decide_kerseq_ll(r: LetterTransducer) -> Verdict:
    """Is r the kernel of some letter-to-letter sequential machine?

    NO verdicts carry the first failed necessary condition; YES verdicts
    carry a machine whose kernel has been checked equal to r exactly.
    Raises ``NotEquivalenceError`` unless r is an equivalence.
    """
    from .synthesis import mealy_machine, minimal_machine

    prep = prepare(r)
    if not prep.prefix_closed:
        return Verdict(Outcome.NO, reason=NOT_PREFIX_CLOSED)
    if not prep.finite_index:
        return Verdict(Outcome.NO, reason=INFINITE_INDEX)
    witness = minimal_machine(mealy_machine(prep))
    _certify(witness, prep, "synthesized machine")
    return Verdict(Outcome.YES, witness=witness)


def decide_kerseq_lp(
    r: LetterTransducer,
    closure: LetterTransducer | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> Verdict:
    """Is r the kernel of some sequential machine (length-preserving case)?

    The congruence index against r itself is checked before any closure
    work, so relations that already fail it are decided without
    iterating. The closure fixpoint is either validated from the caller
    or searched up to ``cap``; running out yields UNKNOWN, never a wrong
    answer. The searched closure and the index against it are kept per
    cap on the ``Prepared`` value kept on r (``Prepared.closure``), so a
    relation object is searched once per cap; a supplied closure is
    validated and its index checked on every call. YES verdicts carry the
    final-output-free witness, made Moore-minimal by ``minimal_machine``,
    with the subsequential stage attached; the kernels of both are
    checked exactly against r. Raises ``NotEquivalenceError`` unless r
    is an equivalence.
    """
    from .synthesis import (
        eliminate_final_output,
        minimal_machine,
        subsequential_machine,
        validate_closure_witness,
    )

    prep = prepare(r)
    if not prep.finite_index:
        return Verdict(Outcome.NO, reason=INFINITE_INDEX)
    closure_result = None
    if closure is not None:
        validate_closure_witness(r, closure)
        pplus, finite = closure, _finite_index(prep, closure)
    else:
        closure_result, finite = prep.closure(cap)
        if not closure_result.converged:
            return Verdict(
                Outcome.UNKNOWN, reason=CLOSURE_CAP_EXHAUSTED, closure=closure_result
            )
        pplus = closure_result.closure
    if not finite:
        return Verdict(Outcome.NO, reason=INFINITE_INDEX, closure=closure_result)
    sub = minimal_machine(subsequential_machine(prep, pplus))
    witness = minimal_machine(eliminate_final_output(sub))
    _certify(sub, prep, "subsequential witness")
    _certify(witness, prep, "witness after final-output elimination")
    return Verdict(
        Outcome.YES, witness=witness, subsequential=sub, closure=closure_result
    )


def analyze(
    r: LetterTransducer,
    pplus: LetterTransducer | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> AnalysisReport:
    """Collect all the structural verdicts for one relation.

    Fields past validation stay unset when the input is not an
    equivalence relation; the closure-relative index stays unset unless
    a fixpoint was found or supplied. Like the deciders, it reads every
    stage from the ``Prepared`` value kept on r, the closure searched for
    ``cap`` and the index against it included, so a relation object that
    went through a decider or ``validate_relation`` is not validated,
    prepared or searched again; a supplied closure is validated and its
    index checked on every call.

    The closure and its index come first. r lies inside the closure, so
    each r-image lies inside a closure image and meets no more
    congruence classes: a finite index against the closure is a finite
    index against r, and only otherwise is the index against r checked.
    A prefix-closed r is its own searched closure, so both indices are
    the one kept on its ``Prepared`` value.
    """
    from .synthesis import validate_closure_witness

    try:
        prep = prepare(r)
    except NotEquivalenceError as exc:
        return AnalysisReport(exc.validation, True, None, None, None, None)
    closure_result = None
    if pplus is not None:
        validate_closure_witness(r, pplus)
        finite = _finite_index(prep, pplus)
    else:
        closure_result, finite = prep.closure(cap)
    index_closure = None if finite is None else FINITE if finite else INFINITE
    index_r = FINITE if index_closure == FINITE or prep.finite_index else INFINITE
    return AnalysisReport(
        validation=prep.validation,
        length_preserving=True,
        prefix_closed=prep.prefix_closed,
        index_wrt_relation=index_r,
        closure=closure_result,
        index_wrt_closure=index_closure,
    )
