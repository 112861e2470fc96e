"""Decision procedures and verdicts.

Finite valuedness is decided structurally by Weber's two pumping
patterns (Weber, *On the valuedness of finite transducers*, Acta Inf.
1990), each found in one Tarjan pass (``_explore``) over a product of
the transducer's trimmed minimal pair DFA with itself, read as dense
rows; there, runs that part on one input must write different outputs,
so no search tracks whether outputs have diverged. Both passes learn
what is reached from where by one forward labelling of their
components, ``_labels``. Finite index reduces to valuedness through the
uniformizer: the search reads the minimal rows of its composition with
the target, ``relations._composed``, with no automaton built.

The class-membership deciders chain the necessary conditions and, on
success, hand back a synthesized witness whose kernel has been checked
exactly against the input by ``synthesis._kernel_counterexample``. An
eliminated witness equal to the body of a subsequential stage with one
final-output value has that stage's kernel, so one walk checks both.
No decision enumerates words.

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
Of the two index checks, ``decide_kerseq_lp`` runs the one against the
closure first when no composition round is needed to reach it, and the
one against the relation first otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

from .automata import _dense, _trim_rows, drop_sink, includes, minimize
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


def _explore(starts, expand) -> tuple[dict, list[int], list[list[int]]]:
    """Strongly connected components of the graph that ``expand(node)``
    spans from ``starts``, by an iterative Tarjan numbering nodes as found.

    Returns the numbering, each number's component and each number's
    successor numbers, in the order ``expand`` lists them. Components are
    numbered as they complete, so every edge leads to a component of the
    same or a lower number.
    """
    ids: dict = {}
    low: list[int] = []  # a node's number is its Tarjan index
    comp: list[int] = []
    succ: list[list[int]] = []
    stack: list[int] = []
    work: list = []
    count = 0

    def enter(node):
        ids[node] = v = len(low)
        low.append(v)
        comp.append(-1)
        succ.append([])
        stack.append(v)
        work.append((v, iter(expand(node))))
        return v

    for root in starts:
        if root not in ids:
            enter(root)
        while work:
            v, edges = work[-1]
            out = succ[v]
            for nxt in edges:
                w = ids.get(nxt)
                if w is None:
                    out.append(enter(nxt))
                    break
                out.append(w)
                if comp[w] < 0 and w < low[v]:  # w is still on the stack, in v's component
                    low[v] = w
            else:
                work.pop()
                if low[v] == v:  # v is the root of its component
                    while comp[v] < 0:
                        comp[stack.pop()] = count
                    count += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return ids, comp, succ


def _labels(comp: list[int], succ: list[list[int]], seeds) -> list[int]:
    """Per component of ``_explore``'s numbering, the union of the bits of
    the ``(number, bit)`` seeds whose nodes reach it.

    One forward pass: the components are taken from the highest number
    down, so each is complete when its nodes pass its label on to their
    successors' components.
    """
    label = [0] * (max(comp, default=-1) + 1)
    for v, bit in seeds:
        label[comp[v]] |= bit
    for v in sorted(range(len(comp)), key=comp.__getitem__, reverse=True):
        bits = label[comp[v]]
        if bits:
            for w in succ[v]:
                label[comp[w]] |= bits
    return label


def _has_transfer(moves: list, linked: list[tuple[int, int]]) -> bool:
    """Loop at p, transfer p to q, loop at q, all on one input word, on a
    pair-deterministic machine with ``moves[q][x]`` the (output, next)
    moves of q on input x: (p, q, q) reached from (p, p, q) in the triple
    product, labelled by ``_labels`` with one bit per linked pair.
    """

    def expand(node):
        x, y, z = node
        return [
            (x2, y2, z2)
            for xs, ys, zs in zip(moves[x], moves[y], moves[z])
            for _, x2 in xs
            for _, y2 in ys
            for _, z2 in zs
        ]

    starts = [(p, p, q) for p, q in linked]
    ids, comp, succ = _explore(starts, expand)
    label = _labels(comp, succ, [(ids[node], 1 << j) for j, node in enumerate(starts)])
    ends = [(p, q, q) for p, q in linked]
    return any(node in ids and label[comp[ids[node]]] >> j & 1 for j, node in enumerate(ends))


def _finitely_valued(rows: list, width: int) -> bool:
    """The valuedness search on a trimmed minimal pair DFA given as dense rows:
    ``rows[q][x * width + z]`` the target of q on the pair (x, z), -1 for none.

    Infinite exactly when the machine shows one of Weber's two pumpable
    patterns: a state with two equal-input loops of different output, or
    a loop-transfer-loop triple. The square pass walks the
    input-synchronized self-product on integer nodes p * n + q from every
    diagonal node (p, p). The loops are an edge of different outputs
    inside the component of a diagonal node; that is tested first.
    Otherwise (p, q) is linked, reached from (p, p), when bit p is in the
    ``_labels`` label of its component. The triple is (p, q, q) reached
    from (p, p, q) for a linked pair; it needs no divergence flag: the
    loop and the transfer leave p on one input and end in different
    states, which in a pair DFA they can only do by writing different
    outputs.
    """
    n = len(rows)
    # per state and input letter: its (output position, target) moves
    moves = [
        [[(z, t) for z, t in enumerate(row[x : x + width]) if t >= 0] for x in range(0, len(row), width)]
        for row in rows
    ]
    diverging = []  # square edges whose two outputs differ

    def expand(node):
        p, q = divmod(node, n)
        out = []
        for xs, ys in zip(moves[p], moves[q]):
            for z1, p2 in xs:
                for z2, q2 in ys:
                    out.append(p2 * n + q2)
                    if z1 != z2:
                        diverging.append((node, p2 * n + q2))
        return out

    diagonal = range(0, n * n, n + 1)  # the nodes (p, p)
    ids, comp, succ = _explore(diagonal, expand)
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
    rows, _finals = _trim_rows(*_composed(f, target))
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
    """Raise unless the kernel of a synthesized machine is exactly the relation.

    The relation is an equivalence, so the kernel is checked on ordered
    pairs (``synthesis._kernel_counterexample``).
    """
    from .synthesis import _kernel_counterexample

    try:
        pair = _kernel_counterexample(machine, prep.det.nfa, prep.validation.is_symmetric)
    except NotLetterToLetterError as exc:
        raise InternalInvariantError(f"{what}: {exc}") from exc
    if pair is not None:
        raise InternalInvariantError(f"{what} kernel differs from input on {pair}")


# what the kernel check reads of a sequential machine: all but its output alphabet
_body = attrgetter("input_alphabet", "states", "initial", "finals", "transitions")


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

    The index checks run in this order. When the closure is reached with
    no composition round (``Prepared.prefix_transitive``: r is
    prefix-closed, or its prefix closure is transitive, so the closure is
    the first iterate at exponent 1) and none is supplied, the index
    against that closure comes first. r lies inside the closure, so a
    finite index against it is a finite index against r, and the index
    against r is checked only when it is infinite, to report NO with the
    closure when r passes and without it when r fails. Otherwise the
    index against r comes first, before any closure work: relations that
    fail it are decided without iterating, and the composition rounds,
    whose cost nothing bounds, run only on relations that pass it.

    The closure fixpoint is either validated from the caller or searched
    up to ``cap``; running out yields UNKNOWN, never a wrong answer. The
    searched closure and the index against it are kept per cap on the
    ``Prepared`` value kept on r (``Prepared.closure``), so a relation
    object is searched once per cap; a supplied closure is validated and
    its index checked on every call. YES verdicts carry the
    final-output-free witness, Moore-minimal, with the subsequential
    stage attached; ``minimal_machine`` merges the witness's states only
    when the stage has more than one final-output value. The stage's
    kernel is checked exactly against r, and the witness's by a walk of
    its own unless the stage has one final-output value and the witness
    equals its body.
    Raises ``NotEquivalenceError`` unless r is an equivalence.
    """
    from .synthesis import (
        eliminate_final_output,
        minimal_machine,
        subsequential_machine,
        validate_closure_witness,
    )

    prep = prepare(r)
    closure_result = None
    if closure is None and cap >= 1 and prep.prefix_transitive:
        closure_result, finite = prep.closure(cap)
        if not finite and not prep.finite_index:
            return Verdict(Outcome.NO, reason=INFINITE_INDEX)
        pplus = closure_result.closure
    else:
        if not prep.finite_index:
            return Verdict(Outcome.NO, reason=INFINITE_INDEX)
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
    witness = eliminate_final_output(sub)
    one_class = len(set(sub.final_output.values())) == 1
    if not one_class:
        witness = minimal_machine(witness)
    _certify(sub, prep, "subsequential witness")
    # with one final-output value, a witness equal to the body squares as sub did
    if not one_class or _body(witness) != _body(sub.base):
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
