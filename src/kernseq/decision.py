"""Decision procedures and verdicts.

Finite valuedness is decided structurally by Weber's two pumping
patterns, each found in one pass over the strongly connected components
of a product of the trimmed transducer with itself; finite index reduces
to it through the uniformizer; the class-membership deciders chain the
necessary conditions and, on success, hand back a synthesized witness
whose kernel has been checked exactly against the input by
``synthesis.kernel_counterexample``. No decision enumerates words.

Each entry point validates its relation once, through
``relations.prepare``, and reads every stage from that ``Prepared``
value: the pair DFA, prefix-closedness, the syntactic congruence and its
uniformizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .automata import determinize, includes, minimize, trim
from .errors import InternalInvariantError, NotEquivalenceError, NotFinerError, NotLetterToLetterError
from .machines import SequentialTransducer, SubsequentialTransducer
from .relations import (
    ClosureResult,
    Prepared,
    RelationValidation,
    compose,
    min_lex_uniformizer,
    prefix_closure,
    prepare,
    transitive_closure,
)
from .transducers import LetterTransducer

NOT_PREFIX_CLOSED = "NOT_PREFIX_CLOSED"
INFINITE_INDEX = "INFINITE_INDEX"
CLOSURE_CAP_EXHAUSTED = "CLOSURE_CAP_EXHAUSTED"

FINITE = "FINITE"
INFINITE = "INFINITE"

DEFAULT_CLOSURE_CAP = 16

# Above this size the transducer is first replaced by the minimal
# pair-deterministic machine for the same relation before the pattern
# search; valuedness only depends on the relation, so this is safe.
_CANONICALIZE_THRESHOLD = 40


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


def _has_transfer_divergence(step: list[dict], linked: list[tuple[int, int]]) -> bool:
    """Loop at p, transfer p to q, loop at q, all on one input word, with
    the loop-transfer and transfer-loop outputs disagreeing somewhere.

    Since outputs here are always letter-per-letter, disagreement of the
    concatenations reduces to a letterwise difference along the triple.
    """
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
    ids, comp, reach = _explore(starts, expand, targets)
    return any(reach[comp[ids[(p, p, q, False)]]] >> (p * n + q) & 1 for p, q in linked)


def is_finitely_valued(t: LetterTransducer) -> bool:
    """Structural finite-valuedness of the realized transduction.

    Infinite exactly when the trimmed machine shows one of the two
    pumpable patterns: a state with two equal-input loops of different
    output, or a divergent loop-transfer-loop triple. Each is found in
    one Tarjan pass over an input-synchronized product: the loops are an
    edge of different outputs inside the component of a diagonal pair
    (q, q) of the square; the triple is (p, q, q, diverged) reached from
    (p, p, q, not diverged) in the triple product, for p != q linked by
    the square from (p, p). Both reachabilities are propagated over the
    components as int bitsets, one bit per state pair.
    """
    nfa = trim(t.nfa)
    if len(nfa.states) > _CANONICALIZE_THRESHOLD:
        nfa = trim(minimize(determinize(nfa)))
    n = len(nfa.states)  # trim numbers the states 0..n-1
    step: list[dict] = [{} for _ in range(n)]  # state -> input -> [(output, next)]
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
    ids, comp, reach = _explore([(p, p) for p in range(n)], expand, pairs)
    diagonal = {comp[ids[(p, p)]] for p in range(n)}
    if any(comp[ids[u]] == comp[ids[v]] and comp[ids[v]] in diagonal for u, v in diverging):
        return False
    linked = [
        (p, q) for p in range(n) for q in range(n)
        if q != p and reach[comp[ids[(p, p)]]] >> (p * n + q) & 1
    ]
    return not _has_transfer_divergence(step, linked)


def index_is_finite(s: LetterTransducer, r: LetterTransducer) -> bool:
    """Whether finitely many s-classes meet any single r-image.

    Reduces to finite valuedness of (canonical function of s) after r.
    """
    if not includes(s.nfa, r.nfa):
        raise NotFinerError("first relation is not included in the second")
    return is_finitely_valued(compose(min_lex_uniformizer(s), r))


def _finite_index(prep: Prepared, target: LetterTransducer) -> bool:
    """``index_is_finite(prep.congruence, target)`` without its checks.

    On the decision path they hold by construction: the congruence
    refines the relation, which lies inside its prefix closure and so
    inside every closure fixpoint, and it is an equivalence.
    """
    return is_finitely_valued(compose(prep.uniformizer, target))


def _certify(machine, prep: Prepared, lag: int, what: str) -> None:
    """Raise unless the kernel of a synthesized machine is exactly the relation."""
    from .synthesis import kernel_counterexample

    try:
        pair = kernel_counterexample(machine, prep.det, lag)
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
    from .synthesis import mealy_machine

    prep = prepare(r)
    if not prep.prefix_closed:
        return Verdict(Outcome.NO, reason=NOT_PREFIX_CLOSED)
    if not _finite_index(prep, r):
        return Verdict(Outcome.NO, reason=INFINITE_INDEX)
    witness = mealy_machine(prep)
    _certify(witness, prep, 0, "synthesized machine")
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
    answer. YES verdicts carry the final-output-free witness, with the
    subsequential stage attached; the kernels of both are checked
    exactly against r. With n distinct final outputs, two runs of the
    eliminated machine on equal-length inputs differ in output length by
    the difference of two classes in 1..n, so lag bound n suffices.
    Raises ``NotEquivalenceError`` unless r is an equivalence.
    """
    from .synthesis import (
        eliminate_final_output,
        subsequential_machine,
        validate_closure_witness,
    )

    prep = prepare(r)
    if not _finite_index(prep, r):
        return Verdict(Outcome.NO, reason=INFINITE_INDEX)
    closure_result = None
    if closure is not None:
        validate_closure_witness(r, closure)
        pplus = closure
    else:
        closure_result = transitive_closure(prefix_closure(r), cap, minimize_steps=True)
        if not closure_result.converged:
            return Verdict(
                Outcome.UNKNOWN, reason=CLOSURE_CAP_EXHAUSTED, closure=closure_result
            )
        pplus = closure_result.closure
    if not _finite_index(prep, pplus):
        return Verdict(Outcome.NO, reason=INFINITE_INDEX, closure=closure_result)
    sub = subsequential_machine(prep, pplus)
    witness = eliminate_final_output(sub)
    lag = len(set(sub.final_output.values()))
    _certify(sub, prep, lag, "subsequential witness")
    _certify(witness, prep, lag, "witness after final-output elimination")
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
    a fixpoint was found or supplied. Like the deciders, it validates r
    once and reads every stage from the prepared relation.
    """
    from .synthesis import validate_closure_witness

    try:
        prep = prepare(r)
    except NotEquivalenceError as exc:
        return AnalysisReport(exc.validation, True, None, None, None, None)
    index_r = FINITE if _finite_index(prep, r) else INFINITE
    closure_result = None
    target = None
    if pplus is not None:
        validate_closure_witness(r, pplus)
        target = pplus
    else:
        closure_result = transitive_closure(prefix_closure(r), cap, minimize_steps=True)
        if closure_result.converged:
            target = closure_result.closure
    index_closure = None
    if target is not None:
        index_closure = FINITE if _finite_index(prep, target) else INFINITE
    return AnalysisReport(
        validation=prep.validation,
        length_preserving=True,
        prefix_closed=prep.prefix_closed,
        index_wrt_relation=index_r,
        closure=closure_result,
        index_wrt_closure=index_closure,
    )
