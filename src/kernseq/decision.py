"""Decision procedures and verdicts.

Finite valuedness is decided structurally by a pattern search on the
trimmed transducer; finite index reduces to it through the
uniformizer; the class-membership deciders chain the necessary
conditions and, on success, hand back a synthesized witness whose
kernel has been checked exactly against the input by
``synthesis.kernel_counterexample``. No decision enumerates words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .automata import Nfa, determinize, includes, minimize, trim
from .errors import InternalInvariantError, NotFinerError, NotLetterToLetterError
from .machines import SequentialTransducer, SubsequentialTransducer
from .relations import (
    ClosureResult,
    RelationValidation,
    compose,
    is_prefix_closed,
    min_lex_uniformizer,
    prefix_closure,
    require_equivalence,
    syntactic_congruence,
    transitive_closure,
    validate_relation,
)
from .transducers import LetterTransducer

NOT_LENGTH_PRESERVING = "NOT_LENGTH_PRESERVING"
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


def _outgoing_by_input(nfa: Nfa) -> dict:
    table: dict = {}
    for p, (a, b), q in nfa.transitions:
        table.setdefault((p, a), []).append((b, q))
    return table


def _has_same_state_divergent_loops(nfa: Nfa) -> bool:
    """Some useful state carries two equal-input loops with different outputs."""
    adjacency: dict = {}
    by_letter: dict = {}
    for p, (a, b), q in nfa.transitions:
        by_letter.setdefault(a, []).append((p, b, q))
    for items in by_letter.values():
        for p1, b1, q1 in items:
            for p2, b2, q2 in items:
                adjacency.setdefault((p1, p2), []).append(((q1, q2), b1 != b2))
    for q in sorted(nfa.states):
        start = ((q, q), False)
        target = ((q, q), True)
        seen = {start}
        todo = [start]
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


def _square_reach_from_diagonal(nfa: Nfa, adjacency: dict, p: int) -> set:
    seen = {(p, p)}
    todo = [(p, p)]
    while todo:
        pair = todo.pop()
        for (nxt, _diff) in adjacency.get(pair, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def _has_transfer_divergence(nfa: Nfa) -> bool:
    """Loop at p, transfer p to q, loop at q, all on one input word, with
    the loop-transfer and transfer-loop outputs disagreeing somewhere.

    Since outputs here are always letter-per-letter, disagreement of the
    concatenations reduces to a letterwise difference along the triple.
    """
    by_letter: dict = {}
    for p, (a, b), q in nfa.transitions:
        by_letter.setdefault(a, []).append((p, b, q))
    square: dict = {}
    for items in by_letter.values():
        for p1, b1, q1 in items:
            for p2, b2, q2 in items:
                square.setdefault((p1, p2), []).append(((q1, q2), b1 != b2))
    step: dict = {}
    for p, (a, b), q in nfa.transitions:
        step.setdefault((p, a), []).append((b, q))
    letters = sorted({a for (_p, (a, _b), _q) in nfa.transitions}, key=repr)

    for p in sorted(nfa.states):
        companions = _square_reach_from_diagonal(nfa, square, p)
        for q in sorted(nfa.states):
            if q == p or (p, q) not in companions:
                continue
            start = (p, p, q, False)
            target = (p, q, q, True)
            seen = {start}
            todo = [start]
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


def is_finitely_valued(t: LetterTransducer) -> bool:
    """Structural finite-valuedness of the realized transduction.

    Infinite exactly when the trimmed machine shows one of the two
    pumpable patterns: a state with two equal-input loops of different
    output, or a divergent loop-transfer-loop triple. Both searches run
    on input-synchronized products.
    """
    nfa = trim(t.nfa)
    if len(nfa.states) > _CANONICALIZE_THRESHOLD:
        nfa = trim(minimize(determinize(nfa)))
    if not nfa.states:
        return True
    if _has_same_state_divergent_loops(nfa):
        return False
    if _has_transfer_divergence(nfa):
        return False
    return True


def index_is_finite(s: LetterTransducer, r: LetterTransducer) -> bool:
    """Whether finitely many s-classes meet any single r-image.

    Reduces to finite valuedness of (canonical function of s) after r.
    """
    if not includes(s.nfa, r.nfa):
        raise NotFinerError("first relation is not included in the second")
    f = min_lex_uniformizer(s)
    t = compose(f, r)
    return is_finitely_valued(t)


def _letter_to_letter_consistent(r: LetterTransducer) -> bool:
    return all(
        isinstance(letter, tuple) and len(letter) == 2
        for _p, letter, _q in r.nfa.transitions
    )


def _certify(machine, r: LetterTransducer, lag: int, what: str) -> None:
    """Raise unless the kernel of a synthesized machine is exactly r."""
    from .synthesis import kernel_counterexample

    try:
        pair = kernel_counterexample(machine, r, lag)
    except NotLetterToLetterError as exc:
        raise InternalInvariantError(f"{what}: {exc}") from exc
    if pair is not None:
        raise InternalInvariantError(f"{what} kernel differs from input on {pair}")


def decide_kerseq_ll(r: LetterTransducer) -> Verdict:
    """Is r the kernel of some letter-to-letter sequential machine?

    NO verdicts carry the first failed necessary condition; YES verdicts
    carry a machine whose kernel has been checked equal to r exactly.
    """
    from .synthesis import synthesize_mealy

    require_equivalence(r)
    if not _letter_to_letter_consistent(r):
        return Verdict(Outcome.NO, reason=NOT_LENGTH_PRESERVING)
    if not is_prefix_closed(r):
        return Verdict(Outcome.NO, reason=NOT_PREFIX_CLOSED)
    s, _diag = syntactic_congruence(r)
    if not index_is_finite(s, r):
        return Verdict(Outcome.NO, reason=INFINITE_INDEX)
    witness = synthesize_mealy(r, precheck=False)
    _certify(witness, r, 0, "synthesized machine")
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
    """
    from .synthesis import (
        eliminate_final_output,
        synthesize_subsequential,
        validate_closure_witness,
    )

    require_equivalence(r)
    if not _letter_to_letter_consistent(r):
        return Verdict(Outcome.NO, reason=NOT_LENGTH_PRESERVING)
    s, _diag = syntactic_congruence(r)
    if not index_is_finite(s, r):
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
    if not index_is_finite(s, pplus):
        return Verdict(Outcome.NO, reason=INFINITE_INDEX, closure=closure_result)
    sub = synthesize_subsequential(r, pplus, precheck=False)
    witness = eliminate_final_output(sub)
    lag = len(set(sub.final_output.values()))
    _certify(sub, r, lag, "subsequential witness")
    _certify(witness, r, lag, "witness after final-output elimination")
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
    a fixpoint was found or supplied.
    """
    from .synthesis import validate_closure_witness

    validation = validate_relation(r)
    if not validation.is_equivalence:
        return AnalysisReport(validation, validation.is_letter_to_letter, None, None, None, None)
    prefix_closed = is_prefix_closed(r)
    s, _diag = syntactic_congruence(r)
    index_r = FINITE if index_is_finite(s, r) else INFINITE
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
        index_closure = FINITE if index_is_finite(s, target) else INFINITE
    return AnalysisReport(
        validation=validation,
        length_preserving=True,
        prefix_closed=prefix_closed,
        index_wrt_relation=index_r,
        closure=closure_result,
        index_wrt_closure=index_closure,
    )
