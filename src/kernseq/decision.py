"""Decision procedures and verdicts.

The class-membership deciders chain the necessary conditions, each a
stage of the relation's ``relations.Prepared`` value, and, on success,
hand back a synthesized witness, built and checked exactly against the
input on its integer move table (``synthesis._Moves``). An eliminated
witness equal to the body of a subsequential stage with one
final-output value has that stage's kernel, so one walk checks both.
No decision enumerates words. A supplied closure is validated and its
index checked on every call. Of the two index checks,
``decide_kerseq_lp`` runs the one against the closure first when no
composition round is needed to reach it, and the one against the
relation first otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .automata import _dense, _trim_rows, drop_sink, includes, minimize
from .errors import InternalInvariantError, NotEquivalenceError, NotFinerError, NotLetterToLetterError
from .machines import SequentialTransducer, SubsequentialTransducer
from .relations import (
    ClosureResult,
    Prepared,
    RelationValidation,
    _composed,
    _finite_index,
    _finitely_valued,
    min_lex_uniformizer,
    prepare,
)
from .synthesis import (
    _eliminated,
    _kernel_counterexample,
    _mealy_moves,
    _minimal,
    _subsequential_moves,
    validate_closure_witness,
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


def is_finitely_valued(t: LetterTransducer) -> bool:
    """Structural finite-valuedness of the realized transduction.

    Valuedness depends only on the relation, so
    ``relations._finitely_valued`` searches its minimal pair DFA without the sink (``drop_sink``, which
    trims it), read into dense rows. ``minimize`` numbers its blocks by
    the shortlex-least words reaching them, so its result depends only
    on the language and needs no trimmed input.
    """
    return _finitely_valued(_dense(drop_sink(minimize(t.nfa))), len(t.output_alphabet))


def index_is_finite(s: LetterTransducer, r: LetterTransducer) -> bool:
    """Whether finitely many s-classes meet any single r-image.

    Reduces to finite valuedness of (canonical function of s) after r, by
    composition, for any r. The deciders check the index by
    ``relations._finite_index`` instead, which composes nothing but needs
    a transitive r; this check is its reference.
    """
    if not includes(s.nfa, r.nfa):
        raise NotFinerError("first relation is not included in the second")
    # the rows of compose(uniformizer, r) with the sink dropped: no automaton is built
    rows, _finals = _trim_rows(*_composed(min_lex_uniformizer(s), r))
    return _finitely_valued(rows, len(s.output_alphabet))


def _certify(table, prep: Prepared, what: str) -> None:
    """Raise unless the kernel of a synthesized table's machine is exactly
    the relation, by ``synthesis._kernel_counterexample``."""
    try:
        pair = _kernel_counterexample(table, prep.det.nfa, prep.validation.is_symmetric)
    except NotLetterToLetterError as exc:
        raise InternalInvariantError(f"{what}: {exc}") from exc
    if pair is not None:
        raise InternalInvariantError(f"{what} kernel differs from input on {pair}")


def _body(table) -> tuple:
    """What the kernel check reads of a table, but its final-output letters."""
    return table.words, table.codes, table.targets, [tag is None for tag in table.tags]


def decide_kerseq_ll(r: LetterTransducer) -> Verdict:
    """Is r the kernel of some letter-to-letter sequential machine?

    NO verdicts carry the first failed necessary condition; YES verdicts
    carry a machine whose kernel has been checked equal to r exactly.
    Raises ``NotEquivalenceError`` unless r is an equivalence.
    """
    prep = prepare(r)
    if not prep.prefix_closed:
        return Verdict(Outcome.NO, reason=NOT_PREFIX_CLOSED)
    if not prep.finite_index:
        return Verdict(Outcome.NO, reason=INFINITE_INDEX)
    witness = _minimal(_mealy_moves(prep))
    _certify(witness, prep, "synthesized machine")
    return Verdict(Outcome.YES, witness=witness.machine())


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
    up to ``cap`` (``Prepared.closure``); running out yields UNKNOWN,
    never a wrong answer. YES verdicts carry the
    final-output-free witness, Moore-minimal, with the subsequential
    stage attached; ``synthesis._minimal`` merges the witness's states only
    when the stage has more than one final-output value. The stage's
    kernel is checked exactly against r, and the witness's by a walk of
    its own unless the stage has one final-output value and the witness
    equals its body.
    Raises ``NotEquivalenceError`` unless r is an equivalence.
    """
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
    sub = _minimal(_subsequential_moves(prep, pplus))
    witness = _eliminated(sub)
    one_class = len(set(sub.tags)) == 1
    if not one_class:
        witness = _minimal(witness)
    _certify(sub, prep, "subsequential witness")
    # with one final-output value, a witness equal to the body squares as sub did
    if not one_class or _body(witness) != _body(sub):
        _certify(witness, prep, "witness after final-output elimination")
    return Verdict(
        Outcome.YES, witness=witness.machine(), subsequential=sub.machine(), closure=closure_result
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

    The closure and its index come first. r lies inside the closure, so
    each r-image lies inside a closure image and meets no more
    congruence classes: a finite index against the closure is a finite
    index against r, and only otherwise is the index against r checked.
    A prefix-closed r is its own searched closure, so both indices are
    its ``Prepared.finite_index``.
    """
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
