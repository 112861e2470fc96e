"""Decision procedures and verdicts.

The class-membership deciders chain the necessary conditions, each a
stage of the relation's ``relations.Prepared`` value, and, on success,
hand back a synthesized witness, built and checked exactly against the
input on its integer move table (``synthesis._Moves``).
``decide_kerseq_lp`` returns both its machines, each certified; the CLI
builds a machine only to write it. No decision enumerates words. The
index checks of ``decide_kerseq_lp`` and ``analyze`` run in one order,
``_closure_index``'s, which validates a supplied closure on every call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .automata import _quotient, _trim_rows, includes
from .errors import NotEquivalenceError, NotFinerError
from .machines import SequentialTransducer, SubsequentialTransducer
from .relations import (
    ClosureResult,
    RelationValidation,
    _composed,
    _finite_index,
    _finitely_valued,
    min_lex_uniformizer,
    prepare,
)
from .synthesis import (
    _certify,
    _eliminated,
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
    """What ``analyze`` found. ``closure`` is the searched closure, None when
    one was supplied or no search ran. ``index_wrt_closure`` is None when the
    search did not converge, and INFINITE with no search when r's own index
    is infinite and the closure needs composition rounds."""

    validation: RelationValidation
    length_preserving: bool
    prefix_closed: bool | None
    index_wrt_relation: str | None
    closure: ClosureResult | None
    index_wrt_closure: str | None


def is_finitely_valued(t: LetterTransducer) -> bool:
    """Structural finite-valuedness of the realized transduction.

    Valuedness depends only on the relation, so
    ``relations._finitely_valued`` searches the trimmed rows of its
    minimal pair DFA, the ``_quotient`` of its subset construction's rows
    (``Nfa._subset``), whose blocks are numbered by the shortlex-least
    words reaching them, whatever the input.
    """
    return _finitely_valued(_trim_rows(*_quotient(*t.nfa._subset))[0], len(t.output_alphabet))


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


def _body(table) -> tuple:
    """What the kernel check reads of a table, but its final-output letters."""
    return table.words, table.codes, table.targets, [tag is None for tag in table.tags]


def _certified_mealy(r: LetterTransducer):
    """``decide_kerseq_ll`` up to its certified, minimal table: a NO
    verdict, or (table, ``Prepared``, None)."""
    prep = prepare(r)
    if not prep.prefix_closed:
        return Verdict(Outcome.NO, reason=NOT_PREFIX_CLOSED)
    if not prep.finite_index:
        return Verdict(Outcome.NO, reason=INFINITE_INDEX)
    return _certify(_minimal(_mealy_moves(prep)), prep, "synthesized machine"), prep, None


def decide_kerseq_ll(r: LetterTransducer) -> Verdict:
    """Is r the kernel of some letter-to-letter sequential machine?

    NO verdicts carry the first failed necessary condition; YES verdicts
    carry a machine whose kernel has been checked equal to r exactly.
    Raises ``NotEquivalenceError`` unless r is an equivalence.
    """
    found = _certified_mealy(r)
    return found if isinstance(found, Verdict) else Verdict(Outcome.YES, witness=found[0].machine())


def _closure_index(prep, closure, cap):
    """The closure stage of ``decide_kerseq_lp`` and ``analyze``: the searched
    closure or None, the closure or None, and whether the congruence has
    finite index against the closure (None when the search did not converge).

    The index is monotone in its target and r lies inside every closure, so
    a finite index against the closure is finite against r, and an infinite
    one against r is infinite against the closure. A supplied closure is
    validated (``validate_closure_witness``), and then only its index is
    checked. When the closure needs composition rounds (the flag of
    ``Prepared.first_iterate`` is false) or ``cap`` is below 1, r's index
    comes first, and an infinite one ends the stage with no search and no
    raise: only relations that pass it reach the rounds, whose cost nothing
    bounds, or the refusal of a cap below 1. Otherwise the search
    (``Prepared.closure``) comes first.
    """
    if closure is not None:
        validate_closure_witness(prep.relation, closure)
        return None, closure, _finite_index(prep, closure)
    if (cap < 1 or not prep.first_iterate[1]) and not prep.finite_index:
        return None, None, False
    searched, finite = prep.closure(cap)
    return searched, searched.closure, finite


def _certified_subsequential(r: LetterTransducer, closure, cap):
    """``decide_kerseq_lp`` up to its certified, Moore-minimal subsequential
    table: a NO or UNKNOWN verdict, or (table, ``Prepared``, searched closure).
    A NO carries the searched closure only when r's own index is finite."""
    prep = prepare(r)
    searched, pplus, finite = _closure_index(prep, closure, cap)
    if finite is None:
        return Verdict(Outcome.UNKNOWN, reason=CLOSURE_CAP_EXHAUSTED, closure=searched)
    if not finite:
        shown = searched if searched is not None and prep.finite_index else None
        return Verdict(Outcome.NO, reason=INFINITE_INDEX, closure=shown)
    sub = _certify(_minimal(_subsequential_moves(prep, pplus)), prep, "subsequential witness")
    return sub, prep, searched


def _final_output_free(sub, prep):
    """The final-output-free table of a certified subsequential one, certified
    unless, with one final-output value, it is the body of ``sub`` and has its kernel."""
    witness = _eliminated(sub)
    one_class = len(set(sub.tags)) == 1
    if not one_class:
        witness = _minimal(witness)
    if not one_class or _body(witness) != _body(sub):
        _certify(witness, prep, "witness after final-output elimination")
    return witness


def decide_kerseq_lp(
    r: LetterTransducer,
    closure: LetterTransducer | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> Verdict:
    """Is r the kernel of some sequential machine (length-preserving case)?

    The closure fixpoint is either validated from the caller or searched
    up to ``cap``, in the order of ``_closure_index``; running out yields
    UNKNOWN, never a wrong answer. A NO carries the searched closure only
    when r's own index is finite. YES verdicts carry both machines,
    Moore-minimal and certified: the final-output-free witness and the
    subsequential stage it derives from. The CLI builds and certifies the
    witness only when asked.
    Raises ``NotEquivalenceError`` unless r is an equivalence.
    """
    found = _certified_subsequential(r, closure, cap)
    if isinstance(found, Verdict):
        return found
    sub, prep, searched = found
    witness = _final_output_free(sub, prep).machine()
    return Verdict(Outcome.YES, witness=witness, subsequential=sub.machine(), closure=searched)


def analyze(
    r: LetterTransducer,
    pplus: LetterTransducer | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> AnalysisReport:
    """Collect all the structural verdicts for one relation.

    Fields past validation stay unset when the input is not an
    equivalence relation. The closure and its index come from
    ``_closure_index``, and the index against r is checked only when the
    closure's is not finite.
    """
    try:
        prep = prepare(r)
    except NotEquivalenceError as exc:
        return AnalysisReport(exc.validation, True, None, None, None, None)
    searched, _closure, finite = _closure_index(prep, pplus, cap)
    index_closure = None if finite is None else FINITE if finite else INFINITE
    index_r = FINITE if finite or prep.finite_index else INFINITE
    return AnalysisReport(
        validation=prep.validation,
        length_preserving=True,
        prefix_closed=prep.prefix_closed,
        index_wrt_relation=index_r,
        closure=searched,
        index_wrt_closure=index_closure,
    )
