"""Algebra of letter-to-letter relations.

Everything a relation-level decision needs: validation as an equivalence
relation, composition, inverse, the syntactic congruence, prefix
closure, a capped transitive-closure fixpoint, and the minimum-lexicographic
uniformizer that turns an equivalence into the graph of a canonical
function. ``prepare`` validates a relation once and builds the pair DFA
and diagonal states that all the stages of one decision share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .automata import (
    Nfa,
    determinize,
    coaccessible_states,
    includes,
    intersect,
    complement,
    language_equal,
    minimize,
    trim,
    union,
)
from .errors import AlphabetMismatchError, NotEquivalenceError, PreconditionError
from .transducers import (
    LetterTransducer,
    diagonal_states,
    identity,
    pair_alphabet,
    pair_dfa,
)


@dataclass(frozen=True)
class RelationValidation:
    """Outcome of checking a transducer against the equivalence axioms."""

    is_reflexive: bool
    is_symmetric: bool
    is_transitive: bool

    @property
    def is_equivalence(self) -> bool:
        return self.is_reflexive and self.is_symmetric and self.is_transitive


@dataclass(frozen=True)
class ClosureResult:
    closure: LetterTransducer
    exponent: int
    converged: bool


def inverse(r: LetterTransducer) -> LetterTransducer:
    """Swap the two tracks: realizes the pairs (v, u) for u related to v."""
    swapped = Nfa(
        alphabet=pair_alphabet(r.output_alphabet, r.input_alphabet),
        states=r.nfa.states,
        transitions=frozenset((p, (b, a), q) for p, (a, b), q in r.nfa.transitions),
        initials=r.nfa.initials,
        finals=r.nfa.finals,
        origins=r.nfa.origins,
    )
    return LetterTransducer(r.output_alphabet, r.input_alphabet, swapped)


def _outgoing(nfa: Nfa) -> dict:
    """Per state, its (letter, target) pairs in alphabet order, then by target."""
    table: dict = {}
    for src, letter, dst in nfa.transitions:
        table.setdefault(src, []).append((letter, dst))
    for src in table:
        table[src].sort(key=lambda item: (nfa.alphabet.index(item[0]), item[1]))
    return table


def compose(r: LetterTransducer, s: LetterTransducer) -> LetterTransducer:
    """Relational composition: ``compose(r, s)`` applies ``s`` first.

    Realizes the pairs (u, w) such that u is s-related to some v and v is
    r-related to w, joining the two machines on the middle letter.
    """
    if s.output_alphabet != r.input_alphabet:
        raise AlphabetMismatchError(
            "composition needs the first-applied output alphabet to match "
            "the second relation's input alphabet"
        )
    s_out = _outgoing(s.nfa)
    by_middle: dict = {}
    for p2, (y, z), q2 in r.nfa.transitions:
        by_middle.setdefault((p2, y), []).append((z, q2))
    for key in by_middle:
        by_middle[key].sort(key=lambda item: (r.output_alphabet.index(item[0]), item[1]))
    ids: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for p1 in sorted(s.nfa.initials):
        for p2 in sorted(r.nfa.initials):
            ids[(p1, p2)] = len(order)
            order.append((p1, p2))
    transitions = []
    i = 0
    while i < len(order):
        p1, p2 = order[i]
        i += 1
        for (x, y), q1 in s_out.get(p1, ()):
            for z, q2 in by_middle.get((p2, y), ()):
                dst = (q1, q2)
                if dst not in ids:
                    ids[dst] = len(order)
                    order.append(dst)
                transitions.append((ids[(p1, p2)], (x, z), ids[dst]))
    nfa = Nfa(
        alphabet=pair_alphabet(s.input_alphabet, r.output_alphabet),
        states=frozenset(range(len(order))),
        transitions=frozenset(transitions),
        initials=frozenset(
            ids[(p1, p2)] for p1 in s.nfa.initials for p2 in r.nfa.initials
        ),
        finals=frozenset(
            ids[pq] for pq in order if pq[0] in s.nfa.finals and pq[1] in r.nfa.finals
        ),
        origins={ids[pq]: str(pq) for pq in order},
    )
    return LetterTransducer(s.input_alphabet, r.output_alphabet, nfa)


def relation_union(a: LetterTransducer, b: LetterTransducer) -> LetterTransducer:
    if a.input_alphabet != b.input_alphabet or a.output_alphabet != b.output_alphabet:
        raise AlphabetMismatchError("union needs identical alphabets")
    return a.with_nfa(union(a.nfa, b.nfa))


def validate_relation(r: LetterTransducer) -> RelationValidation:
    """Check the equivalence axioms by automata inclusion.

    An empty relation is reported non-reflexive: the identity over a
    nonempty alphabet is nonempty. Mismatched input/output alphabets can
    never satisfy any of the axioms.
    """
    if not r.same_alphabets():
        return RelationValidation(False, False, False)
    ident = identity(r.input_alphabet).nfa
    reflexive = includes(ident, r.nfa)
    symmetric = includes(inverse(r).nfa, r.nfa)
    transitive = includes(compose(r, r).nfa, r.nfa)
    return RelationValidation(reflexive, symmetric, transitive)


def require_equivalence(r: LetterTransducer) -> RelationValidation:
    v = validate_relation(r)
    if not v.is_equivalence:
        raise NotEquivalenceError(
            "relation is not an equivalence: "
            + ", ".join(
                name
                for name, ok in [
                    ("not reflexive", v.is_reflexive),
                    ("not symmetric", v.is_symmetric),
                    ("not transitive", v.is_transitive),
                ]
                if not ok
            ),
            v,
        )
    return v


@dataclass(frozen=True)
class Prepared:
    """An equivalence relation with the groundwork its stages share.

    ``det`` is the complete pair DFA of the relation and ``diagonal`` its
    diagonal states. Built once per decision by ``prepare``, so no stage
    validates or determinizes the relation again.
    """

    relation: LetterTransducer
    validation: RelationValidation
    det: LetterTransducer
    diagonal: frozenset[int]

    @property
    def prefix_closed(self) -> bool:
        """Every state of the trimmed pair DFA is final."""
        d = trim(self.det.nfa)
        return d.finals == d.states

    @cached_property
    def congruence(self) -> LetterTransducer:
        """The syntactic congruence: the pair DFA with the diagonal states final."""
        return self.det.with_nfa(replace(self.det.nfa, finals=self.diagonal))

    @cached_property
    def uniformizer(self) -> LetterTransducer:
        """``min_lex_uniformizer`` of the congruence, which is an equivalence
        whenever the relation is, so it is not validated again."""
        return _uniformizer(self.congruence)


def prepare(r: LetterTransducer) -> Prepared:
    """Validate r once and build its pair DFA and diagonal states.

    Raises ``NotEquivalenceError``, carrying the validation, unless r is
    an equivalence relation.
    """
    validation = require_equivalence(r)
    det = pair_dfa(r)
    return Prepared(r, validation, det, diagonal_states(det))


def syntactic_congruence(r: LetterTransducer) -> tuple[LetterTransducer, frozenset[int]]:
    """Coarsest right congruence refining r that its pair automaton exposes.

    Returns the relation "every common continuation stays related",
    realized by the pair-deterministic automaton of r with final states
    restricted to its diagonal states, together with that diagonal set.
    The state identifiers agree with ``pair_dfa(r)``. Validates r first;
    the deciders read both from their ``Prepared`` value instead.
    """
    prep = prepare(r)
    return prep.congruence, prep.diagonal


def prefix_closure(r: LetterTransducer) -> LetterTransducer:
    """Make every state that can reach a final state final.

    The result relates u to v exactly when some equal-length suffixes
    extend them to a related pair.
    """
    return r.with_nfa(replace(r.nfa, finals=coaccessible_states(r.nfa)))


def is_prefix_closed(r: LetterTransducer) -> bool:
    """True iff r equals its prefix closure.

    Decided structurally: every state of the trimmed pair-deterministic
    automaton must be final. Validates r first.
    """
    return prepare(r).prefix_closed


def _canonical(t: LetterTransducer, minimize_steps: bool) -> LetterTransducer:
    nfa = trim(determinize(t.nfa))
    if minimize_steps:
        nfa = trim(minimize(determinize(nfa)))
    return t.with_nfa(nfa)


def transitive_closure(
    p: LetterTransducer, cap: int, minimize_steps: bool = False
) -> ClosureResult:
    """Iterate q <- q union (q after p) until the language stabilizes.

    Requires p reflexive and symmetric so every iterate is too. Stops
    either at the first exponent k with equal consecutive iterates
    (converged, the closure realizes the full transitive closure) or
    after ``cap`` comparisons (not converged). Running out of cap is a
    reportable outcome, not an error: in general the fixpoint exponent
    is not computable, so the iteration must not pretend otherwise.
    """
    if cap < 1:
        raise PreconditionError("closure cap must be at least 1")
    ident = identity(p.input_alphabet).nfa if p.same_alphabets() else None
    if ident is None or not includes(ident, p.nfa):
        raise PreconditionError("transitive closure needs a reflexive relation")
    if not includes(inverse(p).nfa, p.nfa):
        raise PreconditionError("transitive closure needs a symmetric relation")
    current = _canonical(p, minimize_steps)
    for k in range(1, cap + 1):
        stepped = relation_union(current, compose(current, p))
        nxt = _canonical(stepped, minimize_steps)
        if language_equal(nxt.nfa, current.nfa):
            return ClosureResult(closure=current, exponent=k, converged=True)
        current = nxt
    return ClosureResult(closure=current, exponent=cap, converged=False)


def min_lex_uniformizer(s: LetterTransducer) -> LetterTransducer:
    """Graph of the function mapping each word to the least element of its class.

    "Least" is lexicographic under the output alphabet's declaration
    order. Built by intersecting s with the complement of its "beaten"
    pairs: (u, v) is beaten when some strictly smaller v' of the same
    length is also related to u. The kernel of the resulting function is
    s itself. Validates s first.
    """
    require_equivalence(s)
    return _uniformizer(s)


def _uniformizer(s: LetterTransducer) -> LetterTransducer:
    base = trim(s.nfa)
    out_idx = s.output_alphabet.index
    outgoing = _outgoing(base)

    # States (real run, guessed smaller run, strictly-smaller-yet flag).
    ids: dict = {}
    order = []
    for p1 in sorted(base.initials):
        for p2 in sorted(base.initials):
            ids[(p1, p2, 0)] = len(order)
            order.append((p1, p2, 0))
    transitions = []
    i = 0
    while i < len(order):
        p1, p2, mode = order[i]
        i += 1
        for (a, b), q1 in outgoing.get(p1, ()):
            for (a2, b2), q2 in outgoing.get(p2, ()):
                if a2 != a:
                    continue
                if mode == 1:
                    nxt_mode = 1
                elif out_idx(b2) < out_idx(b):
                    nxt_mode = 1
                elif out_idx(b2) == out_idx(b):
                    nxt_mode = 0
                else:
                    continue  # the guess went lexicographically above; unrecoverable
                dst = (q1, q2, nxt_mode)
                if dst not in ids:
                    ids[dst] = len(order)
                    order.append(dst)
                transitions.append((ids[(p1, p2, mode)], (a, b), ids[dst]))
    beaten = Nfa(
        alphabet=base.alphabet,
        states=frozenset(range(len(order))),
        transitions=frozenset(transitions),
        initials=frozenset(
            ids[(p1, p2, 0)] for p1 in base.initials for p2 in base.initials
        ),
        finals=frozenset(
            ids[t] for t in order if t[2] == 1 and t[0] in base.finals and t[1] in base.finals
        ),
    )
    graph = trim(intersect(base, complement(determinize(beaten))))
    return s.with_nfa(graph)
