"""Algebra of letter-to-letter relations.

Everything a relation-level decision needs: validation as an equivalence
relation, composition, inverse, the syntactic congruence, prefix
closure, a capped transitive-closure fixpoint, and the minimum-lexicographic
uniformizer that turns an equivalence into the graph of a canonical
function. ``prepare`` validates a relation once and builds the pair DFA
and diagonal states that all the stages of one decision share.

The equivalence axioms are read off a complete pair DFA of the relation
by three deterministic walks over its self-products, one per axiom, each
looking for a reachable counterexample. Validation walks the relation's
own determinization, which ``automata.determinize`` keeps with it, so
``prepare`` builds one subset construction for validation and the pair
DFA together. The closure walks the minimal DFA that is its first
iterate: the first two walks check its reflexive and symmetric
preconditions, and when the third finds it transitive that iterate is
the closure, with no composition or inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

from .automata import (
    Alphabet,
    Nfa,
    _unchecked,
    coaccessible_states,
    determinize,
    drop_sink,
    explored,
    includes,
    minimize,
    trim,
)
from .errors import AlphabetMismatchError, NotEquivalenceError, PreconditionError
from .transducers import LetterTransducer, diagonal_states, pair_alphabet, pair_dfa


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
    swapped = _unchecked(
        pair_alphabet(r.output_alphabet, r.input_alphabet),
        r.nfa.states,
        ((p, (b, a), q) for p, (a, b), q in r.nfa.transitions),
        r.nfa.initials,
        r.nfa.finals,
    )
    return LetterTransducer(r.output_alphabet, r.input_alphabet, swapped)


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
    s_out = s.nfa.outgoing
    zs = r.output_alphabet.letters
    width = len(zs)
    # per state of r and middle letter y: its (z, target) pairs, in order
    by_middle = {
        p2: {
            y: [(z, q2) for z, q2s in zip(zs, row[i * width : (i + 1) * width]) for q2 in q2s]
            for i, y in enumerate(r.input_alphabet.letters)
        }
        for p2, row in r.nfa._table.items()
    }
    starts = [(p1, p2) for p1 in sorted(s.nfa.initials) for p2 in sorted(r.nfa.initials)]

    def successors(pair):
        p1, p2 = pair
        middle = by_middle[p2]
        for (x, y), q1 in s_out.get(p1, ()):
            for z, q2 in middle[y]:
                yield (x, z), (q1, q2)

    nfa = explored(
        pair_alphabet(s.input_alphabet, r.output_alphabet),
        starts,
        successors,
        lambda pair: pair[0] in s.nfa.finals and pair[1] in r.nfa.finals,
    )
    return LetterTransducer(s.input_alphabet, r.output_alphabet, nfa)


def validate_relation(r: LetterTransducer) -> RelationValidation:
    """Check the equivalence axioms on the complete pair DFA of r.

    One deterministic walk per axiom over a self-product of the pair
    DFA; see ``_axioms``. An empty relation is reported non-reflexive:
    the identity over a nonempty alphabet is nonempty. Mismatched
    input/output alphabets can never satisfy any of the axioms.
    """
    if not r.same_alphabets():
        return RelationValidation(False, False, False)
    return RelationValidation(*_axioms(determinize(r.nfa), r.input_alphabet))


def _axioms(d: Nfa, alphabet: Alphabet) -> Iterator[bool]:
    """Whether the relation of the complete pair DFA ``d`` over ``alphabet``
    is reflexive, symmetric and transitive, each walked when it is asked for.

    With δ(u, v) the state ``d`` reaches on a pair of equal-length words,
    each axiom fails exactly when a walk from the initial state reaches
    a counterexample:

    - reflexive: a non-final δ(u, u), walking by the letters (a, a);
    - symmetric: a pair (δ(u, v), δ(v, u)) with the first state final
      and the second not, moving by (a, b) and (b, a);
    - transitive: a triple (δ(u, v), δ(v, w), δ(u, w)) with the first
      two states final and the third not, moving on (a, b, c) by (a, b),
      (b, c) and (a, c).

    A state that cannot reach a final state never turns final, so the
    symmetric and transitive walks follow only moves into live states on
    the tracks that a counterexample needs final.
    """
    live = coaccessible_states(d)
    table = d._table  # [q][a * w + b]: [δ(q, (a, b))]
    w = len(alphabet)
    width = range(w)
    finals = d.finals
    (start,) = d.initials

    # per state q and input letter a: the (b, δ(q, (a, b))) that are live
    ahead = {
        q: [
            [(b, t) for b, (t,) in enumerate(row[a * w : (a + 1) * w]) if t in live]
            for a in width
        ]
        for q, row in table.items()
    }

    def diagonal(p):
        return [q for (q,) in table[p][:: w + 1]]

    def mirrored(pair):
        p, q = pair
        back = table[q]
        return [(p2, back[b * w + a][0]) for a, hops in enumerate(ahead[p]) for b, p2 in hops]

    def chained(triple):
        p, q, s = triple
        row_s, from_q = table[s], ahead[q]
        return [
            (p2, q2, row_s[a * w + c][0])
            for a, hops in enumerate(ahead[p])
            for b, p2 in hops
            for c, q2 in from_q[b]
        ]

    yield _never(start, diagonal, lambda p: p not in finals)
    yield _never(
        (start, start), mirrored, lambda n: n[0] in finals and n[1] not in finals
    )
    yield _never(
        (start, start, start),
        chained,
        lambda n: n[0] in finals and n[1] in finals and n[2] not in finals,
    )


def _never(start, successors: Callable, bad: Callable) -> bool:
    """True iff no node reachable from ``start`` is ``bad``."""
    seen = {start}
    todo = [start]
    while todo:
        node = todo.pop()
        if bad(node):
            return False
        for nxt in successors(node):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


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
        """Every state of the trimmed pair DFA is final.

        The subset construction reaches every state it builds, so
        trimming drops only the states that reach no final state: the
        relation is prefix-closed when every state that reaches one is
        final.
        """
        d = self.det.nfa
        return coaccessible_states(d) <= d.finals

    @cached_property
    def congruence(self) -> LetterTransducer:
        """The syntactic congruence: the pair DFA with the diagonal states final."""
        d = self.det.nfa
        return self.det.with_nfa(
            _unchecked(d.alphabet, d.states, d.transitions, d.initials, self.diagonal)
        )

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
    a = r.nfa
    return r.with_nfa(
        _unchecked(a.alphabet, a.states, a.transitions, a.initials, coaccessible_states(a))
    )


def is_prefix_closed(r: LetterTransducer) -> bool:
    """True iff r equals its prefix closure.

    Decided structurally: every state of the trimmed pair-deterministic
    automaton must be final. Validates r first.
    """
    return prepare(r).prefix_closed


def _canonical(t: LetterTransducer) -> LetterTransducer:
    return t.with_nfa(drop_sink(minimize(t.nfa)))


def transitive_closure(p: LetterTransducer, cap: int) -> ClosureResult:
    """Iterate q <- q after p until the language stabilizes.

    Requires p reflexive and symmetric so every iterate is too; both are
    read off the minimal pair DFA of p by the walks of ``_axioms``, and
    that DFA without its sink (``drop_sink``, which trims it) is the
    first iterate. Since p is reflexive, q after p contains q, so it is
    the union of the two and a single inclusion of the next iterate in
    the current one says they are equal. The first round asks whether p
    after p lies within p, that is whether p is transitive, so the third
    walk of ``_axioms`` answers it instead: a transitive p is its own
    closure at exponent 1, and only otherwise does the loop compose and
    compare, from its first round on. Every iterate is the trimmed
    minimal pair DFA of its language. Stops either at the first exponent
    k with equal consecutive iterates (converged, the closure realizes
    the full transitive closure) or after ``cap`` comparisons (not
    converged). Running out of cap is a reportable outcome, not an
    error: in general the fixpoint exponent is not computable, so the
    iteration must not pretend otherwise.
    """
    if cap < 1:
        raise PreconditionError("closure cap must be at least 1")
    minimal = minimize(p.nfa)
    axioms = _axioms(minimal, p.input_alphabet) if p.same_alphabets() else iter((False, False))
    if not next(axioms):
        raise PreconditionError("transitive closure needs a reflexive relation")
    if not next(axioms):
        raise PreconditionError("transitive closure needs a symmetric relation")
    current = p.with_nfa(drop_sink(minimal))
    if next(axioms):
        return ClosureResult(closure=current, exponent=1, converged=True)
    for k in range(1, cap + 1):
        nxt = _canonical(compose(current, p))
        if includes(nxt.nfa, current.nfa):
            return ClosureResult(closure=current, exponent=k, converged=True)
        current = nxt
    return ClosureResult(closure=current, exponent=cap, converged=False)


def min_lex_uniformizer(s: LetterTransducer) -> LetterTransducer:
    """Graph of the function mapping each word to the least element of its class.

    "Least" is lexicographic under the output alphabet's declaration
    order. Built by one deterministic walk over nodes (equal, smaller):
    after the pair (u, v), ``equal`` holds the states of ``trim(s.nfa)``
    that read (u, v) and ``smaller`` those that read (u, v') for some v'
    of the same length below v. A word below v b is v' b'' with v' below
    v, or v b' with b' below b, so on input letter a the output letters
    b are walked in order, each adding the moves of ``equal`` on (a, b)
    to ``smaller`` for the letters after it. A node accepts when
    ``equal`` holds a final state and ``smaller`` none: s relates u to v
    and to no smaller word. The kernel of the resulting function is s
    itself. Validates s first.
    """
    require_equivalence(s)
    return _uniformizer(s)


def _uniformizer(s: LetterTransducer) -> LetterTransducer:
    """``min_lex_uniformizer`` of an equivalence s, without validating it.

    The walk never yields a node whose ``equal`` lies within its
    ``smaller``: both sets then move on the same letters, every later
    ``equal`` stays inside its ``smaller``, and no such node accepts, so
    ``trim`` would drop it and all it reaches. A pruned node reaches no
    node that survives, so the survivors are found in the same order
    and the trimmed result is the same automaton as without the pruning.
    """
    base = trim(s.nfa)
    table = base._table
    letters = base.alphabet.letters
    width = len(s.output_alphabet)
    rows = [range(i, i + width) for i in range(0, len(letters), width)]  # per input letter

    def successors(node):
        equal, smaller = node
        for row in rows:
            below = frozenset().union(*[table[p][i] for p in smaller for i in row])
            for i in row:
                reached = frozenset().union(*[table[p][i] for p in equal])
                if not reached <= below:
                    yield letters[i], (reached, below)
                    below |= reached

    graph = explored(
        base.alphabet,
        [(frozenset(base.initials), frozenset())],
        successors,
        lambda node: bool(node[0] & base.finals) and not node[1] & base.finals,
    )
    return s.with_nfa(trim(graph))
