"""Algebra of letter-to-letter relations, and the stages a decision reads.

Validation as an equivalence relation, composition, inverse, the
syntactic congruence, prefix closure, a capped transitive-closure
fixpoint, the minimum-lexicographic uniformizer that turns an
equivalence into the graph of a canonical function, and the index
check. ``Prepared`` keeps a relation's stages.

``compose`` determinizes: it runs the subset construction on sets of
pairs of the two relations' states straight into the minimal DFA of the
composition, whose dense rows (``_composed``) the closure rounds and
the public ``decision.index_is_finite`` read.
The equivalence axioms are three breadth-first walks over self-products
of a complete pair DFA (``_axioms``), on integer nodes over its dense
rows, each run on demand and returning a shortest counterexample:
validation walks all three on the relation's own determinization, the
closure search walks its first iterate, and
``synthesis.validate_closure_witness`` walks only transitivity, on a
supplied closure. The min-lex uniformizer walks pairs of state sets as
integer bitsets and builds its automaton from the dense rows of that
walk, trimmed (``_least_walk``); the same walk taking only the letters
(a, a) accepts the congruence's representatives, the words least in
their class, the stage ``Prepared.representatives``.

The index check against the relation is read off the pair DFA when
every final state is diagonal (``Prepared.own_congruence``): the
congruence is then the relation, of index 1. Otherwise, and against
every closure, the representatives' growth comes next
(``Prepared.slender``): when they have boundedly many words per length,
every length meets boundedly many classes, and so does every image of a
length-preserving target. Otherwise the target is
transitive, and finite index is finite valuedness of the target
restricted to representatives on its second track (``_index_rows``):
one product of the target's complete pair DFA with the representatives,
minimized and trimmed, the relation of the uniformizer after the target
with no uniformizer built and nothing composed. Valuedness is decided
structurally by Weber's two pumping patterns (Weber, *On the valuedness
of finite transducers*, Acta Inf. 1990), each found by Tarjan passes
(``_explore``) over a product of a trimmed minimal pair DFA with itself,
read as dense rows; there, runs that part on one input must write
different outputs, so no search tracks whether outputs have diverged.
The square pass is one search; the triple pass runs once per square
component that holds a linked pair, never leaving it. Both passes learn
what is reached from where by one forward labelling of their
components, ``_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Callable

from .automata import (
    Alphabet,
    Nfa,
    _dense,
    _dfa,
    _quotient,
    _subset_rows,
    _trim_rows,
    _unchecked,
    coaccessible_states,
    determinize,
    drop_sink,
    minimize,
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
    r-related to w. It determinizes: the result is the trimmed minimal
    DFA of the rows ``_composed`` returns, and keeps the complete one as
    its subset construction (``drop_sink``).
    """
    alphabet = pair_alphabet(s.input_alphabet, r.output_alphabet)
    minimal = drop_sink(_dfa(alphabet, *_composed(r, s)))
    return LetterTransducer(s.input_alphabet, r.output_alphabet, minimal)


def _composed(r: LetterTransducer, s: LetterTransducer) -> tuple[list, list]:
    """The minimal complete DFA of the relation of ``compose(r, s)`` as the
    dense rows and finality ``automata._quotient`` returns.

    ``automata._subset_rows`` runs on sets of (s-state, r-state) pairs,
    each coded as one integer. A pair's row at (x, z) joins, over the
    middle letters y, the moves of p1 on (x, y) with those of p2 on
    (y, z), once per pair. The start set holds the pairs of initial
    states, and a set is final when it holds a pair of final states: this
    is the subset construction of the product of the two machines.
    """
    if s.output_alphabet != r.input_alphabet:
        raise AlphabetMismatchError(
            "composition needs the first-applied output alphabet to match "
            "the second relation's input alphabet"
        )
    ny, nz = len(r.input_alphabet), len(r.output_alphabet)
    width = len(s.input_alphabet) * nz
    s_table, r_table = s.nfa._table, r.nfa._table
    lo = min(r.nfa.states, default=0)
    m = max(r.nfa.states, default=0) - lo + 1  # codes p1 * m + (p2 - lo) are distinct
    joined: dict = {}  # pair code -> its successor codes, per pair-letter position

    def join(code):
        row = joined.get(code)
        if row is None:
            p1, p2 = divmod(code, m)
            row = joined[code] = [[] for _ in range(width)]
            r_row = r_table[p2 + lo]
            for i, q1s in enumerate(s_table[p1]):
                if q1s:
                    x, y = divmod(i, ny)
                    for z, q2s in enumerate(r_row[y * nz : (y + 1) * nz], start=x * nz):
                        if q2s:
                            row[z] += [q1 * m + q2 - lo for q1 in q1s for q2 in q2s]
        return row

    accepting = {p1 * m + p2 - lo for p1 in s.nfa.finals for p2 in r.nfa.finals}
    start = frozenset(p1 * m + p2 - lo for p1 in s.nfa.initials for p2 in r.nfa.initials)
    sets, delta = _subset_rows(start, join, width)
    return _quotient([not pairs.isdisjoint(accepting) for pairs in sets], delta)


def validate_relation(r: LetterTransducer) -> RelationValidation:
    """Check the equivalence axioms on the complete pair DFA of r: the
    ``validation`` stage of r's ``Prepared`` value."""
    return _prepared(r).validation


def _axioms(d: Nfa, alphabet: Alphabet) -> tuple[Callable, Callable, Callable]:
    """The walks for reflexivity, symmetry and transitivity of the relation
    R of the complete pair DFA ``d`` over ``alphabet``: each a function of
    no arguments returning a shortest pair R lacks for its axiom to hold,
    as a word of pair letters, or None when it holds, so a caller walks
    only the axioms it asks for. With δ(u, v) the state ``d`` reaches on a
    pair of equal-length words, an axiom fails exactly when a breadth-first
    walk from the initial state reaches a counterexample:

    - reflexive: (u, u) with δ(u, u) not final, walking by the letters (a, a);
    - symmetric: (v, u) with δ(u, v) final and δ(v, u) not, moving by
      (a, b) and (b, a);
    - transitive: (u, w) with δ(u, v) and δ(v, w) final and δ(u, w) not,
      moving on (a, b, c) by (a, b), (b, c) and (a, c).

    The walks run on integer nodes over the n states of ``_dense(d)``: p,
    p·n + q and (p·n + q)·n + s for a state, pair and triple (see
    ``_shortest``). Of the shortest counterexamples, each ends on the
    first in the order of (a, b, c). A state that cannot reach a final
    state never turns final, so the symmetric and transitive walks follow
    only moves into live states on the tracks that a counterexample needs
    final.
    """
    rows = _dense(d)  # [q][a * w + b]: δ(q, (a, b))
    n, w = len(rows), len(alphabet)
    final = [q in d.finals for q in range(n)]
    live = coaccessible_states(d)
    (start,) = d.initials
    letters = d.alphabet.letters

    # each walk's moves are labelled by the pair letter R lacks
    def reflexive():
        diagonal = [row[:: w + 1] for row in rows]
        same = letters[:: w + 1]
        return _shortest(start, lambda p: diagonal[p] if final[p] else None, lambda p: same)

    def symmetric():
        swapped = [i % w * w + i // w for i in range(w * w)]  # (a, b) -> (b, a) by position
        # per state p: (δ(p, (a, b))·n, position of (b, a)) for the moves into live states
        hops = [[(t * n, swapped[i]) for i, t in enumerate(row) if t in live] for row in rows]

        def expand(node):
            p, q = divmod(node, n)
            if final[p] and not final[q]:
                return None
            back = rows[q]
            return [t + back[i] for t, i in hops[p]]

        return _shortest(
            start * (n + 1), expand, lambda node: [letters[i] for _t, i in hops[node // n]]
        )

    def transitive():
        # per state q and letter a: (b, δ(q, (a, b))·n) for the moves into live states
        ahead = [
            [[(b, t * n) for b, t in enumerate(row[a * w : a * w + w]) if t in live] for a in range(w)]
            for row in rows
        ]
        chains = [
            [(a * w, b, t * n) for a, moves in enumerate(row) for b, t in moves] for row in ahead
        ]

        def expand(node):
            pq, s = divmod(node, n)
            p, q = divmod(pq, n)
            if final[p] and final[q] and not final[s]:
                return None
            row_s, from_q = rows[s], ahead[q]
            return [t + u + row_s[aw + c] for aw, b, t in chains[p] for c, u in from_q[b]]

        def labels(node):
            p, q = divmod(node // n, n)
            return [letters[aw + c] for aw, b, _t in chains[p] for c, _u in ahead[q][b]]

        return _shortest(start * (n * n + n + 1), expand, labels)

    return reflexive, symmetric, transitive


def _shortest(start: int, expand: Callable, labels: Callable) -> tuple | None:
    """The labels along a shortest path from ``start`` to a bad node, or None
    when no node reachable from ``start`` is bad: a breadth-first walk over
    integer nodes, ``expand(node)`` being None for a bad node and otherwise
    the nodes its moves reach, in order, and ``labels(node)`` their labels,
    so of the shortest paths it returns the first in that order. A node
    keeps only the node it was first reached from, and a step's label is
    read back as that of the parent's first move into the child.
    """
    parent = {start: None}  # node -> the node it was first reached from
    queue = [start]
    for node in queue:  # the queue grows while it is walked
        moves = expand(node)
        if moves is None:
            path = []
            while (up := parent[node]) is not None:
                path.append(labels(up)[expand(up).index(node)])
                node = up
            return tuple(reversed(path))
        for nxt in moves:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


@dataclass(frozen=True)
class Prepared:
    """A relation with the stages its decisions share.

    Each stage is built on first use and kept. ``_prepared`` keeps one
    ``Prepared`` on each relation object, the only value kept there, so
    every entry point given that object shares its stages and none of
    them runs twice: the validation, the pair DFA and its diagonal
    states, prefix-closedness, the congruence and whether the relation is
    its own congruence, the congruence's representatives and whether they
    are slender, the index against the relation, the prefix closure, the
    first closure iterate, and the closure searched for each cap with the
    index against it. An equal relation built anew builds them again, a
    stage that raises keeps nothing, and the stages hold their memory for
    as long as the relation object lives. The stages past ``validation``
    and ``first_iterate`` assume an equivalence relation, which
    ``prepare`` checks.
    """

    relation: LetterTransducer

    @cached_property
    def validation(self) -> RelationValidation:
        """The equivalence axioms, one walk of ``_axioms`` each on the
        relation's complete pair DFA, which ``det`` shares. An empty
        relation is reported non-reflexive: the identity over a nonempty
        alphabet is nonempty. Mismatched input/output alphabets can never
        satisfy any of the axioms.
        """
        r = self.relation
        if not r.same_alphabets():
            return RelationValidation(False, False, False)
        return RelationValidation(
            *(walk() is None for walk in _axioms(determinize(r.nfa), r.input_alphabet))
        )

    @cached_property
    def det(self) -> LetterTransducer:
        """The complete pair DFA of the relation."""
        return pair_dfa(self.relation)

    @cached_property
    def diagonal(self) -> frozenset[int]:
        """The diagonal states of ``det``."""
        return diagonal_states(self.det)

    @cached_property
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
        """The syntactic congruence: the pair DFA with the diagonal states
        final. It shares ``det``'s transitions and transition table."""
        return self.det.with_nfa(_with_finals(self.det.nfa, self.diagonal))

    @cached_property
    def prefix(self) -> LetterTransducer:
        """``prefix_closure(relation)``, the relation whose closure is
        searched. Its subset construction is ``det`` with the live states
        final: it has the relation's transitions and initial states, so
        the same subsets, and a subset holds a state that reaches a final
        one exactly when it reaches a final subset. That construction is
        set from ``det``, sharing its table, so the relation is not
        determinized again.
        """
        d = self.det.nfa
        p = prefix_closure(self.relation)
        vars(p.nfa)["_determinized"] = _with_finals(d, coaccessible_states(d))
        return p

    @cached_property
    def first_iterate(self) -> tuple[LetterTransducer, bool]:
        """The first iterate of ``transitive_closure(relation, cap)`` and
        whether the relation is transitive, so that this iterate is the
        closure.

        The iterate is the minimal pair DFA of the relation without its
        sink (``drop_sink``, which trims it). The walks of ``_axioms`` on
        the complete one check that the relation is reflexive and
        symmetric, raising ``PreconditionError`` otherwise, and the third
        tells whether it is transitive.
        """
        p = self.relation
        minimal = minimize(p.nfa)
        reflexive, symmetric, transitive = (
            _axioms(minimal, p.input_alphabet) if p.same_alphabets() else (lambda: (),) * 3
        )
        if reflexive() is not None:
            raise PreconditionError("transitive closure needs a reflexive relation")
        if symmetric() is not None:
            raise PreconditionError("transitive closure needs a symmetric relation")
        return p.with_nfa(drop_sink(minimal)), transitive() is None

    @cached_property
    def prefix_transitive(self) -> bool:
        """Whether the prefix closure is transitive, so that the closure is
        reached with no composition round, at exponent 1 whatever the cap.
        A prefix-closed relation is its own prefix closure and, being an
        equivalence, transitive; otherwise the third walk of the prefix
        closure's ``first_iterate`` answers.
        """
        return self.prefix_closed or _prepared(self.prefix).first_iterate[1]

    @cached_property
    def representatives(self) -> tuple[list, list]:
        """The trimmed DFA of the words least in their congruence class, as
        dense rows over the input letters and finality: the diagonal walk
        of ``_least_walk`` on the congruence, which is an equivalence
        whenever the relation is, so it is not validated again."""
        return _least_walk(self.congruence, True)

    @cached_property
    def slender(self) -> bool:
        """Whether the representatives have boundedly many words per length,
        so the congruence boundedly many classes per length.

        A trim DFA accepts such a *slender* language exactly when every
        cyclic component is one simple cycle, as many inner edges as
        nodes, and no path passes through two of them (Păun and Salomaa,
        *Thin and slender languages*, 1995): one ``_explore`` pass over
        the representatives' rows, and ``_labels`` seeded past the cycles.
        """
        rows, _least = self.representatives
        _ids, comp, succ = _explore([0], lambda q: [t for t in rows[q] if t >= 0])
        spare = [0] * len(comp)  # per component: its inner edges less its nodes
        for v, out in enumerate(succ):
            spare[comp[v]] += [comp[w] for w in out].count(comp[v]) - 1
        cycles = [v for v in range(len(comp)) if spare[comp[v]] == 0]
        # the components that a cycle's exits reach lie past a cycle
        past = _labels(comp, succ, [(w, 1) for v in cycles for w in succ[v] if comp[w] != comp[v]])
        return all(s < 0 or s == 0 and not p for s, p in zip(spare, past))

    @cached_property
    def own_congruence(self) -> bool:
        """Whether the relation is its own syntactic congruence.

        The diagonal states are always final, so it is exactly when every
        final state of ``det`` is diagonal. Then every relation class holds
        one congruence class: the index against the relation is 1, and
        every matrix of the witness construction is 1 by 1.
        """
        return self.det.nfa.finals <= self.diagonal

    @cached_property
    def finite_index(self) -> bool:
        """Whether the congruence has finite index with respect to the relation.

        When the relation is its ``own_congruence`` the index is 1, and no
        representatives are walked and nothing searched. Otherwise
        ``_finite_index`` answers, from ``slender`` or by its search.
        """
        return self.own_congruence or _finite_index(self, self.relation)

    @cached_property
    def own_closure(self) -> LetterTransducer:
        """The closure ``closure`` finds for a prefix-closed relation: its
        own minimal DFA without the sink, ``drop_sink(minimize(...))``."""
        r = self.relation
        return r.with_nfa(drop_sink(minimize(r.nfa)))

    @cached_property
    def _closures(self) -> dict:
        return {}

    def closure(self, cap: int) -> tuple[ClosureResult, bool | None]:
        """The closure searched from the prefix closure with ``cap`` rounds,
        and whether the congruence has finite index with respect to it
        (None when the search did not converge), kept per cap. A search
        that converged at exponent k answers every cap of at least k: it
        stops at the same round whatever the cap above k.

        A relation that is not prefix-closed is searched by
        ``transitive_closure(prefix, cap)``. A prefix-closed relation has
        its prefix closure's language and, being an equivalence, is
        transitive, so that search would stop at exponent 1 on the minimal
        DFA of that language, ``own_closure``, whose subset construction
        is ``det``'s, and whose index is ``finite_index``. A cap below 1
        raises ``PreconditionError``.
        """
        kept = self._closures.get(cap) or next(
            (v for v in self._closures.values() if v[0].converged and v[0].exponent <= cap),
            None,
        )
        if kept is not None:
            self._closures[cap] = kept
            return kept
        if self.prefix_closed:
            _require_cap(cap)
            result = ClosureResult(self.own_closure, 1, True)
            finite = self.finite_index
        else:
            result = transitive_closure(self.prefix, cap)
            finite = _finite_index(self, result.closure) if result.converged else None
        self._closures[cap] = result, finite
        return result, finite


def _prepared(r: LetterTransducer) -> Prepared:
    """The ``Prepared`` value kept on the relation object r."""
    kept = vars(r)
    prep = kept.get("_prepared")
    if prep is None:
        prep = kept["_prepared"] = Prepared(r)
    return prep


def _with_finals(d: Nfa, finals) -> Nfa:
    """The automaton ``d`` with ``finals`` final, sharing its transitions and
    its table."""
    a = _unchecked(d.alphabet, d.states, d.transitions, d.initials, finals)
    vars(a)["_table"] = d._table
    return a


def prepare(r: LetterTransducer) -> Prepared:
    """The ``Prepared`` value of r, an equivalence relation.

    Raises ``NotEquivalenceError``, carrying the validation, on every
    call unless r is an equivalence relation.
    """
    v = validate_relation(r)
    if not v.is_equivalence:
        failed = [
            name
            for name, ok in [
                ("not reflexive", v.is_reflexive),
                ("not symmetric", v.is_symmetric),
                ("not transitive", v.is_transitive),
            ]
            if not ok
        ]
        raise NotEquivalenceError("relation is not an equivalence: " + ", ".join(failed), v)
    return _prepared(r)


def syntactic_congruence(r: LetterTransducer) -> tuple[LetterTransducer, frozenset[int]]:
    """Coarsest right congruence refining r that its pair automaton exposes.

    Returns the relation "every common continuation stays related",
    realized by the pair-deterministic automaton of r with final states
    restricted to its diagonal states, together with that diagonal set.
    The state identifiers agree with ``pair_dfa(r)``. Validates r.
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
    automaton must be final. Validates r.
    """
    return prepare(r).prefix_closed


def transitive_closure(p: LetterTransducer, cap: int) -> ClosureResult:
    """Iterate q <- q after p until the language stabilizes.

    Requires p reflexive and symmetric so every iterate is too; the first
    iterate and whether p is transitive are p's ``first_iterate`` stage.
    A transitive p is its own closure at exponent 1, with no composition
    round. Otherwise each round composes the current iterate with p by
    ``compose``, so every iterate is the trimmed minimal pair DFA of its
    language in canonical numbering (``automata._quotient`` numbers the
    blocks by their shortlex-least access words, and ``drop_sink`` keeps
    that order), and keeps the complete one as its subset construction.
    Since p is reflexive, q after p contains q, so two consecutive
    iterates realize the same relation exactly when their automata are
    equal. Stops either at the first exponent k with equal consecutive
    iterates (converged, the closure realizes the full transitive
    closure) or after ``cap`` comparisons (not converged). Running out of
    cap is a reportable outcome, not an error: in general the fixpoint
    exponent is not computable, so the iteration must not pretend
    otherwise.
    """
    _require_cap(cap)
    current, transitive = _prepared(p).first_iterate
    if transitive:
        return ClosureResult(closure=current, exponent=1, converged=True)
    for k in range(1, cap + 1):
        nxt = compose(current, p)
        if nxt.nfa == current.nfa:
            return ClosureResult(closure=current, exponent=k, converged=True)
        current = nxt
    return ClosureResult(closure=current, exponent=cap, converged=False)


def _require_cap(cap: int) -> None:
    if cap < 1:
        raise PreconditionError("closure cap must be at least 1")


def min_lex_uniformizer(s: LetterTransducer) -> LetterTransducer:
    """Graph of the function mapping each word to the least element of its class.

    "Least" is lexicographic under the output alphabet's declaration
    order. Built by one deterministic walk over nodes (equal, smaller):
    after the pair (u, v), ``equal`` holds the live states of ``s`` (those
    that reach a final state) that read (u, v), and ``smaller`` those
    that read (u, v') for some v' of the same length below v. A word
    below v b is v' b'' with v' below v, or v b' with b' below b, so on
    input letter a the output letters b are walked in order, each adding
    the moves of ``equal`` on (a, b) to ``smaller`` for the letters after
    it. A node accepts when ``equal`` holds a final state and ``smaller``
    none: s relates u to v and to no smaller word. The kernel of the
    resulting function is s itself. Validates s first; the automaton is
    that of ``_least_walk(s, False)``.
    """
    prepare(s)
    return s.with_nfa(_dfa(s.nfa.alphabet, *_least_walk(s, False)))


def _least_walk(s: LetterTransducer, diagonal: bool) -> tuple[list, list]:
    """The walk of ``min_lex_uniformizer`` over an equivalence s, as the
    dense rows and acceptance of its trimmed automaton.

    With ``diagonal`` the walk takes only the move on (a, a) at each node,
    its rows being over the input letters: it accepts the words that are
    least in their class, the fixed points of the uniformizer. A node's
    ``smaller`` still gains the moves on (a, b) for the letters b before
    a, as in the full walk, so the node reached is the same.

    Both sets of a node are integer bitsets over the live states of
    ``s.nfa``, and a set's moves per pair letter are joined once per
    distinct set. The nodes are numbered breadth first, letter positions
    in order, with a dense row each; the rows are then restricted to the
    nodes that reach an accepting one (``automata._trim_rows``).

    The walk never yields a node whose ``equal`` lies within its
    ``smaller``: both sets then move on the same letters, every later
    ``equal`` stays inside its ``smaller``, and no such node accepts, so
    the trimming would drop it and all it reaches. A pruned node reaches
    no node that survives, so the survivors are found in the same order
    and the result is the same automaton as without the pruning.
    """
    a = s.nfa
    live = sorted(coaccessible_states(a))
    bit = dict.fromkeys(a.states, 0)  # a dead state has no bit
    bit.update((q, 1 << k) for k, q in enumerate(live))
    table = a._table
    positions = len(a.alphabet)
    width = len(s.output_alphabet)
    blocks = [range(i, i + width) for i in range(0, positions, width)]  # per input letter
    # bitset -> its states' live targets joined, per pair-letter position
    joined = {0: [0] * positions}
    joined.update(
        (bit[q], [sum(map(bit.__getitem__, targets)) for targets in table[q]]) for q in live
    )

    def join(states: int) -> list:
        row = joined.get(states)
        if row is None:
            row, rest = joined[0], states
            while rest:
                low = rest & -rest
                row = list(map(or_, row, joined[low]))
                rest ^= low
            joined[states] = row
        return row

    finals = sum(bit[q] for q in a.finals)
    start = (sum(bit[q] for q in a.initials), 0)
    nodes = [start]
    ids = {start: 0}
    rows = []
    for equal, smaller in nodes:  # nodes grows while it is walked
        reach, beaten = join(equal), join(smaller)
        row = []
        for x, block in enumerate(blocks):
            below = reduce(or_, [beaten[i] for i in block])
            if diagonal:  # only the move on (x, x); the letters before x rank below it
                below = reduce(or_, [reach[i] for i in block[:x]], below)
                block = block[x : x + 1]
            for i in block:
                reached = reach[i]
                if reached & ~below:
                    node = (reached, below)
                    t = ids.setdefault(node, len(nodes))
                    if t == len(nodes):
                        nodes.append(node)
                    row.append(t)
                    below |= reached
                else:
                    row.append(-1)
        rows.append(row)
    accepting = [bool(equal & finals) and not smaller & finals for equal, smaller in nodes]
    return _trim_rows(rows, accepting)


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


def _has_transfer(moves: list, linked: list[tuple[int, int]], inside: set[int]) -> bool:
    """Loop at p, transfer p to q, loop at q, all on one input word, for a
    linked pair (p, q) of one square component, on a pair-deterministic
    machine with ``moves[q][x]`` the (output, next) moves of q on input x:
    (p, q, q) reached from (p, p, q) in the triple product, labelled by
    ``_labels`` with one bit per linked pair.

    Along such a path runs 1 and 3 walk from (p, q) back to (p, q) in the
    square, and a closed walk stays in one strongly connected component.
    So the search enters no triple (x, y, z) whose (x, z) is outside the
    pairs' component, ``inside``, given by its nodes x * n + z.
    """
    n = len(moves)

    def expand(node):
        x, y, z = node
        return [
            (x2, y2, z2)
            for xs, ys, zs in zip(moves[x], moves[y], moves[z])
            for _, x2 in xs
            for _, z2 in zs
            if x2 * n + z2 in inside
            for _, y2 in ys
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
    outputs. The linked pairs are grouped by their square component, and
    ``_has_transfer`` searches each group inside its component.
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
    linked: dict = {}  # square component -> its linked pairs
    for node, v in ids.items():
        p, q = divmod(node, n)
        if p != q and label[comp[v]] >> p & 1:
            linked.setdefault(comp[v], []).append((p, q))
    inside = {c: set() for c in linked}  # square component -> its nodes
    for node, v in ids.items():
        if comp[v] in inside:
            inside[comp[v]].add(node)
    return not any(_has_transfer(moves, pairs, inside[c]) for c, pairs in linked.items())


def _index_rows(prep: Prepared, target: LetterTransducer) -> tuple[list, list]:
    """The trimmed minimal DFA, as dense rows and finality, of the pairs
    (u, z) with u related to z by ``target`` and z least in its congruence
    class: ``target``'s complete pair DFA (``determinize``) and
    ``prep.representatives`` read on the second track, one product walked
    breadth first into ``automata._quotient``, a move the representatives
    lack going to one sink.

    For a transitive target containing the congruence this is the
    relation of ``compose(min_lex_uniformizer(prep.congruence), target)``:
    if u is related to y and z is the least word of y's class, then z is
    congruent to y, so related to it, and u is related to z; conversely
    take y = z.
    """
    d = determinize(target.nfa)
    pairs = _dense(d)
    reps, least = prep.representatives
    n, nz, width = len(reps), len(target.output_alphabet), len(d.alphabet)
    second = [[row[i % nz] for i in range(width)] for row in reps]  # per pair-letter position
    codes = [0]  # product nodes t * n + r, -1 for the sink
    ids = {0: 0}
    delta = []
    for code in codes:  # codes grows while it is walked
        targets = []
        if code >= 0:
            t, r = divmod(code, n)
            for t2, r2 in zip(pairs[t], second[r]):
                nxt = t2 * n + r2 if r2 >= 0 else -1
                k = ids.get(nxt)
                if k is None:
                    k = ids[nxt] = len(codes)
                    codes.append(nxt)
                targets.append(k)
        else:
            targets = [ids[-1]] * width
        delta.append(targets)
    finals = [code >= 0 and code // n in d.finals and least[code % n] for code in codes]
    return _trim_rows(*_quotient(finals, delta))


def _finite_index(prep: Prepared, target: LetterTransducer) -> bool:
    """``decision.index_is_finite(prep.congruence, target)`` for a
    transitive target, without its checks.

    True when ``prep.slender`` holds: a target image lies in Σⁿ, which
    meets boundedly many classes. Otherwise the valuedness search on
    ``_index_rows``, which needs the target transitive. No uniformizer is
    built and nothing composed.

    On the decision path the checks and transitivity hold by
    construction: the congruence refines the relation, which lies inside
    its prefix closure and so inside every closure fixpoint, and it is an
    equivalence; a converged closure is transitive. A supplied closure
    passes ``validate_closure_witness`` first, so it contains the prefix
    closure and is transitive too.
    """
    if prep.slender:
        return True
    rows, _finals = _index_rows(prep, target)
    return _finitely_valued(rows, len(target.output_alphabet))
