"""Algebra of letter-to-letter relations, and the stages a decision reads.

Validation as an equivalence relation, composition, inverse, the
syntactic congruence, prefix closure, a capped transitive-closure
fixpoint, the minimum-lexicographic uniformizer, and the index check.
``Prepared`` keeps a relation's stages, and its docstring states the one
form they read: the dense rows of the relation's complete pair DFA.

``compose`` runs the subset construction on sets of pairs of the two
relations' states straight into the rows of the minimal DFA of the
composition (``_composed``). The equivalence axioms are three
breadth-first walks over self-products of such rows (``_axioms``), each
run on demand and returning a shortest counterexample. The uniformizer
and the congruence's representatives, the words least in their class,
are one walk over bitsets of states (``_least_walk``).

The index against the relation is 1 when the relation is its own
congruence (``Prepared.own_congruence``), and finite when the
representatives are slender (``Prepared.slender``). Otherwise the target
is transitive, and finite index is finite valuedness of the target
restricted to representatives on its second track (``_index_rows``).
Valuedness is decided structurally by Weber's two pumping patterns
(Weber, *On the valuedness of finite transducers*, Acta Inf. 1990),
found by Tarjan passes (``_explore``) and one forward labelling of their
components (``_labels``) over a trimmed minimal pair DFA times itself:
the square pass once, the triple pass once per square component that
holds a linked pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, count, product, repeat
from operator import or_
from typing import Callable

from .automata import (
    _EMPTY,
    Alphabet,
    Nfa,
    _breadth_first,
    _coreach,
    _dfa,
    _join,
    _live_rows,
    _quotient,
    _trim_dfa,
    _trim_rows,
    _unchecked,
    coaccessible_states,
    kept,
)
from .errors import AlphabetMismatchError, NotEquivalenceError, PreconditionError
from .transducers import LetterTransducer, _diagonal, pair_alphabet, pair_dfa


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
    r-related to w. It determinizes: the result is the ``_trimmed``
    minimal DFA of the rows ``_composed`` returns.
    """
    inputs, outputs = s.input_alphabet, r.output_alphabet
    return _trimmed(inputs, outputs, pair_alphabet(inputs, outputs), *_composed(r, s))


def _trimmed(inputs: Alphabet, outputs: Alphabet, pairs: Alphabet, rows, finals) -> LetterTransducer:
    """The transducer over ``pairs`` of a minimal complete DFA's rows and finality
    without its sink (``automata._trim_dfa``), which keeps them as its ``Prepared.rows``."""
    return LetterTransducer(inputs, outputs, _trim_dfa(pairs, rows, finals))


def _composed(r: LetterTransducer, s: LetterTransducer) -> tuple[list, list]:
    """The minimal complete DFA of the relation of ``compose(r, s)`` as the
    dense rows and finality ``automata._quotient`` returns.

    ``automata._breadth_first`` numbers sets of (s-state, r-state) pairs,
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
    sink = [[()] * width]  # the row of the empty set
    sets, delta = _breadth_first(start, lambda pairs: map(_EMPTY.union, *([join(x) for x in pairs] or sink)))
    return _quotient(delta, [not pairs.isdisjoint(accepting) for pairs in sets])


def validate_relation(r: LetterTransducer) -> RelationValidation:
    """Check the equivalence axioms on the complete pair DFA of r: the
    ``validation`` stage of r's ``Prepared`` value."""
    return _prepared(r).validation


def _axioms(rows: list, final: list, live: frozenset, alphabet: Alphabet) -> tuple:
    """The walks for reflexivity, symmetry and transitivity of the relation
    R of a complete pair DFA over ``alphabet``, given as dense rows and
    finality from state 0, ``live`` its states that reach a final one.
    Each returns a shortest pair R lacks for its axiom to hold, as a word
    of pair letters, or None, so a caller walks only the axioms it asks
    for. With δ(u, v) the state reached on a pair of equal-length words,
    an axiom fails exactly when a breadth-first walk from state 0 reaches
    a counterexample:

    - reflexive: (u, u) with δ(u, u) not final, walking by the letters (a, a);
    - symmetric: (v, u) with δ(u, v) final and δ(v, u) not, moving by
      (a, b) and (b, a);
    - transitive: (u, w) with δ(u, v) and δ(v, w) final and δ(u, w) not,
      moving on (a, b, c) by (a, b), (b, c) and (a, c).

    The walks run on integer nodes over the n states of the rows: p,
    p·n + q and (p·n + q)·n + s for a state, pair and triple (see
    ``_shortest``). Of the shortest counterexamples, each ends on the
    first in the order of (a, b, c). A state that cannot reach a final
    state never turns final, so the symmetric and transitive walks follow
    only moves into live states on the tracks that a counterexample needs
    final.

    So when R is transitive, the transitive walk reaches exactly the
    triples of (u, v) and (v, w) in R's prefix closure P, the pairs whose
    state is live, and P is transitive exactly when δ(u, w) is live on
    each. Given a list ``escapes``, the walk appends to it the third state
    of the first triple it reaches whose third state is not live.
    """
    # rows[q][a * w + b]: δ(q, (a, b))
    n, w, start = len(rows), len(alphabet), 0
    letters = tuple(product(alphabet.letters, repeat=2))  # the pair letters in order

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

    def transitive(escapes=None):
        watch = escapes is not None
        # per state q and letter a: (b, δ(q, (a, b))·n) for the moves into live states
        ahead = [
            [[(b, t * n) for b, t in enumerate(row[a * w : a * w + w]) if t in live] for a in range(w)]
            for row in rows
        ]
        chains = [
            [(a * w, b, t * n) for a, moves in enumerate(row) for b, t in moves] for row in ahead
        ]

        def expand(node):
            nonlocal watch
            pq, s = divmod(node, n)
            p, q = divmod(pq, n)
            if not final[s]:
                if final[p] and final[q]:
                    return None
                if watch and s not in live:
                    escapes.append(s)  # one escape settles it
                    watch = False
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

    The stages read one form of the relation, ``rows``: its complete pair DFA
    as dense rows and finality, ``rows[q][a * w + b]`` the target of state q
    on the pair letter (a, b) over w letters, state 0 initial, numbered as
    ``determinize`` numbers it. The relation's automaton keeps them
    (``Nfa._subset``, read from its transitions with no table), and
    ``determinize`` builds its automaton from them. Validation, liveness,
    prefix-closedness, the diagonal, the first closure iterate (the prefix
    closure's minimal DFA), the representatives, the index product, the
    witnesses and their certification read those rows. An automaton is built
    only for a value that leaves the package: ``det`` and ``congruence`` when
    asked for, and each closure's trimmed DFA (``_trimmed``), which keeps its
    complete minimal DFA's rows.

    Each stage is built on first use and kept (``automata.kept``).
    ``_prepared`` keeps one ``Prepared`` on each relation object, the only
    value kept there, so no stage runs twice for that object; an equal
    relation built anew builds them again, and a stage that raises keeps
    nothing. Only ``rows``, ``live``, ``axioms`` and ``validation`` may run on
    a relation that is not an equivalence; the others assume one, which
    ``prepare`` checks.
    """

    relation: LetterTransducer

    @kept
    def rows(self) -> tuple[list, list]:
        """The complete pair DFA, kept on the relation's automaton (``Nfa._subset``)."""
        return self.relation.nfa._subset

    @kept
    def live(self) -> frozenset[int]:
        """The states of ``rows`` that reach a final state."""
        return _live_rows(*self.rows)

    @kept
    def axioms(self) -> tuple[RelationValidation, bool]:
        """The equivalence axioms, one walk of ``_axioms`` each on ``rows``,
        and whether the prefix closure is transitive, read off the
        transitivity walk: that bit holds only for a transitive relation.
        An empty relation is reported non-reflexive: the identity over a
        nonempty alphabet is nonempty. Mismatched input/output alphabets
        can never satisfy any of the axioms.
        """
        r = self.relation
        if not r.same_alphabets():
            return RelationValidation(False, False, False), False
        reflexive, symmetric, transitive = _axioms(*self.rows, self.live, r.input_alphabet)
        escapes: list = []
        holds = reflexive() is None, symmetric() is None, transitive(escapes) is None
        return RelationValidation(*holds), not escapes

    @property
    def validation(self) -> RelationValidation:
        """The equivalence axioms (``axioms``)."""
        return self.axioms[0]

    @kept
    def det(self) -> LetterTransducer:
        """``pair_dfa(relation)``, the automaton of ``rows``."""
        return pair_dfa(self.relation)

    @kept
    def diagonal(self) -> frozenset[int]:
        """The diagonal states of ``rows`` (``transducers._diagonal``)."""
        return _diagonal(*self.rows, len(self.relation.input_alphabet))

    @kept
    def prefix_closed(self) -> bool:
        """Every state of the trimmed pair DFA is final.

        The subset construction reaches every state it builds, so
        trimming drops only the states that reach no final state: the
        relation is prefix-closed when every ``live`` state is final.
        """
        return all(map(self.rows[1].__getitem__, self.live))

    @kept
    def congruence(self) -> LetterTransducer:
        """The syntactic congruence: the pair DFA with the diagonal states
        final. It shares ``det``'s transitions and transition table."""
        return self.det.with_nfa(_with_finals(self.det.nfa, self.diagonal))

    @kept
    def first_iterate(self) -> tuple[LetterTransducer, bool]:
        """The first iterate of the closure searched from the prefix closure
        P, and whether P is transitive, so that this iterate is the closure.
        P has the relation's transitions and initial states, with its live
        states final, so its subset construction is ``rows`` with the
        ``live`` states final, and the iterate is their ``_trimmed``
        ``_quotient``. Whether P is transitive was read off the relation's
        own transitivity walk (``axioms``). P needs no reflexive or
        symmetric walk: it contains the relation, and (ux, vy) related
        makes (vy, ux) related.
        """
        r, (rows, _finals) = self.relation, self.rows
        minimal = _quotient(rows, [q in self.live for q in range(len(rows))])
        iterate = _trimmed(r.input_alphabet, r.output_alphabet, r.nfa.alphabet, *minimal)
        return iterate, self.axioms[1]

    @kept
    def representatives(self) -> tuple[list, list]:
        """The trimmed DFA of the words least in their congruence class, as
        dense rows over the input letters and finality: the diagonal walk
        of ``_least_walk`` on the congruence, ``rows`` with the diagonal
        states final."""
        rows, diagonal = self.rows[0], self.diagonal
        live = sorted(_coreach(rows, diagonal))

        def row_of(q, bit):
            return list(map(bit.get, rows[q], repeat(0)))

        return _least_walk(self.relation, live, row_of, (0,), diagonal, True)

    @kept
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

    @kept
    def own_congruence(self) -> bool:
        """Whether the relation is its own syntactic congruence.

        The diagonal states are always final, so it is exactly when every
        final state of ``rows`` is diagonal. Then every relation class holds
        one congruence class: the index against the relation is 1, and
        every matrix of the witness construction is 1 by 1.
        """
        return self.diagonal.issuperset(compress(count(), self.rows[1]))

    @kept
    def finite_index(self) -> bool:
        """Whether the congruence has finite index with respect to the relation.

        When the relation is its ``own_congruence`` the index is 1, and no
        representatives are walked and nothing searched. Otherwise
        ``_finite_index`` answers, from ``slender`` or by its search.
        """
        return self.own_congruence or _finite_index(self, self.relation)

    @kept
    def _closures(self) -> dict:
        return {}

    def closure(self, cap: int) -> tuple[ClosureResult, bool | None]:
        """The closure searched from the prefix closure with ``cap`` rounds,
        and whether the congruence has finite index with respect to it
        (None when the search did not converge), kept per cap. A search
        that converged at exponent k answers every cap of at least k.

        The search starts from ``first_iterate``, and when the prefix
        closure is not transitive runs the composition rounds (``_rounds``)
        with ``prefix_closure(relation)``, built only then. A prefix-closed
        relation's closure is itself, whose index is ``finite_index``. A cap
        below 1 raises ``PreconditionError``.
        """
        kept = self._closures.get(cap) or next(
            (v for v in self._closures.values() if v[0].converged and v[0].exponent <= cap),
            None,
        )
        if kept is not None:
            self._closures[cap] = kept
            return kept
        _require_cap(cap)
        current, transitive = self.first_iterate
        if transitive:
            result = ClosureResult(current, 1, True)
        else:
            result = _rounds(current, prefix_closure(self.relation), cap)
        finite = None
        if result.converged:
            finite = self.finite_index if self.prefix_closed else _finite_index(self, result.closure)
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
    its table once built."""
    a = _unchecked(d.alphabet, d.states, d.transitions, d.initials, finals)
    if "_table" in vars(d):
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
    extend them to a related pair. It shares r's transitions, and its table once built.
    """
    return r.with_nfa(_with_finals(r.nfa, coaccessible_states(r.nfa)))


def is_prefix_closed(r: LetterTransducer) -> bool:
    """True iff r equals its prefix closure.

    Decided structurally: every state of the trimmed pair-deterministic
    automaton must be final. Validates r.
    """
    return prepare(r).prefix_closed


def transitive_closure(p: LetterTransducer, cap: int) -> ClosureResult:
    """Iterate q <- q after p until the language stabilizes.

    Requires p reflexive and symmetric so every iterate is too, checked by
    p's ``Prepared.validation``, kept on p as for every relation; the first
    iterate is the ``_trimmed`` minimal DFA of p's ``Prepared.rows``. When p
    is transitive it is its own closure at exponent 1, with no composition
    round. Otherwise ``_rounds`` iterates. Running out of cap is a
    reportable outcome, not an error: in general the fixpoint exponent is
    not computable, so the iteration must not pretend otherwise.
    """
    _require_cap(cap)
    prep = _prepared(p)
    v = prep.validation
    if not v.is_reflexive:
        raise PreconditionError("transitive closure needs a reflexive relation")
    if not v.is_symmetric:
        raise PreconditionError("transitive closure needs a symmetric relation")
    current = _trimmed(p.input_alphabet, p.output_alphabet, p.nfa.alphabet, *_quotient(*prep.rows))
    if v.is_transitive:
        return ClosureResult(closure=current, exponent=1, converged=True)
    return _rounds(current, p, cap)


def _rounds(current: LetterTransducer, p: LetterTransducer, cap: int) -> ClosureResult:
    """The composition rounds of the closure search from a first iterate
    that is not transitive: each round composes the current iterate with
    p by ``compose``, so every iterate is the trimmed minimal pair DFA of
    its language in canonical numbering (``_trimmed``). Since p is
    reflexive, q after p contains q, so two consecutive iterates realize
    the same relation exactly when their automata are equal. Stops either
    at the first exponent k with equal consecutive iterates (converged,
    the closure realizes the full transitive closure) or after ``cap``
    comparisons (not converged).
    """
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
    a = s.nfa

    def row_of(q, bit):
        return [sum(map(bit.get, targets, repeat(0))) for targets in a._table[q]]

    walk = _least_walk(s, sorted(coaccessible_states(a)), row_of, a.initials, a.finals, False)
    return s.with_nfa(_dfa(a.alphabet, *walk))


def _least_walk(s, live: list, row_of: Callable, initials, finals, diagonal: bool) -> tuple:
    """The walk of ``min_lex_uniformizer`` over an equivalence s, as the
    dense rows and acceptance of its trimmed automaton, on an automaton of
    s given by its states that reach a final one (``live``, ascending),
    its initial and final states, and ``row_of(q, bit)``: a live state's
    targets per pair-letter position, each as the union of their ``bit``.

    With ``diagonal`` the walk takes only the move on (a, a) at each node,
    its rows being over the input letters: it accepts the words that are
    least in their class, the fixed points of the uniformizer. A node's
    ``smaller`` still gains the moves on (a, b) for the letters b before
    a, as in the full walk, so the node reached is the same.

    Both sets of a node are integer bitsets over the live states, and a
    set's moves per pair letter are joined once (``automata._join``) and
    kept. ``automata._breadth_first`` numbers the nodes, letter positions
    in order, with a dense row each; the rows are then restricted to the
    nodes that reach an accepting one (``automata._trim_rows``).

    The walk never yields a node whose ``equal`` lies within its
    ``smaller``: both sets then move on the same letters, every later
    ``equal`` stays inside its ``smaller``, and no such node accepts, so
    the trimming would drop it and all it reaches. Each such move goes to
    one dead node, None, which only reaches itself and which the trimming
    drops, so the survivors are found in the same order, the same
    automaton as without the pruning.
    """
    bit = {q: 1 << k for k, q in enumerate(live)}  # a dead state has no bit
    width = len(s.output_alphabet)
    positions = len(s.input_alphabet) * width
    blocks = range(0, positions, width)  # per input letter, its first position
    # bitset -> its states' live targets joined, per pair-letter position
    joined = {0: [0] * positions}
    joined.update((bit[q], row_of(q, bit)) for q in live)
    dead = [None] * (len(blocks) if diagonal else positions)

    def successors(node):
        if node is None:
            return dead
        equal, smaller = node
        reach = joined.setdefault(equal, _join(joined, equal))  # sets recur across nodes
        beaten = joined.setdefault(smaller, _join(joined, smaller))
        row = []
        for x, lo in enumerate(blocks):
            below = reduce(or_, beaten[lo : lo + width])
            block = range(lo, lo + width)
            if diagonal:  # only the move on (x, x); the letters before x rank below it
                below = reduce(or_, reach[lo : lo + x], below)
                block = block[x : x + 1]
            for i in block:
                reached = reach[i]
                if reached & ~below:
                    row.append((reached, below))
                    below |= reached
                else:
                    row.append(None)
        return row

    finals = sum(map(bit.get, finals, repeat(0)))
    nodes, rows = _breadth_first((sum(map(bit.get, initials, repeat(0))), 0), successors)
    accepting = [node is not None and bool(node[0] & finals) and not node[1] & finals for node in nodes]
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
    class: ``target``'s complete pair DFA (its ``Prepared.rows``) and
    ``prep.representatives`` read on the second track, one product
    numbered by ``automata._breadth_first`` into ``automata._quotient``,
    its nodes t * n + r, and a move the representatives lack going to one
    sink, -1, which lists itself as its every successor.

    For a transitive target containing the congruence this is the
    relation of ``compose(min_lex_uniformizer(prep.congruence), target)``:
    if u is related to y and z is the least word of y's class, then z is
    congruent to y, so related to it, and u is related to z; conversely
    take y = z.
    """
    pairs, accepting = _prepared(target).rows
    reps, least = prep.representatives
    n, nz = len(reps), len(target.output_alphabet)
    width = len(target.input_alphabet) * nz
    second = [[row[i % nz] for i in range(width)] for row in reps]  # per pair-letter position
    sink = [-1] * width

    def successors(code):
        if code < 0:
            return sink
        t, r = divmod(code, n)
        return [t2 * n + r2 if r2 >= 0 else -1 for t2, r2 in zip(pairs[t], second[r])]

    codes, delta = _breadth_first(0, successors)
    finals = [code >= 0 and accepting[code // n] and least[code % n] for code in codes]
    return _trim_rows(*_quotient(delta, finals))


def _finite_index(prep: Prepared, target: LetterTransducer) -> bool:
    """``decision.index_is_finite(prep.congruence, target)`` for a
    transitive target, without its checks.

    True when ``prep.slender`` holds: a target image lies in Σⁿ, which
    meets boundedly many classes. Otherwise the valuedness search on
    ``_index_rows``, which needs the target transitive.

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
