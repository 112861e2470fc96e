"""Finite automata over arbitrary finite alphabets.

Letters are any hashable values; in particular a letter may itself be a
pair of letters, which is how transducers are represented elsewhere.
State identifiers are opaque integers. Constructions return automata
with fresh contiguous identifiers.

Every product construction in the package numbers its states with
``explore`` in breadth-first discovery order from its start states, and
all but the subset construction are built by ``explored``; the subset
construction also reads its own table off the exploration. ``Nfa(...)``
checks its parts where they enter from outside. The automata the
package builds itself are right by construction, and all of them are
assembled through one unchecked path in this module. An automaton
indexes its transitions once, on first use, in one table: per state,
per letter position, its targets ascending. Every walk here and in the
products elsewhere reads that table by letter position; ``successors``,
``step`` and ``outgoing`` are views of it.

Inclusion runs on the fly: one breadth-first walk over pairs (state of
``a``, subset of ``b``'s states) follows ``a``'s own transitions and
never determinizes ``b`` in full. It stops at the first pair reached by
a word that ``a`` accepts and ``b`` rejects; ``inclusion_counterexample``
returns that word, a shortest one, and ``includes`` whether there is
none.

An automaton keeps its subset construction the same way, built on
first use, so ``determinize`` runs once per automaton however many
stages ask for it.

All values are immutable after construction and all operations are pure
functions, so everything here can be shared freely.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Hashable, Iterable

from .errors import AlphabetMismatchError

Letter = Hashable
Word = tuple

_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite set of letters.

    Declaration order is the fixed total order used for every
    lexicographic comparison in the package; it never depends on the
    letters' own comparison operators.
    """

    letters: tuple[Letter, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be unique")

    @cached_property
    def _index(self) -> dict:
        return {a: i for i, a in enumerate(self.letters)}

    def index(self, letter) -> int:
        return self._index[letter]

    def key(self, word: Word) -> tuple[int, ...]:
        """Lexicographic sort key of a word under the declaration order."""
        return tuple(self._index[a] for a in word)

    def __contains__(self, letter) -> bool:
        return letter in self._index

    def __iter__(self):
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton.

    ``transitions`` is a set of ``(source, letter, target)`` triples.
    Every endpoint must be a declared state and every letter must belong
    to the alphabet. The state set may be empty (empty language). The
    constructor checks this where parts enter from outside: here, in
    ``LetterTransducer.build`` and in ``fileformat.parse``. The package's
    own constructions skip the check.
    """

    alphabet: Alphabet
    states: frozenset[int]
    transitions: frozenset[tuple[int, Letter, int]]
    initials: frozenset[int]
    finals: frozenset[int]

    def __post_init__(self):
        _freeze(self, self.states, self.transitions, self.initials, self.finals)
        if not self.initials <= self.states:
            raise ValueError("initial states must be declared states")
        if not self.finals <= self.states:
            raise ValueError("final states must be declared states")
        for src, letter, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition endpoint not declared: {(src, letter, dst)}")
            if letter not in self.alphabet:
                raise ValueError(f"transition letter not in alphabet: {letter!r}")

    @cached_property
    def _table(self) -> dict:
        """Per state, per letter position, its targets ascending: read by every walk."""
        index = self.alphabet._index
        table = {q: [[] for _ in index] for q in self.states}
        for src, letter, dst in sorted(self.transitions, key=itemgetter(2)):
            table[src][index[letter]].append(dst)
        return table

    @cached_property
    def _determinized(self) -> "Nfa":
        """The subset construction, built on first use and kept: see ``determinize``."""
        return _subsets(self)

    @cached_property
    def outgoing(self) -> dict:
        """Per state, its (letter, target) pairs in alphabet order, then by target."""
        letters = self.alphabet.letters
        return {
            q: edges
            for q, row in self._table.items()
            if (edges := tuple((a, t) for a, targets in zip(letters, row) for t in targets))
        }

    def successors(self, state: int, letter) -> frozenset[int]:
        row = self._table.get(state)
        i = self.alphabet._index.get(letter)
        return _EMPTY if row is None or i is None else frozenset(row[i])

    @cached_property
    def is_deterministic(self) -> bool:
        rows = self._table.values()
        return len(self.initials) <= 1 and all(len(t) <= 1 for row in rows for t in row)

    @cached_property
    def is_complete(self) -> bool:
        """Deterministic with a total transition function and one initial state."""
        rows = self._table.values()
        return len(self.initials) == 1 and all(len(t) == 1 for row in rows for t in row)

    def step(self, state: int, letter) -> int:
        """Single successor; only meaningful on deterministic complete automata."""
        (dst,) = self._table[state][self.alphabet.index(letter)]
        return dst

    def accepts(self, word: Word) -> bool:
        frontier = set(self.initials)
        for letter in word:
            frontier = {q for p in frontier for q in self.successors(p, letter)}
            if not frontier:
                return False
        return bool(frontier & self.finals)


def _freeze(a: Nfa, states, transitions, initials, finals) -> None:
    object.__setattr__(a, "states", frozenset(states))
    object.__setattr__(a, "transitions", frozenset(transitions))
    object.__setattr__(a, "initials", frozenset(initials))
    object.__setattr__(a, "finals", frozenset(finals))


def _unchecked(alphabet: Alphabet, states, transitions, initials, finals) -> Nfa:
    """An ``Nfa`` from parts that are right by construction, not checked again."""
    a = object.__new__(Nfa)
    object.__setattr__(a, "alphabet", alphabet)
    _freeze(a, states, transitions, initials, finals)
    return a


def _reach(starts, edges) -> frozenset[int]:
    """The states reachable from ``starts`` along ``(from, to)`` edges."""
    nxt = defaultdict(list)
    for p, q in edges:
        nxt[p].append(q)
    seen = set(starts)
    todo = list(seen)
    while todo:
        for q in nxt[todo.pop()]:
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return frozenset(seen)


def accessible_states(a: Nfa) -> frozenset[int]:
    return _reach(a.initials, map(itemgetter(0, 2), a.transitions))


def coaccessible_states(a: Nfa) -> frozenset[int]:
    return _reach(a.finals, map(itemgetter(2, 0), a.transitions))


def trim(a: Nfa) -> Nfa:
    """Restrict to states lying on some accepting path, renumbered 0..n-1
    in their order; language unchanged. Returns a trim input so numbered."""
    useful = accessible_states(a) & coaccessible_states(a)
    if useful == a.states == frozenset(range(len(useful))):
        return a
    renum = {q: i for i, q in enumerate(sorted(useful))}
    return _unchecked(
        a.alphabet,
        renum.values(),
        (
            (renum[p], letter, renum[q])
            for p, letter, q in a.transitions
            if p in useful and q in useful
        ),
        (renum[q] for q in a.initials if q in useful),
        (renum[q] for q in a.finals if q in useful),
    )


def drop_sink(a: Nfa) -> Nfa:
    """``trim(a)`` for a minimal complete DFA ``a``, such as ``minimize`` returns.

    Every state of ``a`` is reachable and at most one is dead: the sink,
    a non-final state whose every move loops back to it. Dropping it and
    shifting the states above it down by one numbers the rest as
    ``trim`` does, with no reachability walk. When the sink is the
    initial state the language is empty and so is the result.
    """
    moving = {p for p, _letter, q in a.transitions if p != q}
    dead = a.states - a.finals - moving
    if not dead:
        return a
    (sink,) = dead
    if sink in a.initials:
        return _unchecked(a.alphabet, (), (), (), ())
    return _unchecked(
        a.alphabet,
        range(len(a.states) - 1),
        (
            (p - (p > sink), letter, q - (q > sink))
            for p, letter, q in a.transitions
            if q != sink and p != sink
        ),
        (q - (q > sink) for q in a.initials),
        (q - (q > sink) for q in a.finals),
    )


def explore(starts: Iterable, successors: Callable) -> tuple[list, list]:
    """Number the nodes reachable from ``starts`` in breadth-first discovery order.

    ``successors(node)`` yields ``(label, next)`` pairs and is called
    exactly once per node, in the order of the numbering. Returns the
    nodes in that order, a repeated start numbered once, and the edges
    as ``(source number, label, target number)`` triples in the order
    ``successors`` yielded them.
    """
    ids: dict = {}
    nodes: list = []
    for node in starts:
        if node not in ids:
            ids[node] = len(nodes)
            nodes.append(node)
    edges = []
    for src, node in enumerate(nodes):  # nodes grows while it is walked
        for label, nxt in successors(node):
            dst = ids.get(nxt)
            if dst is None:
                dst = ids[nxt] = len(nodes)
                nodes.append(nxt)
            edges.append((src, label, dst))
    return nodes, edges


def explored(
    alphabet: Alphabet, starts: Iterable, successors: Callable, accepting: Callable
) -> Nfa:
    """The automaton of the nodes ``explore`` reaches from ``starts``.

    States are numbered in discovery order, the distinct starts are
    initial, and the nodes that satisfy ``accepting`` are final.
    ``successors(node)`` yields ``(letter, next)`` pairs.
    """
    starts = list(starts)
    nodes, edges = explore(starts, successors)
    return _unchecked(
        alphabet,
        range(len(nodes)),
        edges,
        range(len(set(starts))),
        (n for n, node in enumerate(nodes) if accepting(node)),
    )


def determinize(a: Nfa) -> Nfa:
    """Subset construction.

    The result is deterministic and complete: there is exactly one
    initial state and a total transition function, with the empty subset
    acting as the sink. Recognizes the same language. It is built on
    the first call and kept on ``a``, as ``a``'s table is, so an
    automaton passed to several stages is determinized once; an equal
    but distinct ``Nfa`` is determinized afresh.
    """
    return a._determinized


def _subsets(a: Nfa) -> Nfa:
    """The subset construction of ``determinize``, built afresh.

    A subset's successors are the unions, letter position by letter
    position, of its states' rows in ``a``'s table. ``explore`` lists
    each subset's edges together, one per letter position in order, so
    the result's own table is read off that list, with no sort.
    """
    table = a._table
    width = len(a.alphabet)
    sink = [()] * width  # the row of the empty subset

    def successors(subset):
        rows = [table[p] for p in subset] or [sink]
        return zip(a.alphabet.letters, map(_EMPTY.union, *rows))

    nodes, edges = explore([frozenset(a.initials)], successors)
    d = _unchecked(
        a.alphabet,
        range(len(nodes)),
        edges,
        {0},
        (n for n, subset in enumerate(nodes) if subset & a.finals),
    )
    targets = [[t] for _p, _letter, t in edges]
    object.__setattr__(
        d, "_table", {q: targets[q * width : (q + 1) * width] for q in range(len(nodes))}
    )
    return d


def _check_alphabets(a: Nfa, b: Nfa):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("operands use different alphabets")


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton restricted to reachable pairs."""
    _check_alphabets(a, b)
    starts = [(p, q) for p in sorted(a.initials) for q in sorted(b.initials)]

    def successors(pair):
        p, q = pair
        for letter, p2s, q2s in zip(a.alphabet.letters, a._table[p], b._table[q]):
            for p2 in p2s:
                for q2 in q2s:
                    yield letter, (p2, q2)

    return explored(
        a.alphabet,
        starts,
        successors,
        lambda pair: pair[0] in a.finals and pair[1] in b.finals,
    )


def inclusion_counterexample(a: Nfa, b: Nfa) -> Word | None:
    """A shortest word of L(a) minus L(b), or None when L(a) is within L(b).

    Of the shortest such words it is the first in alphabet order. A
    breadth-first walk over pairs (state of ``a``, subset of ``b``)
    follows ``a``'s own transitions and steps the subset through ``b``'s
    table, so ``b`` is never determinized in full; a subset's successor
    on a letter is computed once per call. The walk stops at the first
    pair whose ``a`` state is final and whose subset holds no final
    state of ``b``. The pairs first reached by one word form a group,
    numbered consecutively, and a group is expanded letter by letter
    over all its pairs, so the pairs are numbered in the order of the
    shortest words reaching them, and of those the first in alphabet
    order; the parent pointers of the first such pair spell the word.
    """
    _check_alphabets(a, b)
    a_table, b_table = a._table, b._table
    letters = a.alphabet.letters
    a_finals = a.finals
    subsets = [frozenset(b.initials)]
    numbers = {subsets[0]: 0}
    missing = [not (subsets[0] & b.finals)]  # per subset: holds no final of b
    moves = [[None] * len(letters)]  # per subset and letter position: the successor's number
    seen: set = set()
    order: list = []
    parent: list = []  # per pair: (parent number, letter), None if initial

    def separates(pair, via) -> bool:
        """Number a new pair; true when the words reaching it are in L(a) only."""
        seen.add(pair)
        order.append(pair)
        parent.append(via)
        return pair[0] in a_finals and missing[pair[1]]

    for p in sorted(a.initials):
        if separates((p, 0), None):
            return ()
    # (first, end) numbers of the pairs that one word reaches first
    groups = [(0, len(order))] if order else []
    for lo, hi in groups:  # groups grows while it is walked
        s = order[lo][1]  # one word, so one subset of b for the whole group
        rows = [(n, a_table[order[n][0]]) for n in range(lo, hi)]
        for i, letter in enumerate(letters):
            hops = [(n, q) for n, row in rows for q in row[i]]
            if not hops:
                continue
            t = moves[s][i]
            if t is None:
                succ = _EMPTY.union(*[b_table[x][i] for x in subsets[s]])
                t = numbers.get(succ)
                if t is None:
                    numbers[succ] = t = len(subsets)
                    subsets.append(succ)
                    missing.append(not (succ & b.finals))
                    moves.append([None] * len(letters))
                moves[s][i] = t
            first = len(order)
            for n, q in hops:
                if (q, t) not in seen and separates((q, t), (n, letter)):
                    word = []
                    via = parent[-1]
                    while via is not None:
                        n, label = via
                        word.append(label)
                        via = parent[n]
                    return tuple(reversed(word))
            if len(order) > first:
                groups.append((first, len(order)))
    return None


def includes(a: Nfa, b: Nfa) -> bool:
    """True iff the language of ``a`` is included in the language of ``b``."""
    return inclusion_counterexample(a, b) is None


def language_equal(a: Nfa, b: Nfa) -> bool:
    return includes(a, b) and includes(b, a)


def refine(labels: list, delta: list) -> tuple[list[int], dict]:
    """Moore partition refinement of the states 0..n-1 of a complete machine.

    ``labels[q]`` is state q's starting signature and ``delta[q]`` its
    targets, one per letter position. Each round gives every state the
    signature (its block, its targets' blocks), until a round splits no
    block. Blocks are numbered in the order of their first states.
    Returns each state's block and, per signature of that last round,
    its block; the last round split no block, so it numbered the blocks
    as the one before it did, and each such signature is a block and its
    targets' blocks.
    """
    fresh: dict = {}
    block = [fresh.setdefault(label, len(fresh)) for label in labels]
    while True:
        count = len(fresh)
        old = block.__getitem__
        fresh = {}
        block = [
            fresh.setdefault((old(q), *map(old, row)), len(fresh))
            for q, row in enumerate(delta)
        ]
        if len(fresh) == count:
            return block, fresh


def minimize(a: Nfa) -> Nfa:
    """Minimal deterministic complete automaton for the same language.

    Moore partition refinement (``refine``) over the subset construction
    of the input, whose states are all reachable and numbered breadth
    first, starting from finality. Its table is read once into a dense
    list, ``delta[q][i]`` the target of state q on the letter at
    position i. The valuedness search relies on the result being
    deterministic, not only on its language.
    """
    d = determinize(a)
    delta = [[t for (t,) in d._table[q]] for q in range(len(d.states))]
    block, fresh = refine([q in d.finals for q in range(len(delta))], delta)
    return _unchecked(
        d.alphabet,
        range(len(fresh)),
        ((b, letter, t) for b, *ts in fresh for letter, t in zip(d.alphabet.letters, ts)),
        {block[0]},
        (block[q] for q in d.finals),
    )
