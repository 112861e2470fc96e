"""Finite automata over arbitrary finite alphabets.

Letters are any hashable values; in particular a letter may itself be a
pair of letters, which is how transducers are represented elsewhere.
State identifiers are opaque integers. Constructions return automata
with fresh contiguous identifiers. ``Nfa(...)`` checks its parts where
they enter from outside; the automata the package builds itself are
right by construction and assembled through one unchecked path here.
The product walks index an automaton's transitions once, on first use,
in one table: per state, per letter position, its targets ascending;
``successors``, ``step`` and ``outgoing`` are views of it. It and the
live states are stages kept on the automaton (``kept``).

Product constructions number their states with ``explore``, breadth
first in discovery order, and ``explored`` builds their automaton. The
one subset construction is ``_subset_rows``: ``_subset_dfa`` runs it on
bitsets of an automaton's states read from its transitions, with no
table, into dense rows that the automaton keeps (``Nfa._subset``) and
``determinize`` builds its automaton from; ``kernseq.relations.compose``
runs it on sets of pairs of states. ``_quotient`` refines dense rows to
the minimal complete DFA, which ``minimize`` returns and ``drop_sink``
trims; ``_dfa`` builds the automaton of dense rows and keeps them for
``_dense``. Inclusion runs on the fly, by one breadth-first walk over
pairs of a state of one automaton and a subset of the other's states,
which never determinizes the other in full.

All values are immutable after construction and all operations are pure
functions, so everything here can be shared freely.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress
from operator import itemgetter, or_
from typing import Callable, Hashable, Iterable

from .errors import AlphabetMismatchError

Letter = Hashable
Word = tuple

_EMPTY: frozenset = frozenset()


class kept:
    """``functools.cached_property`` as Python 3.12 has it, with no lock: ``func`` computed on
    the first read and kept in ``__dict__`` under the attribute's name, unless it raises."""

    def __init__(self, func: Callable):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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

    @kept
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

    @kept
    def _table(self) -> dict:
        """Per state, per letter position, its targets ascending: read by the product walks."""
        index = self.alphabet._index
        table = {q: [[] for _ in index] for q in self.states}
        for src, letter, dst in sorted(self.transitions, key=itemgetter(2)):
            table[src][index[letter]].append(dst)
        return table

    @kept
    def _live(self) -> frozenset[int]:
        """The states that reach a final state, found on first use and kept:
        see ``coaccessible_states``."""
        return _reach(self.finals, map(itemgetter(2, 0), self.transitions))

    @kept
    def _rows(self) -> tuple[list, list]:
        """The dense rows and finality, read once from the table: see ``_dense``."""
        table, states = self._table, range(len(self.states))
        rows = [[ts[0] if ts else -1 for ts in table[q]] for q in states]
        return rows, [q in self.finals for q in states]

    @kept
    def _subset(self) -> tuple[list, list]:
        """The subset construction as dense rows and finality (``_subset_dfa``),
        built on first use and kept: ``_determinized`` is their automaton."""
        return _subset_dfa(self)

    @kept
    def _determinized(self) -> "Nfa":
        """The automaton of ``_subset``, built on first use and kept: see ``determinize``."""
        return _dfa(self.alphabet, *self._subset)

    @kept
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

    @kept
    def is_deterministic(self) -> bool:
        rows = self._table.values()
        return len(self.initials) <= 1 and all(len(t) <= 1 for row in rows for t in row)

    @kept
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
    return _follow(starts, nxt)


def _follow(starts, nxt) -> frozenset[int]:
    """The states reachable from ``starts`` when ``nxt[q]`` lists q's successors."""
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
    """The states of ``a`` that reach a final state. Found on the first call
    and kept on ``a``, as its table is, so the stages that read the live
    states of one pair DFA walk it once."""
    return a._live


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
    a non-final state whose every move loops back to it, which
    ``_trim_dfa`` drops. When the sink is the initial state the language
    is empty and so is the result.
    """
    return _trim_dfa(a.alphabet, *_dense(a))


def _trim_dfa(alphabet: Alphabet, rows: list, finals: list) -> Nfa:
    """The trimmed DFA (``_trim_rows``) of a minimal complete DFA's rows and
    finality, kept as its subset construction (``Nfa._subset``): a trim DFA's
    subsets are its singletons, and the empty one where the sink was."""
    trimmed = _dfa(alphabet, *_trim_rows(rows, finals))
    vars(trimmed)["_subset"] = rows, finals
    return trimmed


def _coreach(rows: list, starts, step: int = 1) -> frozenset[int]:
    """The states of dense rows (-1 for no move) that reach ``starts`` along
    the moves at every ``step``-th letter position: one backward walk."""
    back: list = [[] for _ in rows]
    for q, row in enumerate(rows):
        for t in row[::step]:
            if t >= 0:
                back[t].append(q)
    return _follow(starts, back)


def _live_rows(rows: list, finals: list) -> frozenset[int]:
    """The states of dense rows that reach a final state (``_coreach``)."""
    return _coreach(rows, compress(range(len(rows)), finals))


def _trim_rows(rows: list, finals: list) -> tuple[list, list]:
    """The rows and finality of an automaton given as dense rows
    (``rows[q][i]`` the target of q at letter position i, or -1, every
    state reachable from state 0), restricted as ``trim`` restricts it:
    to the states that reach a final one (``_live_rows``), numbered in
    their order, and a move into a dropped state reading -1.
    """
    useful = sorted(_live_rows(rows, finals))
    number = [-1] * (len(rows) + 1)  # number[-1], for no move, stays -1
    for k, q in enumerate(useful):
        number[q] = k
    return [[number[t] for t in rows[q]] for q in useful], [finals[q] for q in useful]


def _dense(a: Nfa) -> tuple[list, list]:
    """The rows and finality of a deterministic ``a`` with states 0..n-1,
    ``rows[q][i]`` the target of q at letter position i or -1 for no move:
    kept on ``a``, as ``_dfa`` keeps those it builds from."""
    return a._rows


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
    the first call and kept on ``a``, from the rows ``a`` keeps
    (``Nfa._subset``), so ``a`` is determinized once, as rows or as an
    automaton; an equal but distinct ``Nfa`` is determinized afresh.
    """
    return a._determinized


def _subset_dfa(a: Nfa) -> tuple[list, list]:
    """The dense rows and finality of ``a``'s subset construction: ``_subset_rows``
    on integer bitsets of its states (``_join``), their rows read from its transitions."""
    bit = {q: 1 << k for k, q in enumerate(a.states)}
    index = a.alphabet._index
    joined = {b: [0] * len(index) for b in (0, *bit.values())}
    for src, letter, dst in a.transitions:
        joined[bit[src]][index[letter]] |= bit[dst]
    sets, delta = _subset_rows(sum(map(bit.get, a.initials)), partial(_join, joined))
    finals = sum(map(bit.get, a.finals))
    return delta, [bool(subset & finals) for subset in sets]


def _join(joined: dict, states: int) -> list:
    """The row of a bitset of states, per letter position the OR of its members' rows:
    ``joined`` holds those of 0 and of each one-member set, and no other row is kept."""
    row = joined.get(states)
    if row is None:
        members, rest = [], states
        while rest:
            low = rest & -rest
            members.append(joined[low])
            rest ^= low
        row = [reduce(or_, column) for column in zip(*members)]
    return row


def _subset_rows(start, join: Callable) -> tuple[list, list]:
    """The subset construction from the subset ``start`` as dense rows.

    ``join(s)`` lists the successor of a subset s per letter position,
    the union of its elements' targets there, the empty subset being the
    sink. Returns the subsets, numbered breadth first with positions in
    order, and ``delta[n][i]``, the number of subset n's successor at
    position i.
    """
    sets = [start]
    ids = {start: 0}
    delta = []
    for subset in sets:  # sets grows while it is walked
        targets = []
        for succ in join(subset):
            t = ids.get(succ)
            if t is None:
                t = ids[succ] = len(sets)
                sets.append(succ)
            targets.append(t)
        delta.append(targets)
    return sets, delta


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


def _quotient(delta: list, finals: list) -> tuple[list, list]:
    """The minimal complete DFA of a complete DFA given as dense rows.

    The states 0..n-1 must all be reachable from state 0, the initial
    one, and numbered breadth first: ``delta[q][i]`` is the target of
    q at letter position i and ``finals[q]`` its finality. Moore
    refinement (``refine``) from finality numbers the blocks by their
    first states, which is the order of their shortlex-least access
    words, so the result depends only on the language. Returns the
    blocks' rows and finality, the initial block being 0.
    """
    block, fresh = refine(finals, delta)
    rows = [list(targets) for _b, *targets in fresh]  # each signature in block order
    accepting = [False] * len(rows)
    for q, final in enumerate(finals):
        if final:
            accepting[block[q]] = True
    return rows, accepting


def _dfa(alphabet: Alphabet, rows: list, finals: list) -> Nfa:
    """The DFA of dense rows over ``alphabet``, -1 for no move, state 0
    initial unless there are no states, with its table set from the rows
    and the rows and finality kept as they are given."""
    letters = alphabet.letters
    d = _unchecked(
        alphabet,
        range(len(rows)),
        (
            (q, letter, t)
            for q, row in enumerate(rows)
            for letter, t in zip(letters, row)
            if t >= 0
        ),
        {0} if rows else (),
        (q for q, final in enumerate(finals) if final),
    )
    table = {q: [[t] if t >= 0 else [] for t in row] for q, row in enumerate(rows)}
    object.__setattr__(d, "_table", table)
    object.__setattr__(d, "_rows", (rows, finals))
    return d


def minimize(a: Nfa) -> Nfa:
    """Minimal deterministic complete automaton for the same language.

    ``_quotient`` of the dense rows of the input's subset construction,
    whose states are all reachable and numbered breadth first. The
    valuedness search relies on the result being deterministic, not only
    on its language.
    """
    return _dfa(a.alphabet, *_quotient(*_dense(determinize(a))))
