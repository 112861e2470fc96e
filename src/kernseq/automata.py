"""Finite automata over arbitrary finite alphabets.

Letters are any hashable values; in particular a letter may itself be a
pair of letters, which is how transducers are represented elsewhere.
State identifiers are opaque integers. Constructions return automata
with fresh contiguous identifiers and, where helpful, an ``origins``
table mapping new ids to a short description of where they came from.
The table is debugging metadata only: it is excluded from equality.

All values are immutable after construction and all operations are pure
functions, so everything here can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Mapping

from .errors import AlphabetMismatchError, PreconditionError

Letter = Hashable
Word = tuple


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
    to the alphabet. The state set may be empty (empty language).
    """

    alphabet: Alphabet
    states: frozenset[int]
    transitions: frozenset[tuple[int, Letter, int]]
    initials: frozenset[int]
    finals: frozenset[int]
    origins: Mapping[int, str] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "initials", frozenset(self.initials))
        object.__setattr__(self, "finals", frozenset(self.finals))
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
    def _step(self) -> dict:
        table: dict = {}
        for src, letter, dst in self.transitions:
            table.setdefault((src, letter), set()).add(dst)
        return {k: frozenset(v) for k, v in table.items()}

    def successors(self, state: int, letter) -> frozenset[int]:
        return self._step.get((state, letter), frozenset())

    @cached_property
    def is_deterministic(self) -> bool:
        if len(self.initials) > 1:
            return False
        return all(len(v) <= 1 for v in self._step.values())

    @cached_property
    def is_complete(self) -> bool:
        """Deterministic with a total transition function and one initial state."""
        if len(self.initials) != 1:
            return False
        return all(
            len(self._step.get((q, a), ())) == 1 for q in self.states for a in self.alphabet
        )

    def step(self, state: int, letter) -> int:
        """Single successor; only meaningful on deterministic complete automata."""
        (dst,) = self._step[(state, letter)]
        return dst

    def accepts(self, word: Word) -> bool:
        frontier = set(self.initials)
        for letter in word:
            frontier = {q for p in frontier for q in self.successors(p, letter)}
            if not frontier:
                return False
        return bool(frontier & self.finals)


def accessible_states(a: Nfa) -> frozenset[int]:
    seen = set(a.initials)
    todo = sorted(seen)
    while todo:
        p = todo.pop()
        for letter in a.alphabet:
            for q in a.successors(p, letter):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
    return frozenset(seen)


def coaccessible_states(a: Nfa) -> frozenset[int]:
    back: dict[int, set[int]] = {q: set() for q in a.states}
    for src, _letter, dst in a.transitions:
        back[dst].add(src)
    seen = set(a.finals)
    todo = sorted(seen)
    while todo:
        q = todo.pop()
        for p in back[q]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return frozenset(seen)


def trim(a: Nfa) -> Nfa:
    """Restrict to states lying on some accepting path; language unchanged."""
    useful = accessible_states(a) & coaccessible_states(a)
    renum = {q: i for i, q in enumerate(sorted(useful))}
    origins = None
    if a.origins:
        origins = {renum[q]: a.origins[q] for q in useful if q in a.origins}
    return Nfa(
        alphabet=a.alphabet,
        states=frozenset(renum.values()),
        transitions=frozenset(
            (renum[p], letter, renum[q])
            for p, letter, q in a.transitions
            if p in useful and q in useful
        ),
        initials=frozenset(renum[q] for q in a.initials if q in useful),
        finals=frozenset(renum[q] for q in a.finals if q in useful),
        origins=origins,
    )


def determinize(a: Nfa) -> Nfa:
    """Subset construction.

    The result is deterministic and complete: there is exactly one
    initial state and a total transition function, with the empty subset
    acting as the sink. Recognizes the same language.
    """
    initial = frozenset(a.initials)
    ids = {initial: 0}
    order = [initial]
    transitions = []
    i = 0
    while i < len(order):
        subset = order[i]
        i += 1
        for letter in a.alphabet:
            succ = frozenset(q for p in subset for q in a.successors(p, letter))
            if succ not in ids:
                ids[succ] = len(order)
                order.append(succ)
            transitions.append((ids[subset], letter, ids[succ]))
    origins = {ids[s]: "{" + ",".join(map(str, sorted(s))) + "}" for s in order}
    return Nfa(
        alphabet=a.alphabet,
        states=frozenset(range(len(order))),
        transitions=frozenset(transitions),
        initials=frozenset({0}),
        finals=frozenset(ids[s] for s in order if s & a.finals),
        origins=origins,
    )


def complement(a: Nfa) -> Nfa:
    """Complement of a deterministic complete automaton."""
    if not a.is_complete:
        raise PreconditionError("complement requires a deterministic complete automaton")
    return Nfa(
        alphabet=a.alphabet,
        states=a.states,
        transitions=a.transitions,
        initials=a.initials,
        finals=a.states - a.finals,
        origins=a.origins,
    )


def _check_alphabets(a: Nfa, b: Nfa):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("operands use different alphabets")


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton restricted to reachable pairs."""
    _check_alphabets(a, b)
    ids: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for p in sorted(a.initials):
        for q in sorted(b.initials):
            ids[(p, q)] = len(order)
            order.append((p, q))
    transitions = []
    i = 0
    while i < len(order):
        p, q = order[i]
        i += 1
        for letter in a.alphabet:
            for p2 in sorted(a.successors(p, letter)):
                for q2 in sorted(b.successors(q, letter)):
                    if (p2, q2) not in ids:
                        ids[(p2, q2)] = len(order)
                        order.append((p2, q2))
                    transitions.append((ids[(p, q)], letter, ids[(p2, q2)]))
    return Nfa(
        alphabet=a.alphabet,
        states=frozenset(range(len(order))),
        transitions=frozenset(transitions),
        initials=frozenset(ids[(p, q)] for p in a.initials for q in b.initials),
        finals=frozenset(
            ids[(p, q)] for (p, q) in order if p in a.finals and q in b.finals
        ),
        origins={ids[pq]: str(pq) for pq in order},
    )


def union(a: Nfa, b: Nfa) -> Nfa:
    """Disjoint union; recognizes the union of both languages."""
    _check_alphabets(a, b)
    off = (max(a.states) + 1) if a.states else 0
    renum = {q: off + i for i, q in enumerate(sorted(b.states))}
    return Nfa(
        alphabet=a.alphabet,
        states=a.states | frozenset(renum.values()),
        transitions=a.transitions
        | frozenset((renum[p], letter, renum[q]) for p, letter, q in b.transitions),
        initials=a.initials | frozenset(renum[q] for q in b.initials),
        finals=a.finals | frozenset(renum[q] for q in b.finals),
    )


def difference(a: Nfa, b: Nfa) -> Nfa:
    """Language difference L(a) minus L(b)."""
    return intersect(a, complement(determinize(b)))


def is_empty(a: Nfa) -> bool:
    return not (accessible_states(a) & a.finals)


def includes(a: Nfa, b: Nfa) -> bool:
    """True iff the language of ``a`` is included in the language of ``b``."""
    return is_empty(intersect(a, complement(determinize(b))))


def language_equal(a: Nfa, b: Nfa) -> bool:
    return includes(a, b) and includes(b, a)


def minimize(a: Nfa) -> Nfa:
    """Minimal deterministic complete automaton for the same language.

    Moore partition refinement over the reachable part of a
    deterministic complete input. Used as an optional size optimization;
    semantics never depend on it.
    """
    if not a.is_complete:
        a = determinize(a)
    reach = sorted(accessible_states(a))
    block = {q: (q in a.finals) for q in reach}
    while True:
        signature = {
            q: (block[q], tuple(block[a.step(q, letter)] for letter in a.alphabet))
            for q in reach
        }
        fresh: dict = {}
        for q in reach:
            fresh.setdefault(signature[q], len(fresh))
        new_block = {q: fresh[signature[q]] for q in reach}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    (initial,) = a.initials
    return Nfa(
        alphabet=a.alphabet,
        states=frozenset(block.values()),
        transitions=frozenset(
            (block[q], letter, block[a.step(q, letter)])
            for q in reach
            for letter in a.alphabet
        ),
        initials=frozenset({block[initial]}),
        finals=frozenset(block[q] for q in reach if q in a.finals),
    )
