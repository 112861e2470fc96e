"""Independent verdict checks for the benchmark.

Nothing here calls ``kernseq.automata`` or ``kernseq.oracle``: relations
are simulated by this module's own subset walk over pair words, and
machines are run from their transition tables. Relations and machines
are read from library objects by their plain fields only, or from
witness files by this module's own parser.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

# Largest number of pair words one bounded kernel check may visit; the
# length bound per alphabet follows from it (2 letters: 5, 3 letters: 3,
# 4 letters: 2).
PAIR_WORD_BUDGET = 2000


class CheckFailed(Exception):
    """An output of the program contradicts the checker."""


@dataclass(frozen=True)
class Relation:
    """A letter-to-letter relation as an NFA over (input, output) letters."""

    letters: tuple
    edges: dict  # (state, (a, b)) -> frozenset of states
    initials: frozenset
    finals: frozenset
    live: frozenset  # states from which a final state is reachable

    @classmethod
    def of(cls, transducer) -> "Relation":
        nfa = transducer.nfa
        edges: dict = {}
        back: dict = {}
        for p, pair, q in nfa.transitions:
            edges.setdefault((p, pair), set()).add(q)
            back.setdefault(q, set()).add(p)
        live = set(nfa.finals)
        todo = list(live)
        while todo:
            for p in back.get(todo.pop(), ()):
                if p not in live:
                    live.add(p)
                    todo.append(p)
        return cls(
            letters=tuple(transducer.input_alphabet.letters),
            edges={k: frozenset(v) for k, v in edges.items()},
            initials=frozenset(nfa.initials),
            finals=frozenset(nfa.finals),
            live=frozenset(live),
        )

    def step(self, frontier: frozenset, pair) -> frozenset:
        return frozenset(q for p in frontier for q in self.edges.get((p, pair), ()))

    def accepts(self, u, v) -> bool:
        if len(u) != len(v):
            return False
        frontier = self.initials
        for pair in zip(u, v):
            frontier = self.step(frontier, pair)
        return bool(frontier & self.finals)


@dataclass(frozen=True)
class Machine:
    """An input-deterministic machine with word outputs and optional final outputs."""

    letters: tuple
    step: dict  # (state, letter) -> (output word, next state)
    initial: int
    finals: frozenset
    size: int  # number of declared states
    final_output: dict | None = None

    @classmethod
    def of(cls, machine) -> "Machine":
        base = getattr(machine, "base", machine)
        final_output = dict(machine.final_output) if base is not machine else None
        return cls(
            letters=tuple(base.input_alphabet.letters),
            step=dict(base.transitions),
            initial=base.initial,
            finals=frozenset(base.finals),
            size=len(base.states),
            final_output=final_output,
        )

    def run(self, word):
        """Output word, or None when the machine rejects the input."""
        q = self.initial
        out: list = []
        for a in word:
            hop = self.step.get((q, a))
            if hop is None:
                return None
            out.extend(hop[0])
            q = hop[1]
        if q not in self.finals:
            return None
        if self.final_output is not None:
            out.append(("final", self.final_output[q]))
        return tuple(out)


def parse_machine(text: str) -> Machine:
    """Read a ``sequential`` or ``subsequential`` witness file."""
    header: dict = {}
    step: dict = {}
    final_output: dict = {}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        if key in ("kind", "inputs", "outputs", "states", "initial", "finals"):
            header[key] = tokens[1:]
        elif key == "finalout":
            final_output[int(tokens[1])] = tokens[2]
        else:
            if len(tokens) < 6 or tokens[2] != "/" or tokens[-2] != "->":
                raise CheckFailed(f"unreadable witness line: {raw!r}")
            out = () if tokens[3:-2] == ["-"] else tuple(tokens[3:-2])
            step[(int(tokens[0]), tokens[1])] = (out, int(tokens[-1]))
    kind = header.get("kind", [None])[0]
    if kind not in ("sequential", "subsequential"):
        raise CheckFailed(f"witness file has kind {kind!r}")
    return Machine(
        letters=tuple(header["inputs"]),
        step=step,
        initial=int(header["initial"][0]),
        finals=frozenset(int(q) for q in header["finals"]),
        size=len(header["states"]),
        final_output=final_output if kind == "subsequential" else None,
    )


def check_length(letter_count: int) -> int:
    """Longest word length whose pair words fit in ``PAIR_WORD_BUDGET``."""
    total, n = 1, 0
    while total + letter_count ** (2 * (n + 1)) <= PAIR_WORD_BUDGET:
        n += 1
        total += letter_count ** (2 * n)
    return n


def related_pairs(relation: Relation, max_len: int) -> list[set]:
    """Entry n: the set of index pairs (i, j) of related words of length n.

    Words of length n are indexed in ``itertools.product`` order.
    """
    index = {
        w: i
        for n in range(max_len + 1)
        for i, w in enumerate(itertools.product(relation.letters, repeat=n))
    }
    related: list[set] = [set() for _ in range(max_len + 1)]
    # Depth-first over pair words, keeping the frontier of the prefix.
    stack = [((), (), relation.initials)]
    while stack:
        u, v, frontier = stack.pop()
        if frontier & relation.finals:
            related[len(u)].add((index[u], index[v]))
        if len(u) == max_len:
            continue
        for a in relation.letters:
            for b in relation.letters:
                nxt = relation.step(frontier, (a, b))
                if nxt:
                    stack.append((u + (a,), v + (b,), nxt))
    return related


def kernel_mismatch(relation: Relation, machine: Machine, related: list[set]):
    """A pair of words on which the machine's kernel and the relation differ.

    Returns ``None`` when they agree on every pair of words up to the
    length covered by ``related``.
    """
    if machine.letters != relation.letters:
        return ((), ())
    for n, pairs in enumerate(related):
        words = list(itertools.product(relation.letters, repeat=n))
        groups: dict = {}
        for i, w in enumerate(words):
            out = machine.run(w)
            if out is not None:
                groups.setdefault(out, []).append(i)
        kernel = {(i, j) for g in groups.values() for i in g for j in g}
        if kernel != pairs:
            i, j = min(kernel ^ pairs)
            return words[i], words[j]
    return None


def prefix_closure_violation(relation: Relation):
    """Shortest pair in the prefix closure of the relation but not in it.

    Breadth-first over the frontiers reachable by pair words, so the
    answer is exact: ``None`` means the relation is prefix-closed.
    """
    start = relation.initials
    parent = {start: None}
    queue = [start]
    for frontier in queue:
        if frontier & relation.live and not frontier & relation.finals:
            u, v = [], []
            node = frontier
            while parent[node] is not None:
                node, (a, b) = parent[node]
                u.append(a)
                v.append(b)
            return tuple(reversed(u)), tuple(reversed(v))
        for a in relation.letters:
            for b in relation.letters:
                nxt = relation.step(frontier, (a, b))
                if nxt and nxt not in parent:
                    parent[nxt] = (frontier, (a, b))
                    queue.append(nxt)
    return None


class Checker:
    """Checks outputs against one relation; caches what depends only on it."""

    def __init__(self, transducer):
        self.relation = Relation.of(transducer)

    @cached_property
    def related(self) -> list[set]:
        return related_pairs(self.relation, check_length(len(self.relation.letters)))

    @cached_property
    def violation(self):
        return prefix_closure_violation(self.relation)

    def witness(self, machine: Machine, what: str) -> None:
        bad = kernel_mismatch(self.relation, machine, self.related)
        if bad is not None:
            u, v = bad
            raise CheckFailed(
                f"{what}: kernel and relation differ on ({''.join(map(str, u))}, "
                f"{''.join(map(str, v))})"
            )

    def prefix_closed(self, claimed: bool, what: str) -> None:
        if claimed != (self.violation is None):
            raise CheckFailed(
                f"{what}: prefix-closed claimed {claimed}, "
                f"counterexample {self.violation}"
            )


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
