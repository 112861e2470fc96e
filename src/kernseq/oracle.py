"""Brute-force ground truth at desk scale.

Everything here recomputes semantics by direct enumeration, staying
independent of the automata constructions it is used to cross-check:
membership by run search, kernels by running machines on every word,
closures by repeated joins on enumerated pairs, minima by sorting
enumerated classes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .automata import Alphabet, Word
from .errors import BoundTooLargeError
from .machines import SequentialTransducer, SubsequentialTransducer
from .transducers import LetterTransducer

MAX_BOUND = 10
DEFAULT_SEED = 7
SEED_ENV_VAR = "KERNSEQ_ORACLE_SEED"


@dataclass(frozen=True)
class EnumeratedRelation:
    bound: int
    pairs: frozenset[tuple[Word, Word]]

    def image(self, u: Word) -> frozenset[Word]:
        return frozenset(v for (x, v) in self.pairs if x == u)

    def as_map(self) -> dict[Word, set[Word]]:
        table: dict[Word, set[Word]] = {}
        for u, v in self.pairs:
            table.setdefault(u, set()).add(v)
        return table


def _check_bound(bound: int):
    if bound > MAX_BOUND:
        raise BoundTooLargeError(f"bound {bound} exceeds maximum {MAX_BOUND}")
    if bound < 0:
        raise BoundTooLargeError("bound must be nonnegative")


def _useful_states(transitions, initials, finals) -> frozenset:
    # Local reachability both ways; the oracle keeps its own copy of this
    # logic so it never leans on the constructions it cross-checks.
    forward: dict = {}
    backward: dict = {}
    for p, _letter, q in transitions:
        forward.setdefault(p, set()).add(q)
        backward.setdefault(q, set()).add(p)

    def reach(seeds, edges):
        seen = set(seeds)
        todo = list(seeds)
        while todo:
            p = todo.pop()
            for q in edges.get(p, ()):
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        return seen

    return frozenset(reach(initials, forward) & reach(finals, backward))


def enumerate_relation(r: LetterTransducer, bound: int) -> EnumeratedRelation:
    """All related pairs with both components of length at most ``bound``.

    Depth-first walk over pair words keeping the automaton states alive
    on the current prefix; prefixes that can no longer reach a final
    state are cut immediately, so the cost follows the number of viable
    prefixes, not the full grid. Deterministic machines walk single
    states instead of frontier sets.
    """
    _check_bound(bound)
    nfa = r.nfa
    useful = _useful_states(nfa.transitions, nfa.initials, nfa.finals)
    finals = nfa.finals
    start = nfa.initials & useful
    if not start:
        return EnumeratedRelation(bound, frozenset())
    adjacency: dict = {p: [] for p in useful}
    for p, letter, q in nfa.transitions:
        if p in useful and q in useful:
            adjacency[p].append((letter, q))
    pairs = []

    if nfa.is_deterministic:
        (q0,) = start
        stack = [(q0, (), (), bound)]
        while stack:
            q, u, v, left = stack.pop()
            if q in finals:
                pairs.append((u, v))
            if left:
                for (a, b), nxt in adjacency[q]:
                    stack.append((nxt, u + (a,), v + (b,), left - 1))
    else:
        stack = [(frozenset(start), (), (), bound)]
        while stack:
            frontier, u, v, left = stack.pop()
            if frontier & finals:
                pairs.append((u, v))
            if not left:
                continue
            buckets: dict = {}
            for p in frontier:
                for letter, q in adjacency[p]:
                    buckets.setdefault(letter, set()).add(q)
            for (a, b), nxt in buckets.items():
                stack.append((frozenset(nxt), u + (a,), v + (b,), left - 1))
    return EnumeratedRelation(bound, frozenset(pairs))


def accepts_pair_backward(r: LetterTransducer, u: Word, v: Word) -> bool:
    """Membership by a backward run search from the final states.

    Deliberately a different algorithm from the forward enumeration so
    the two can cross-check each other.
    """
    if len(u) != len(v):
        return False
    backward: dict = {}
    for p, letter, q in r.nfa.transitions:
        backward.setdefault((q, letter), set()).add(p)
    frontier = set(r.nfa.finals)
    for a, b in reversed(tuple(zip(u, v))):
        frontier = {p for q in frontier for p in backward.get((q, (a, b)), ())}
        if not frontier:
            return False
    return bool(frontier & r.nfa.initials)


def all_words(alphabet: Alphabet, bound: int) -> list[Word]:
    words: list[Word] = [()]
    layer: list[Word] = [()]
    for _ in range(bound):
        layer = [w + (a,) for w in layer for a in alphabet.letters]
        words.extend(layer)
    return words


def valuedness_profile(t: LetterTransducer, bound: int) -> list[int]:
    """Entry n: largest output count of any input word of length at most n."""
    _check_bound(bound)
    nfa = t.nfa
    useful = _useful_states(nfa.transitions, nfa.initials, nfa.finals)
    finals = nfa.finals
    step: dict = {}
    for p, (a, b), q in nfa.transitions:
        if p in useful and q in useful:
            step.setdefault((p, a), []).append((b, q))
    best = [0] * (bound + 1)

    def walk(frontier, depth):
        outs = {out for q, out in frontier if q in finals}
        if len(outs) > best[depth]:
            best[depth] = len(outs)
        if depth == bound:
            return
        for a in t.input_alphabet.letters:
            nxt = {
                (q2, out + (b,))
                for q, out in frontier
                for b, q2 in step.get((q, a), ())
            }
            if nxt:
                walk(nxt, depth + 1)

    start = {(q, ()) for q in nfa.initials & useful}
    if start:
        walk(start, 0)
    for n in range(1, bound + 1):
        best[n] = max(best[n], best[n - 1])
    return best


def brute_valuedness(t: LetterTransducer, bound: int) -> int:
    return valuedness_profile(t, bound)[bound]


def _classes(r: LetterTransducer, bound: int) -> dict[Word, int]:
    """Each word of length at most ``bound`` mapped to the number of its class
    under the equivalence r.

    Words are taken in shortlex order; a word not yet assigned opens a new
    class, its image, found by one depth-first search over output words
    that keeps the frontier of states alive on the current prefix.
    """
    nfa = r.nfa
    useful = _useful_states(nfa.transitions, nfa.initials, nfa.finals)
    finals = nfa.finals
    step: dict = {}
    for p, (a, b), q in nfa.transitions:
        if p in useful and q in useful:
            step.setdefault((p, a), []).append((b, q))
    start = frozenset(nfa.initials & useful)
    klass: dict[Word, int] = {}
    for u in all_words(r.input_alphabet, bound):
        if u in klass:
            continue
        number = len(klass)
        klass[u] = number
        stack = [(start, ())] if start else []
        while stack:
            frontier, v = stack.pop()
            if len(v) == len(u):
                if frontier & finals:
                    klass[v] = number
                continue
            buckets: dict = {}
            for p in frontier:
                for b, q in step.get((p, u[len(v)]), ()):
                    buckets.setdefault(b, set()).add(q)
            for b, nxt in buckets.items():
                stack.append((frozenset(nxt), v + (b,)))
    return klass


def index_profile(s: LetterTransducer, r: LetterTransducer, bound: int) -> list[int]:
    """Entry n: the brute-force index restricted to words of length at most n.

    ``s`` and ``r`` must both be equivalence relations, ``s`` finer than
    ``r``. The words of each length then split into r-classes and into
    s-classes (``_classes``), and entry n is the largest number of
    s-classes that meet one r-class of words of length at most n.
    """
    _check_bound(bound)
    r_class = _classes(r, bound)
    s_class = _classes(s, bound)
    met: dict[int, set[int]] = {}  # r-class -> the s-classes inside it
    length: dict[int, int] = {}  # r-class -> the length of its words
    for u, c in r_class.items():
        met.setdefault(c, set()).add(s_class[u])
        length[c] = len(u)
    best = [0] * (bound + 1)
    for c, classes in met.items():
        best[length[c]] = max(best[length[c]], len(classes))
    for n in range(1, bound + 1):
        best[n] = max(best[n], best[n - 1])
    return best


def brute_index(s: LetterTransducer, r: LetterTransducer, bound: int) -> int:
    """Largest number of pairwise s-inequivalent words in one r-image."""
    return index_profile(s, r, bound)[bound]


def brute_kernel(
    machine: SequentialTransducer | SubsequentialTransducer, bound: int
) -> EnumeratedRelation:
    """Kernel of a machine by running it on every word up to the bound."""
    _check_bound(bound)
    groups: dict[Word, list[Word]] = {}
    for u in all_words(machine.input_alphabet, bound):
        out = machine.run(u)
        if out is not None:
            groups.setdefault(out, []).append(u)
    pairs = frozenset((u, v) for group in groups.values() for u in group for v in group)
    return EnumeratedRelation(bound, pairs)


def prefix_pairs(r: LetterTransducer, bound: int, suffix_bound: int) -> frozenset:
    """Definitional prefix closure on enumerated pairs.

    (u, v) is included when some equal-length suffixes of length at most
    ``suffix_bound`` extend it into the relation.
    """
    er = enumerate_relation(r, bound + suffix_bound)
    out = set()
    for u, v in er.pairs:
        lo = max(0, len(u) - suffix_bound)
        hi = min(bound, len(u))
        for m in range(lo, hi + 1):
            out.add((u[:m], v[:m]))
    return frozenset(out)


def syntactic_pairs(r: LetterTransducer, bound: int, suffix_bound: int) -> frozenset:
    """Definitional syntactic congruence, with the suffix quantifier bounded."""
    er = enumerate_relation(r, bound + suffix_bound)
    pairs = er.pairs
    suffixes = all_words(r.input_alphabet, suffix_bound)
    out = set()
    for u, v in pairs:
        if len(u) > bound:
            continue
        if all((u + w, v + w) in pairs for w in suffixes):
            out.add((u, v))
    return frozenset(out)


def closure_pairs(base: frozenset) -> frozenset:
    """Transitive closure of an enumerated relation by repeated joins."""
    pairs = set(base)
    while True:
        img: dict[Word, set[Word]] = {}
        for u, v in pairs:
            img.setdefault(u, set()).add(v)
        joined = {
            (u, w) for u, v in pairs for w in img.get(v, ()) if (u, w) not in pairs
        }
        if not joined:
            return frozenset(pairs)
        pairs |= joined


def min_lex_map(relation: EnumeratedRelation, alphabet: Alphabet) -> dict[Word, Word]:
    """Each enumerated word mapped to the least element of its image."""
    out = {}
    for u, vs in relation.as_map().items():
        out[u] = min(vs, key=alphabet.key)
    return out


def _pair_dfa_size(nfa) -> int:
    """The useful states of the subset construction of ``nfa``, counted.

    The oracle's own construction: sets of states walked from the set of
    initial states, one successor set per letter, so the bound it
    enumerates to rests on no construction it cross-checks.
    """
    moves: dict = {}
    for p, letter, q in nfa.transitions:
        moves.setdefault((p, letter), set()).add(q)
    start = frozenset(nfa.initials)
    seen = {start}
    todo = [start]
    edges = []
    while todo:
        subset = todo.pop()
        for letter in nfa.alphabet.letters:
            nxt = frozenset(q for p in subset for q in moves.get((p, letter), ()))
            edges.append((subset, letter, nxt))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    finals = [subset for subset in seen if subset & nfa.finals]
    return len(_useful_states(edges, [start], finals))


def default_bound(r: LetterTransducer) -> int:
    """Input-size-aware enumeration bound with a hard cap: the useful
    states of the pair DFA, at least 6."""
    return min(MAX_BOUND, max(6, _pair_dfa_size(r.nfa)))


def random_equivalence(
    rng: random.Random, max_states: int = 3, letters=("a", "b")
) -> LetterTransducer:
    """A random length-preserving equivalence relation, valid by construction.

    Draw a random complete DFA and a random partition of its states; two
    words are related when they have the same length and reach states in
    the same block. This is the kernel of a function, so it is an
    equivalence however the draws come out; rejection sampling is never
    needed.
    """
    m = rng.randint(1, max_states)
    alpha = Alphabet(tuple(letters))
    delta = {(q, a): rng.randrange(m) for q in range(m) for a in alpha.letters}
    block = [rng.randrange(m) for _ in range(m)]

    def sid(p, q):
        return p * m + q

    transitions = {
        (sid(p, q), (a, b), sid(delta[(p, a)], delta[(q, b)]))
        for p in range(m)
        for q in range(m)
        for a in alpha.letters
        for b in alpha.letters
    }
    return LetterTransducer.build(
        alpha,
        alpha,
        states=set(range(m * m)),
        transitions=transitions,
        initials={sid(0, 0)},
        finals={sid(p, q) for p in range(m) for q in range(m) if block[p] == block[q]},
    )


def suite_seed(seed: int | None = None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def default_suite(
    count: int, seed: int | None = None, max_states: int = 3
) -> list[LetterTransducer]:
    rng = random.Random(suite_seed(seed))
    return [random_equivalence(rng, max_states=max_states) for _ in range(count)]
