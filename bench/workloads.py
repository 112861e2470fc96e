"""Inputs of the three workloads, and what each family's definition implies.

The two random suites take their relation shapes from the acceptance
suite's seed (7). The benchmark seed decides how each relation is
presented to the program: the names of its letters, the numbering of its
states, and the order in which the relations run. The family relations
are built from their definitions and presented the same way.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass, field

SHAPE_SEED = 7  # the seed of the acceptance tests' random suite
SUITE_LP_SIZE = 200
SUITE_SYMBOLIC_SIZE = 200
LP_CAP = 16  # closure cap of the acceptance tests


@dataclass
class Case:
    name: str
    relation: object  # kernseq.LetterTransducer
    expect: dict = field(default_factory=dict)  # family answers, see ``FAMILIES``
    path: str | None = None  # the relation's file, families only


def present(ks, t, rng: random.Random):
    """The same relation shape under seeded letter names and state numbers.

    Letter i of the declared order is renamed to the i-th drawn name, so
    the declaration order, and with it every lexicographic choice the
    program makes, is unchanged.
    """
    old = t.input_alphabet.letters
    name = dict(zip(old, rng.sample(string.ascii_lowercase, len(old))))
    states = sorted(t.nfa.states)
    number = dict(zip(states, rng.sample(range(len(states)), len(states))))
    letters = tuple(name[a] for a in old)
    return ks.LetterTransducer.build(
        letters,
        letters,
        states=set(number.values()),
        transitions={
            (number[p], (name[a], name[b]), number[q]) for p, (a, b), q in t.nfa.transitions
        },
        initials={number[q] for q in t.nfa.initials},
        finals={number[q] for q in t.nfa.finals},
    )


def suite_lp(ks, seed: int) -> list[Case]:
    rng = random.Random(seed)
    shapes = ks.default_suite(SUITE_LP_SIZE, seed=SHAPE_SEED, max_states=3)
    cases = [Case(f"lp-{i}", present(ks, t, rng)) for i, t in enumerate(shapes)]
    rng.shuffle(cases)
    return cases


def suite_symbolic(ks, seed: int) -> list[Case]:
    from kernseq.oracle import random_equivalence

    rng = random.Random(seed)
    draw = random.Random(SHAPE_SEED)
    shapes = [
        random_equivalence(draw, max_states=3, letters=("a", "b", "c"))
        for _ in range(SUITE_SYMBOLIC_SIZE)
    ]
    cases = [Case(f"sym-{i}", present(ks, t, rng)) for i, t in enumerate(shapes)]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------- families


def _build(ks, letters, states, transitions, initials, finals):
    return ks.LetterTransducer.build(letters, letters, states, transitions, initials, finals)


def mod_count(ks, k: int):
    """Same length and the same number of a's modulo k."""
    a, b = "a", "b"
    transitions = set()
    for d in range(k):
        transitions |= {
            (d, (a, a), d),
            (d, (b, b), d),
            (d, (a, b), (d + 1) % k),
            (d, (b, a), (d - 1) % k),
        }
    return _build(ks, (a, b), range(k), transitions, {0}, {0})


def agree_except_last(ks, k: int):
    """Same length and equal except possibly in the last k letters.

    State 0: equal so far; state j: the first difference was j letters ago.
    """
    ab = ("a", "b")
    transitions = {(0, (x, x), 0) for x in ab}
    transitions |= {(0, (x, y), 1) for x in ab for y in ab if x != y}
    transitions |= {(j, (x, y), j + 1) for j in range(1, k) for x in ab for y in ab}
    return _build(ks, ab, range(k + 1), transitions, {0}, range(k + 1))


def chain(ks, k: int):
    """Identity plus k two-letter classes linking k+1 letters in a path.

    Class i is {x(i-1) s, x(i) s} with s = x(i mod 2), so consecutive
    classes never share a word. The prefix closure relates x(i-1) to
    x(i), and its transitive closure needs k rounds to join the two ends.
    """
    xs = tuple(string.ascii_lowercase[: k + 1])
    pairs = []
    for i in range(1, k + 1):
        s = xs[i % 2]
        u, v = (xs[i - 1], s), (xs[i], s)
        pairs += [(u, v), (v, u)]
    states, initials, finals = {0}, {0}, {0}
    transitions = {(0, (x, x), 0) for x in xs}
    fresh = itertools.count(1)
    for u, v in pairs:
        cur = next(fresh)
        states.add(cur)
        initials.add(cur)
        for x, y in zip(u, v):
            nxt = next(fresh)
            states.add(nxt)
            transitions.add((cur, (x, y), nxt))
            cur = nxt
        finals.add(cur)
    return _build(ks, xs, states, transitions, initials, finals)


def last_a(ks, m: int):
    """Same length and the last 'a' at the same position (or in neither), over m letters."""
    xs = tuple(string.ascii_lowercase[:m])
    a, others = xs[0], xs[1:]
    transitions = {(0, (a, a), 0), (1, (a, a), 0)}
    transitions |= {(q, (x, y), q) for q in (0, 1) for x in others for y in others}
    transitions |= {(q, (a, y), 1) for q in (0, 1) for y in others}
    transitions |= {(q, (y, a), 1) for q in (0, 1) for y in others}
    return _build(ks, xs, {0, 1}, transitions, {0}, {0})


def singletons(ks, m: int):
    """Words free of the last letter are equivalent at equal length; others only to themselves."""
    xs = tuple(string.ascii_lowercase[: m + 1])
    free, c = xs[:m], xs[m]
    transitions = {(0, (x, x), 0) for x in free}
    transitions |= {(0, (x, y), 1) for x in free for y in free if x != y}
    transitions |= {(1, (x, y), 1) for x in free for y in free}
    transitions.add((0, (c, c), 2))
    transitions |= {(2, (x, x), 2) for x in xs}
    return _build(ks, xs, {0, 1, 2}, transitions, {0}, {0, 1, 2})


NPC = ("NO", "NOT_PREFIX_CLOSED")
INF = ("NO", "INFINITE_INDEX")
YES = ("YES", None)
UNKNOWN = ("UNKNOWN", "CLOSURE_CAP_EXHAUSTED")

# (name, constructor, parameter, closure cap or None, expected answers).
# Expected answers follow from each family's definition; see README.md.
FAMILIES = (
    [(f"mod{k}", mod_count, k, None, {"ll": NPC, "lp": YES}) for k in (2, 3, 4, 5)]
    + [
        (f"agree{k}", agree_except_last, k, None, {"ll": YES, "lp": YES, "ll_states": 2**k})
        for k in (1, 2, 3, 4, 5)
    ]
    + [(f"chain{k}", chain, k, None, {"ll": NPC, "lp": YES, "exponent": k}) for k in (1, 2)]
    + [
        (f"chain{k}-cap{k - 1}", chain, k, k - 1, {"ll": NPC, "lp": UNKNOWN})
        for k in (2, 3)
    ]
    + [(f"last_a{m}", last_a, m, None, {"ll": NPC, "lp": INF}) for m in (2, 3)]
    + [(f"singletons{m}", singletons, m, None, {"ll": INF, "lp": INF}) for m in (2, 3)]
)


def relation_text(t) -> str:
    """The relation in the letter-transducer file format."""
    nfa = t.nfa
    letters = " ".join(t.input_alphabet.letters)
    lines = [
        "kind letter-transducer",
        f"inputs {letters}",
        f"outputs {letters}",
        "states " + " ".join(map(str, sorted(nfa.states))),
        "initials " + " ".join(map(str, sorted(nfa.initials))),
        "finals " + " ".join(map(str, sorted(nfa.finals))),
    ]
    lines += [f"{p} {a} / {b} -> {q}" for p, (a, b), q in sorted(nfa.transitions)]
    return "\n".join(lines) + "\n"


def families(ks, seed: int, workdir) -> list[Case]:
    """Build every family relation and write it to ``workdir``."""
    rng = random.Random(seed)
    cases = []
    for name, make, k, cap, expect in FAMILIES:
        relation = present(ks, make(ks, k), rng)
        path = workdir / f"{name}.t"
        path.write_text(relation_text(relation), encoding="utf-8")
        cases.append(Case(name, relation, dict(expect, cap=cap), str(path)))
    rng.shuffle(cases)
    return cases
