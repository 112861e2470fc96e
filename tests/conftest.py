import itertools
import sys

import pytest

from kernseq.automata import Alphabet, Nfa
from kernseq.transducers import LetterTransducer, full_same_length, identity

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
ABCD = Alphabet(("a", "b", "c", "d"))


def finite_relation(alphabet, pairs):
    """Identity plus a finite set of same-length pairs, as one trie NFA."""
    states = {0}
    transitions = {(0, (x, x), 0) for x in alphabet.letters}
    initials = {0}
    finals = {0}
    fresh = itertools.count(1)
    for u, v in pairs:
        assert len(u) == len(v)
        cur = next(fresh)
        initials.add(cur)
        states.add(cur)
        for x, y in zip(u, v):
            dst = next(fresh)
            states.add(dst)
            transitions.add((cur, (x, y), dst))
            cur = dst
        finals.add(cur)
    return LetterTransducer.build(
        alphabet, alphabet, states=states, transitions=transitions,
        initials=initials, finals=finals,
    )


def build_last_a():
    """Equivalent iff the last 'a' sits at the same position (or neither has one)."""
    return LetterTransducer.build(
        AB, AB,
        states={0, 1},
        transitions={
            (0, ("a", "a"), 0), (0, ("b", "b"), 0),
            (0, ("a", "b"), 1), (0, ("b", "a"), 1),
            (1, ("a", "b"), 1), (1, ("b", "a"), 1), (1, ("b", "b"), 1),
            (1, ("a", "a"), 0),
        },
        initials={0}, finals={0},
    )


def build_a_parity():
    """Equivalent iff same length and the same number of a's modulo 2."""
    return LetterTransducer.build(
        AB, AB,
        states={0, 1},
        transitions={
            (0, ("a", "a"), 0), (0, ("b", "b"), 0),
            (0, ("a", "b"), 1), (0, ("b", "a"), 1),
            (1, ("a", "a"), 1), (1, ("b", "b"), 1),
            (1, ("a", "b"), 0), (1, ("b", "a"), 0),
        },
        initials={0}, finals={0},
    )


def build_c_singletons():
    """c-free words of equal length are all equivalent; words containing c
    are equivalent only to themselves."""
    return LetterTransducer.build(
        ABC, ABC,
        states={0, 1, 2},
        transitions={
            (0, ("a", "a"), 0), (0, ("b", "b"), 0),
            (0, ("a", "b"), 1), (0, ("b", "a"), 1),
            (0, ("c", "c"), 2),
            (1, ("a", "a"), 1), (1, ("a", "b"), 1),
            (1, ("b", "a"), 1), (1, ("b", "b"), 1),
            (2, ("a", "a"), 2), (2, ("b", "b"), 2), (2, ("c", "c"), 2),
        },
        initials={0}, finals={0, 1, 2},
    )


def build_agree_except_last(k=1):
    """Equivalent iff same length and equal everywhere except possibly the
    final k letters. State 0: equal so far; state j: the first difference
    was j letters ago."""
    transitions = {(0, ("a", "a"), 0), (0, ("b", "b"), 0)}
    transitions |= {(0, ("a", "b"), 1), (0, ("b", "a"), 1)}
    transitions |= {(j, (x, y), j + 1) for j in range(1, k) for x in "ab" for y in "ab"}
    return LetterTransducer.build(
        AB, AB,
        states=set(range(k + 1)),
        transitions=transitions,
        initials={0}, finals=set(range(k + 1)),
    )


def build_mod_count(k):
    """Equivalent iff same length and the same number of a's modulo k."""
    transitions = set()
    for d in range(k):
        transitions |= {
            (d, ("a", "a"), d), (d, ("b", "b"), d),
            (d, ("a", "b"), (d + 1) % k), (d, ("b", "a"), (d - 1) % k),
        }
    return LetterTransducer.build(
        AB, AB, states=set(range(k)), transitions=transitions, initials={0}, finals={0}
    )


def build_b_c_at_zero(k):
    """Equivalent iff the a's sit at the same positions and b and c differ
    only where the a's before them number 0 modulo k. The relation is its
    own syntactic congruence: state d, the a's read modulo k, holds one
    class per state, so the witness walk expands k states."""
    transitions = set()
    for d in range(k):
        transitions |= {(d, ("a", "a"), (d + 1) % k), (d, ("b", "b"), d), (d, ("c", "c"), d)}
    transitions |= {(0, ("b", "c"), 0), (0, ("c", "b"), 0)}
    return LetterTransducer.build(
        ABC, ABC, states=set(range(k)), transitions=transitions, initials={0}, finals=set(range(k))
    )


def build_chain(k):
    """Identity plus k two-letter classes linking k+1 letters in a path.

    Class i is {x(i-1) s, x(i) s} with s = x(i mod 2), so the prefix
    closure relates x(i-1) to x(i) and its transitive closure needs k
    rounds to join the two ends.
    """
    xs = tuple("abcdefghijklmnopqrstuvwxyz"[: k + 1])
    pairs = []
    for i in range(1, k + 1):
        u, v = (xs[i - 1], xs[i % 2]), (xs[i], xs[i % 2])
        pairs += [(u, v), (v, u)]
    return finite_relation(Alphabet(xs), pairs)


def build_chained_classes():
    """Identity plus the two-element classes {ab, cb} and {bc, cc}.

    The prefix closure links a to c through one class and c to b through
    the other, so its transitive closure genuinely needs a second
    composition round.
    """
    return finite_relation(
        ABCD,
        [
            (("a", "b"), ("c", "b")),
            (("c", "b"), ("a", "b")),
            (("b", "c"), ("c", "c")),
            (("c", "c"), ("b", "c")),
        ],
    )


@pytest.fixture
def last_a():
    return build_last_a()


@pytest.fixture
def a_parity():
    return build_a_parity()


@pytest.fixture
def c_singletons():
    return build_c_singletons()


@pytest.fixture
def agree_except_last():
    return build_agree_except_last()


@pytest.fixture
def chained_classes():
    return build_chained_classes()


@pytest.fixture
def ident_ab():
    return identity(AB)


@pytest.fixture
def full_ab():
    return full_same_length(AB)


def words(letters, max_len):
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (a,) for w in layer for a in letters]
        out.extend(layer)
    return out


def nfa_language(nfa: Nfa, max_len: int) -> frozenset:
    """Word-by-word membership via direct frontier simulation."""
    return frozenset(w for w in words(nfa.alphabet.letters, max_len) if nfa.accepts(w))


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` wherever a kernseq module binds it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("kernseq"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def validation_walks(monkeypatch):
    """Record the arguments of each ``relations._axioms`` call that validates
    a relation or checks a closure search's preconditions.

    Only the name in ``kernseq.relations`` is replaced, so the transitivity
    walk of ``synthesis.validate_closure_witness``, which checks a
    supplied closure, is not recorded.
    """
    from kernseq import relations

    calls = []
    original = relations._axioms

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(relations, "_axioms", counting)
    return calls
