"""Random kernels of right-to-left Mealy machines: a suite that reaches every NO.

A draw is a random letter-to-letter machine T read backwards, with one
transition δ(q, a) —(a, o(q, a))→ q per state q and letter a, every
state initial and state 0 final; r relates two words exactly when T
maps them to one word, so r is ``inverse(T)`` after ``T``, built by the
product composition of ``reference_compose`` and trimmed. r is an
equivalence, the kernel of a co-sequential function, and often neither
prefix-closed nor of finite index.

With ``random.Random(7)``, draw 48 (0-based) is the 9-state relation
whose closure search runs out of its default cap only after about 17 s.
"""

import random

from kernseq.automata import Alphabet
from kernseq.relations import inverse
from kernseq.transducers import LetterTransducer

from boolean_ops import trim_transducer
from reference_compose import reference_compose

LETTERS = ("a", "b")
SLOW_CLOSURE = 48  # the draw whose closure search runs to its cap for seconds
# draws of infinite index against r whose closure searches take more than
# 15 s each and grow past 1 GB: decide lp refuses them before any round
INFINITE_BEFORE_ROUNDS = (10, 22, 35, 39, 57)


def cosequential_draw(rng: random.Random) -> LetterTransducer:
    m = rng.randint(1, 3)
    delta = {(q, a): rng.randrange(m) for q in range(m) for a in LETTERS}
    out = {(q, a): rng.choice(LETTERS) for q in range(m) for a in LETTERS}
    alphabet = Alphabet(LETTERS)
    t = LetterTransducer.build(
        alphabet,
        alphabet,
        states=range(m),
        transitions={(delta[(q, a)], (a, out[(q, a)]), q) for q in range(m) for a in LETTERS},
        initials=range(m),
        finals={0},
    )
    return trim_transducer(reference_compose(inverse(t), t))


def cosequential_suite(count: int = 200, seed: int = 7) -> list[LetterTransducer]:
    rng = random.Random(seed)
    return [cosequential_draw(rng) for _ in range(count)]
