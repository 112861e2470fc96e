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

The stress draws come from machines of up to 5 states, with
``random.Random(3)``. On stress draw 141 (0-based), ``decide lp`` runs
out of 512 MB in the index check against r.
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
INDEX_OUT_OF_MEMORY = 141  # the stress draw on which decide lp runs out of memory


def cosequential_machine(rng: random.Random, max_states: int = 3) -> LetterTransducer:
    """The machine T of a draw, with 1 to ``max_states`` states."""
    m = rng.randint(1, max_states)
    delta = {(q, a): rng.randrange(m) for q in range(m) for a in LETTERS}
    out = {(q, a): rng.choice(LETTERS) for q in range(m) for a in LETTERS}
    alphabet = Alphabet(LETTERS)
    return LetterTransducer.build(
        alphabet,
        alphabet,
        states=range(m),
        transitions={(delta[(q, a)], (a, out[(q, a)]), q) for q in range(m) for a in LETTERS},
        initials=range(m),
        finals={0},
    )


def cosequential_draw(rng: random.Random, max_states: int = 3) -> LetterTransducer:
    t = cosequential_machine(rng, max_states)
    return trim_transducer(reference_compose(inverse(t), t))


def cosequential_suite(count: int = 200, seed: int = 7) -> list[LetterTransducer]:
    rng = random.Random(seed)
    return [cosequential_draw(rng) for _ in range(count)]


def stress_machines(count: int) -> list[LetterTransducer]:
    """The machines T of the first ``count`` stress draws."""
    rng = random.Random(3)
    return [cosequential_machine(rng, max_states=5) for _ in range(count)]


def stress_draws(count: int) -> list[LetterTransducer]:
    """The first ``count`` stress draws, each built as ``cosequential_draw`` builds it."""
    return [trim_transducer(reference_compose(inverse(t), t)) for t in stress_machines(count)]
