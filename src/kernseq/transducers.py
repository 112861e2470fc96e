"""Letter-to-letter transducers: automata over a pair alphabet.

A letter-to-letter transducer reads one input letter and writes one
output letter per transition, so it realizes a length-preserving word
relation. It is the universal input object of this package: relations,
syntactic congruences, prefix closures and transitive closures are all
values of this type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .automata import Alphabet, Nfa, _coreach, determinize
from .errors import AlphabetMismatchError, PreconditionError


def pair_alphabet(inputs: Alphabet, outputs: Alphabet) -> Alphabet:
    """Product alphabet of (input letter, output letter) pairs.

    Ordered input-major so the order is determined by the two
    declaration orders.
    """
    return Alphabet(tuple(product(inputs.letters, outputs.letters)))


@dataclass(frozen=True)
class LetterTransducer:
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    nfa: Nfa

    def __post_init__(self):
        pairs = product(self.input_alphabet.letters, self.output_alphabet.letters)
        if self.nfa.alphabet.letters != tuple(pairs):
            raise ValueError("underlying automaton must use the full pair alphabet")

    @classmethod
    def build(cls, input_alphabet, output_alphabet, states, transitions, initials, finals):
        """Assemble from explicit parts; transition letters are (in, out) pairs."""
        inputs = input_alphabet if isinstance(input_alphabet, Alphabet) else Alphabet(tuple(input_alphabet))
        outputs = output_alphabet if isinstance(output_alphabet, Alphabet) else Alphabet(tuple(output_alphabet))
        nfa = Nfa(
            alphabet=pair_alphabet(inputs, outputs),
            states=frozenset(states),
            transitions=frozenset(transitions),
            initials=frozenset(initials),
            finals=frozenset(finals),
        )
        return cls(inputs, outputs, nfa)

    def with_nfa(self, nfa: Nfa) -> "LetterTransducer":
        return LetterTransducer(self.input_alphabet, self.output_alphabet, nfa)

    def same_alphabets(self) -> bool:
        return self.input_alphabet == self.output_alphabet


def identity(alphabet: Alphabet) -> LetterTransducer:
    """The identity relation over ``alphabet``: every word paired with itself."""
    return LetterTransducer.build(
        alphabet,
        alphabet,
        states={0},
        transitions={(0, (a, a), 0) for a in alphabet.letters},
        initials={0},
        finals={0},
    )


def full_same_length(alphabet: Alphabet) -> LetterTransducer:
    """All pairs of equal-length words over ``alphabet``."""
    return LetterTransducer.build(
        alphabet,
        alphabet,
        states={0},
        transitions={(0, (a, b), 0) for a in alphabet.letters for b in alphabet.letters},
        initials={0},
        finals={0},
    )


def pair_dfa(t: LetterTransducer) -> LetterTransducer:
    """Deterministic complete version over the pair alphabet.

    Same relation; the result has exactly one run per word pair, which is
    what both the syntactic congruence and the synthesis need.
    """
    return t.with_nfa(determinize(t.nfa))


def diagonal_states(t: LetterTransducer) -> frozenset[int]:
    """States from which the whole identity relation is accepted.

    For a relation R given by its complete pair DFA (``pair_dfa``), the
    state reached by (u, v) is diagonal exactly when every common
    continuation keeps the pair related, i.e. when u and v are
    syntactically congruent. That is the greatest set of final states
    closed under the (a, a) edges, ``_diagonal`` of its rows.
    """
    if not t.same_alphabets():
        raise AlphabetMismatchError("diagonal states need equal input/output alphabets")
    nfa = t.nfa
    if not nfa.is_complete:
        raise PreconditionError("diagonal states need a complete pair DFA")
    states = sorted(nfa.states)  # numbered 0..n-1 in their order
    number = {q: i for i, q in enumerate(states)}
    rows = [[number[t] for (t,) in nfa._table[q]] for q in states]
    diagonal = _diagonal(rows, [q in nfa.finals for q in states], len(t.input_alphabet))
    return frozenset(states[i] for i in diagonal)


def _diagonal(rows: list, finals: list, width: int) -> frozenset[int]:
    """The diagonal states of a complete pair DFA over ``width`` letters as
    dense rows and finality: one backward walk (``automata._coreach``)
    over the (a, a) moves from the non-final states finds the others."""
    states = range(len(rows))
    return frozenset(states) - _coreach(rows, [q for q in states if not finals[q]], width + 1)
