"""Input-deterministic transducers with word outputs.

These are the synthesis targets: a sequential transducer maps each
(state, input letter) to an output word and a next state; a Mealy
machine is the letter-to-letter special case. A subsequential
transducer additionally emits one final letter depending on the state
where the input ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .automata import Alphabet, Word, kept


@dataclass(frozen=True)
class SequentialTransducer:
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    states: frozenset[int]
    transitions: Mapping[tuple[int, object], tuple[Word, int]]
    initial: int
    finals: frozenset[int]
    provenance: Mapping[int, str] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "transitions", dict(self.transitions))
        if self.initial not in self.states:
            raise ValueError("initial state must be declared")
        if not self.finals <= self.states:
            raise ValueError("final states must be declared")
        states, inputs, outputs = self.states, self.input_alphabet._index, self.output_alphabet._index
        for (src, letter), (out, dst) in self.transitions.items():
            if src not in states or dst not in states:
                raise ValueError(f"transition endpoint not declared: {(src, letter)}")
            if letter not in inputs:
                raise ValueError(f"input letter not declared: {letter!r}")
            for b in out:
                if b not in outputs:
                    raise ValueError(f"output letter not declared: {b!r}")

    @kept
    def is_letter_to_letter(self) -> bool:
        return all(len(out) == 1 for out, _ in self.transitions.values())

    @kept
    def is_total(self) -> bool:
        """Defined and accepting on every input word."""
        return self.finals == self.states and all(
            (q, a) in self.transitions for q in self.states for a in self.input_alphabet
        )

    def state_after(self, word: Word) -> int | None:
        q = self.initial
        for a in word:
            nxt = self.transitions.get((q, a))
            if nxt is None:
                return None
            q = nxt[1]
        return q

    def run(self, word: Word) -> Word | None:
        """Output word, or None when the input is not in the domain."""
        q = self.initial
        out: list = []
        for a in word:
            nxt = self.transitions.get((q, a))
            if nxt is None:
                return None
            out.extend(nxt[0])
            q = nxt[1]
        if q not in self.finals:
            return None
        return tuple(out)


@dataclass(frozen=True)
class SubsequentialTransducer:
    """A letter-to-letter sequential body plus a final-output letter per final state."""

    base: SequentialTransducer
    final_output: Mapping[int, object]

    def __post_init__(self):
        object.__setattr__(self, "final_output", dict(self.final_output))
        if not self.base.is_letter_to_letter:
            raise ValueError("subsequential base must be letter-to-letter")
        if set(self.final_output) != set(self.base.finals):
            raise ValueError("final outputs must be defined exactly on final states")
        for letter in self.final_output.values():
            if letter not in self.base.output_alphabet._index:
                raise ValueError(f"final-output letter not declared: {letter!r}")

    @property
    def input_alphabet(self) -> Alphabet:
        return self.base.input_alphabet

    @property
    def output_alphabet(self) -> Alphabet:
        return self.base.output_alphabet

    def run(self, word: Word) -> Word | None:
        body = self.base.run(word)
        if body is None:
            return None
        return body + (self.final_output[self.base.state_after(word)],)
