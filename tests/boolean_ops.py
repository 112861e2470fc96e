"""Boolean operations on automata and relations, kept as test references.

No decision needs them: the library decides inclusion on the fly and
builds its products with ``automata.explored``. Tests use them as
independent constructions to compare the library against.
"""

from kernseq.automata import Nfa, accessible_states, trim
from kernseq.errors import AlphabetMismatchError, PreconditionError
from kernseq.transducers import LetterTransducer


def complement(a: Nfa) -> Nfa:
    """Complement of a deterministic complete automaton."""
    if not a.is_complete:
        raise PreconditionError("complement requires a deterministic complete automaton")
    return Nfa(a.alphabet, a.states, a.transitions, a.initials, a.states - a.finals)


def union(a: Nfa, b: Nfa) -> Nfa:
    """Disjoint union; recognizes the union of both languages."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("operands use different alphabets")
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


def is_empty(a: Nfa) -> bool:
    return not (accessible_states(a) & a.finals)


def relation_union(a: LetterTransducer, b: LetterTransducer) -> LetterTransducer:
    if a.input_alphabet != b.input_alphabet or a.output_alphabet != b.output_alphabet:
        raise AlphabetMismatchError("union needs identical alphabets")
    return a.with_nfa(union(a.nfa, b.nfa))


def trim_transducer(t: LetterTransducer) -> LetterTransducer:
    return t.with_nfa(trim(t.nfa))
