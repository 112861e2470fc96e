"""The product composition of two relations, kept as a test reference.

The library composes by a subset construction straight into the minimal
DFA (``kernseq.relations.compose``). This is the construction it must
agree with: the product automaton on pairs of states, joined on the
middle letter, with no determinization. Tests use it where they need a
composition built independently of the library's, or a nondeterministic
one.
"""

from kernseq.automata import explored
from kernseq.errors import AlphabetMismatchError
from kernseq.transducers import LetterTransducer, pair_alphabet


def reference_compose(r: LetterTransducer, s: LetterTransducer) -> LetterTransducer:
    """Relational composition: ``reference_compose(r, s)`` applies ``s`` first.

    Realizes the pairs (u, w) such that u is s-related to some v and v is
    r-related to w, as the product automaton of the two machines
    restricted to reachable pairs of states.
    """
    if s.output_alphabet != r.input_alphabet:
        raise AlphabetMismatchError(
            "composition needs the first-applied output alphabet to match "
            "the second relation's input alphabet"
        )
    s_out = s.nfa.outgoing
    zs = r.output_alphabet.letters
    width = len(zs)
    # per state of r and middle letter y: its (z, target) pairs, in order
    by_middle = {
        p2: {
            y: [(z, q2) for z, q2s in zip(zs, row[i * width : (i + 1) * width]) for q2 in q2s]
            for i, y in enumerate(r.input_alphabet.letters)
        }
        for p2, row in r.nfa._table.items()
    }
    starts = [(p1, p2) for p1 in sorted(s.nfa.initials) for p2 in sorted(r.nfa.initials)]

    def successors(pair):
        p1, p2 = pair
        middle = by_middle[p2]
        for (x, y), q1 in s_out.get(p1, ()):
            for z, q2 in middle[y]:
                yield (x, z), (q1, q2)

    nfa = explored(
        pair_alphabet(s.input_alphabet, r.output_alphabet),
        starts,
        successors,
        lambda pair: pair[0] in s.nfa.finals and pair[1] in r.nfa.finals,
    )
    return LetterTransducer(s.input_alphabet, r.output_alphabet, nfa)
