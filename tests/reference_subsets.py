"""The subset construction on frozensets of states, kept as a test reference.

The library runs its subset construction on integer bitsets of an
automaton's states, read straight from the transitions
(``kernseq.automata._subset_dfa``). This is the construction it must
agree with, rows, finality and numbering alike: subsets as frozensets,
each state's targets read from the automaton's transition table, and a
subset's successor at a letter position the union of its members'.
"""

from kernseq.automata import Nfa

_EMPTY: frozenset = frozenset()


def reference_subset_dfa(a: Nfa) -> tuple[list, list]:
    """The dense rows and finality of ``a``'s subset construction, the
    subsets numbered breadth first with letter positions in order."""
    sets, delta = _reference_subset_rows(
        frozenset(a.initials), a._table.__getitem__, len(a.alphabet)
    )
    return delta, [not subset.isdisjoint(a.finals) for subset in sets]


def _reference_subset_rows(start: frozenset, row_of, width: int) -> tuple[list, list]:
    """The subsets reached from ``start``, numbered breadth first, and per
    subset the numbers of its successors at letter positions 0..width-1,
    ``row_of(x)`` listing x's targets per position."""
    sets = [start]
    ids = {start: 0}
    delta = []
    sink = [()] * width  # the row of the empty subset
    for subset in sets:  # sets grows while it is walked
        targets = []
        for succ in map(_EMPTY.union, *([row_of(x) for x in subset] or [sink])):
            t = ids.get(succ)
            if t is None:
                t = ids[succ] = len(sets)
                sets.append(succ)
            targets.append(t)
        delta.append(targets)
    return sets, delta
