"""Analysis and synthesis for letter-to-letter equivalence relations.

Given an equivalence relation over words presented as a letter-to-letter
transducer, this package decides whether the relation is the kernel of a
sequential (optionally letter-to-letter) transduction, and when it is,
builds such a machine, whose kernel is checked exactly against the
relation. The brute-force enumeration in ``kernseq.oracle`` cross-checks
the structural decisions in the tests, at desk scale; no decision
enumerates words.
"""

__version__ = "0.1.0"

from .automata import (
    Alphabet,
    Nfa,
    determinize,
    inclusion_counterexample,
    includes,
    intersect,
    language_equal,
    minimize,
    trim,
)
from .decision import (
    AnalysisReport,
    Outcome,
    Verdict,
    analyze,
    decide_kerseq_ll,
    decide_kerseq_lp,
    index_is_finite,
    is_finitely_valued,
)
from .errors import (
    AlphabetMismatchError,
    BadClosureWitnessError,
    BoundTooLargeError,
    DimensionCapError,
    FormatError,
    InternalInvariantError,
    KernseqError,
    NotEquivalenceError,
    NotFinerError,
    NotLetterToLetterError,
    PreconditionError,
)
from .fileformat import TransducerFile, parse, render
from .machines import SequentialTransducer, SubsequentialTransducer
from .oracle import (
    EnumeratedRelation,
    brute_index,
    brute_kernel,
    brute_valuedness,
    default_suite,
    enumerate_relation,
    index_profile,
    valuedness_profile,
)
from .relations import (
    ClosureResult,
    RelationValidation,
    compose,
    inverse,
    is_prefix_closed,
    min_lex_uniformizer,
    prefix_closure,
    syntactic_congruence,
    transitive_closure,
    validate_relation,
)
from .synthesis import (
    eliminate_final_output,
    kernel_counterexample,
    kernel_transducer,
    length_collision,
    synthesize_mealy,
    synthesize_subsequential,
)
from .transducers import LetterTransducer, identity, pair_alphabet, pair_dfa

__all__ = [name for name in dir() if not name.startswith("_")]
