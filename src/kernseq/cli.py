"""Command-line front end.

Subcommands: validate, analyze, decide ll, decide lp, closure, verify.
Every report exists in a text and a ``--json`` form carrying the same
fields. Exit codes: 0 yes/valid, 1 no, 2 unknown (closure cap), 3 input
or format error, 4 internal invariant breach, 5 resource exhausted (out
of memory, or a synthesized machine above the state cap or the budget of
stored matrix entries).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .decision import (
    DEFAULT_CLOSURE_CAP,
    Outcome,
    _certified_subsequential,
    _final_output_free,
    analyze,
    decide_kerseq_ll,
)
from .errors import (
    DimensionCapError,
    FormatError,
    InternalInvariantError,
    KernseqError,
    NotLetterToLetterError,
)
from .fileformat import parse, render
from .machines import SequentialTransducer, SubsequentialTransducer
from .oracle import brute_kernel, default_bound, enumerate_relation
from .relations import prefix_closure, transitive_closure, validate_relation
from .synthesis import kernel_counterexample
from .transducers import LetterTransducer

SCHEMA_VERSION = 1

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL = 4
EXIT_RESOURCE = 5


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 means UNKNOWN here, so remap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _load(path: str, expect=None):
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from exc
    tfile = parse(text, source=path)
    if expect is not None and not isinstance(tfile.machine, expect):
        raise FormatError(f"{path}: expected a {_expect_name(expect)} file, got kind {tfile.kind}")
    return tfile.machine


def _expect_name(expect) -> str:
    if expect is LetterTransducer:
        return "letter-transducer"
    return " or ".join(sorted(cls.__name__ for cls in expect)) if isinstance(expect, tuple) else expect.__name__


def _write_machine(path: str, machine) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render(machine))


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"schema": SCHEMA_VERSION, **report}, indent=2, sort_keys=False))
        return
    def flatten(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                yield from flatten(f"{prefix}{key}." if prefix else f"{key}.", sub)
        else:
            yield prefix.rstrip("."), value
    for key, value in flatten("", report):
        print(f"{key}: {value}")


def _validation_dict(v) -> dict:
    return {
        "reflexive": v.is_reflexive,
        "symmetric": v.is_symmetric,
        "transitive": v.is_transitive,
        "equivalence": v.is_equivalence,
    }


def _closure_dict(cr) -> dict | None:
    if cr is None:
        return None
    return {"converged": cr.converged, "exponent": cr.exponent}


def _cmd_validate(args) -> int:
    relation = _load(args.file, LetterTransducer)
    v = validate_relation(relation)
    _emit({"command": "validate", **_validation_dict(v)}, args.json)
    return EXIT_YES if v.is_equivalence else EXIT_NO


def _cmd_analyze(args) -> int:
    relation = _load(args.file, LetterTransducer)
    pplus = _load(args.pplus, LetterTransducer) if args.pplus else None
    report = analyze(relation, pplus=pplus, cap=args.closure_cap)
    _emit(
        {
            "command": "analyze",
            "validation": _validation_dict(report.validation),
            "lengthPreserving": report.length_preserving,
            "prefixClosed": report.prefix_closed,
            "indexWrtR": report.index_wrt_relation,
            "closure": _closure_dict(report.closure),
            "indexWrtPplus": report.index_wrt_closure,
        },
        args.json,
    )
    if not report.validation.is_equivalence:
        return EXIT_NO
    if report.closure is not None and not report.closure.converged:
        return EXIT_UNKNOWN
    return EXIT_YES


def _verdict_exit(outcome: Outcome) -> int:
    return {
        Outcome.YES: EXIT_YES,
        Outcome.NO: EXIT_NO,
        Outcome.UNKNOWN: EXIT_UNKNOWN,
    }[outcome]


def _cmd_decide(args) -> int:
    relation = _load(args.file, LetterTransducer)
    if args.variant == "ll":
        found = decide_kerseq_ll(relation)
    else:
        pplus = _load(args.pplus, LetterTransducer) if args.pplus else None
        found = _certified_subsequential(relation, pplus, args.closure_cap)
    if isinstance(found, tuple):  # lp's YES: only the machine that is written is built
        table, prep, closure = found
        table = _final_output_free(table, prep) if args.eliminate_final_output else table
        outcome, reason, machine = Outcome.YES, None, table.machine() if args.output else None
    else:
        outcome, reason, closure, machine = found.outcome, found.reason, found.closure, found.witness
    written = None
    if outcome is Outcome.YES and args.output:
        _write_machine(args.output, machine)
        written = args.output
    _emit(
        {
            "command": "decide",
            "variant": args.variant,
            "outcome": outcome.value,
            "reason": reason,
            "closure": _closure_dict(closure),
            "witness": written,
        },
        args.json,
    )
    return _verdict_exit(outcome)


def _cmd_closure(args) -> int:
    relation = _load(args.file, LetterTransducer)
    result = transitive_closure(prefix_closure(relation), cap=args.cap)
    written = None
    if result.converged:
        _write_machine(args.output, result.closure)
        written = args.output
    _emit(
        {
            "command": "closure",
            "converged": result.converged,
            "exponent": result.exponent,
            "output": written,
        },
        args.json,
    )
    return EXIT_YES if result.converged else EXIT_UNKNOWN


def _cmd_verify(args) -> int:
    relation = _load(args.relation, LetterTransducer)
    machine = _load(args.machine, (SequentialTransducer, SubsequentialTransducer))
    # exact within the squaring budget of synthesis._kernel_counterexample, and
    # naming its shortlex-least disagreement; beyond it, enumerated up to a bound
    pair = bound = None
    try:
        pair = kernel_counterexample(machine, relation)
        equal, mode = pair is None, "exact"
    except NotLetterToLetterError:
        bound = args.max_len if args.max_len is not None else default_bound(relation)
        equal = brute_kernel(machine, bound).pairs == enumerate_relation(relation, bound).pairs
        mode = "bounded"
    _emit(
        {
            "command": "verify",
            "mode": mode,
            "maxLen": bound,
            "kernelEqualsRelation": equal,
            "pair": None if pair is None else [list(pair[0]), list(pair[1])],
        },
        args.json,
    )
    return EXIT_YES if equal else EXIT_NO


def _closure_options(p) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pplus", metavar="FILE", help="externally supplied closure fixpoint")
    group.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP, metavar="N")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kernseq",
        description=(
            "Analyze letter-to-letter equivalence relations and synthesize "
            "sequential machines whose kernels realize them."
        ),
    )
    parser.add_argument("--version", action="version", version=f"kernseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the equivalence-relation axioms")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="full structural report for a relation")
    p.add_argument("file")
    _closure_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("decide", help="class membership with a synthesized witness")
    p.set_defaults(func=_cmd_decide)
    variants = p.add_subparsers(dest="variant", required=True)
    v = variants.add_parser("ll", help="letter-to-letter sequential witness")
    v.add_argument("file")
    v.add_argument("-o", "--output", metavar="WITNESS")
    v.add_argument("--json", action="store_true")
    v = variants.add_parser("lp", help="subsequential witness")
    v.add_argument("file")
    _closure_options(v)
    v.add_argument("-o", "--output", metavar="WITNESS")
    v.add_argument(
        "--eliminate-final-output",
        action="store_true",
        help="write the final-output-free sequential witness instead",
    )
    v.add_argument("--json", action="store_true")

    p = sub.add_parser("closure", help="transitive closure of the prefix closure")
    p.add_argument("file")
    p.add_argument("--cap", type=int, required=True, metavar="N")
    p.add_argument("-o", "--output", required=True, metavar="OUT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("verify", help="check a machine's kernel against a relation")
    p.add_argument("relation")
    p.add_argument("machine")
    p.add_argument("--max-len", type=int, metavar="L")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"kernseq: internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DimensionCapError as exc:
        print(f"kernseq: resource exhausted: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("kernseq: resource exhausted: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except KernseqError as exc:
        print(f"kernseq: error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"kernseq: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
