"""Plain-text machine files.

Line-oriented, whitespace-tokenized, ``#`` starts a comment. The first
line names the kind; header lines declare alphabets and states;
transitions are written ``src in / out -> dst`` with ``-`` for the empty
output word; subsequential files add one ``finalout state letter`` line
per final state. State identifiers are nonnegative integers written in
ASCII digits (``07`` names state 7; other decimal digits such as ``²`` or
``٠`` are refused, and so is an id longer than ``int`` reads, 4,300 digits
by default). Files are UTF-8 text: the command line refuses one
that is not with a ``FormatError`` naming the byte offset, exit 3.
Rendering is canonical, so parse and render are mutually inverse.

    kind letter-transducer
    inputs a b
    outputs a b
    states 0
    initials 0
    finals 0
    0 a / a -> 0
    0 b / b -> 0
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Alphabet
from .errors import FormatError
from .machines import SequentialTransducer, SubsequentialTransducer
from .transducers import LetterTransducer

KINDS = ("letter-transducer", "sequential", "subsequential")
RESERVED = {"/", "->", "-", "#"}
ONE_LETTER = {
    "letter-transducer": "letter-transducer outputs exactly one letter per transition",
    "subsequential": "subsequential bodies output exactly one letter per transition",
}
HEADER_KEYS = {"kind", "inputs", "outputs", "states", "initial", "initials", "finals", "finalout"}

Machine = LetterTransducer | SequentialTransducer | SubsequentialTransducer


@dataclass(frozen=True)
class TransducerFile:
    machine: Machine
    kind: str
    source: str


def _id_error(token: str, lineno: int) -> FormatError:
    return FormatError(f"state identifiers are nonnegative integers, got {token!r}", lineno)


def _id(token: str, lineno: int) -> int:
    """The state ``token`` names, a string of ASCII digits, or the error
    that it names none."""
    if token.isdigit() and token.isascii():
        try:
            return int(token)
        except ValueError:  # more digits than ``int`` reads
            pass
    raise _id_error(token, lineno)


def _ids(tokens: list, lineno: int) -> tuple[int, ...]:
    """The states a header line lists."""
    return tuple(_id(token, lineno) for token in tokens)


def _letters(tokens: list, lineno: int) -> tuple:
    for token in tokens:
        if token in RESERVED:
            raise FormatError(f"{token!r} is reserved and cannot name a letter", lineno)
    return tuple(tokens)


def parse(text: str, source: str = "<string>") -> TransducerFile:
    """The machine a file describes, or a ``FormatError`` naming the first
    fault: in line order while the lines are read, then in a fixed order
    of the checks against the declared states and letters.

    One pass splits each line once. A line that does not start with a
    header word is a transition, and its shape is checked there; then one
    loop looks every transition up in the declared sets. The machine is
    built by its checked constructor.
    """
    header: dict = {}
    header_lines: dict = {}
    transitions: list = []  # (line, src, input letter, output word, dst)
    finalouts: list = []
    kind = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = (line.split("#", 1)[0] if "#" in line else line).split()
        if not tokens:
            continue
        key = tokens[0]
        if kind is None:
            if key != "kind":
                raise FormatError("first line must declare the kind", lineno)
            if len(tokens) != 2 or tokens[1] not in KINDS:
                raise FormatError(
                    "kind must be one of: " + ", ".join(KINDS), lineno
                )
            kind = tokens[1]
            continue
        if key not in HEADER_KEYS:  # src in / out-word -> dst
            if len(tokens) < 6 or tokens[2] != "/" or tokens[-2] != "->":
                raise FormatError(
                    "transition must look like: <src> <in> / <out-word or -> -> <dst>", lineno
                )
            p, inp, word = _id(key, lineno), tokens[1], tokens[3:-2]
            out = () if word == ["-"] else tuple(word)
            _letters((inp, *out), lineno)
            transitions.append((lineno, p, inp, out, _id(tokens[-1], lineno)))
        elif key == "kind":
            raise FormatError("duplicate kind line", lineno)
        elif key in ("inputs", "outputs"):
            if key in header:
                raise FormatError(f"duplicate {key} line", lineno)
            if len(tokens) < 2:
                raise FormatError(f"{key} needs at least one letter", lineno)
            letters = _letters(tokens[1:], lineno)
            if len(set(letters)) != len(letters):
                raise FormatError(f"{key} letters must be distinct", lineno)
            header[key] = letters
            header_lines[key] = lineno
        elif key == "states":
            if key in header:
                raise FormatError("duplicate states line", lineno)
            if len(tokens) < 2:
                raise FormatError("states needs at least one identifier", lineno)
            header[key] = _ids(tokens[1:], lineno)
            header_lines[key] = lineno
        elif key in ("initial", "initials"):
            if "initial" in header or "initials" in header:
                raise FormatError("duplicate initial state line", lineno)
            header[key] = _ids(tokens[1:], lineno)
            header_lines[key] = lineno
        elif key == "finals":
            if key in header:
                raise FormatError("duplicate finals line", lineno)
            header[key] = _ids(tokens[1:], lineno)
            header_lines[key] = lineno
        elif key == "finalout":
            if len(tokens) != 3:
                raise FormatError("finalout takes a state and a letter", lineno)
            q, letter = _id(tokens[1], lineno), _letters(tokens[2:], lineno)[0]
            finalouts.append((q, letter, lineno))

    if kind is None:
        raise FormatError("empty file: missing kind line", None)
    for required in ("inputs", "outputs", "states"):
        if required not in header:
            raise FormatError(f"missing {required} line", None)
    if "finals" not in header:
        raise FormatError("missing finals line", None)

    inputs = Alphabet(header["inputs"])
    outputs = Alphabet(header["outputs"])
    states = set(header["states"])
    if len(states) != len(header["states"]):
        raise FormatError("states must be distinct", header_lines["states"])
    finals = set(header["finals"])
    for q in finals:
        if q not in states:
            raise FormatError(f"final state {q} is not declared", header_lines["finals"])

    if kind == "letter-transducer":
        if "initials" not in header:
            raise FormatError("letter-transducer files use an initials line", None)
        initials = set(header["initials"])
        for q in initials:
            if q not in states:
                raise FormatError(f"initial state {q} is not declared", header_lines["initials"])
    else:
        if "initial" not in header:
            raise FormatError(f"{kind} files use an initial line", None)
        if len(header["initial"]) != 1:
            raise FormatError("initial takes exactly one state", header_lines["initial"])
        (initial,) = header["initial"]
        if initial not in states:
            raise FormatError(f"initial state {initial} is not declared", header_lines["initial"])

    # the transitions against the declared states and letters
    one_letter = ONE_LETTER.get(kind)
    letters_in, letters_out = inputs._index, outputs._index
    triples: set = set()
    table: dict = {}
    for lineno, p, inp, out, q in transitions:
        for state in (p, q):
            if state not in states:
                raise FormatError(f"state {state} is not declared", lineno)
        if inp not in letters_in:
            raise FormatError(f"input letter {inp!r} is not declared", lineno)
        for b in out:
            if b not in letters_out:
                raise FormatError(f"output letter {b!r} is not declared", lineno)
        if one_letter and len(out) != 1:
            raise FormatError(one_letter, lineno)
        if kind == "letter-transducer":
            triples.add((p, (inp, out[0]), q))
        elif (p, inp) in table:
            raise FormatError(
                f"NONDETERMINISTIC: duplicate transition for state {p} on {inp!r}", lineno
            )
        else:
            table[(p, inp)] = (out, q)
    if finalouts and kind != "subsequential":
        raise FormatError("finalout only appears in subsequential files", finalouts[0][2])

    if kind == "letter-transducer":
        machine: Machine = LetterTransducer.build(
            inputs, outputs, states, triples, initials, finals
        )
        return TransducerFile(machine, kind, source)
    base = SequentialTransducer(
        input_alphabet=inputs,
        output_alphabet=outputs,
        states=states,
        transitions=table,
        initial=initial,
        finals=finals,
    )
    if kind == "sequential":
        return TransducerFile(base, kind, source)

    fo: dict = {}
    for q, letter, lineno in finalouts:
        if q in fo:
            raise FormatError(f"duplicate finalout for state {q}", lineno)
        if q not in finals:
            raise FormatError(f"finalout state {q} is not final", lineno)
        if letter not in outputs:
            raise FormatError(f"finalout letter {letter!r} is not declared", lineno)
        fo[q] = letter
    missing = finals - set(fo)
    if missing:
        raise FormatError(f"missing finalout for final states {sorted(missing)}", None)
    return TransducerFile(SubsequentialTransducer(base, fo), kind, source)


def kind_of(machine: Machine) -> str:
    if isinstance(machine, LetterTransducer):
        return "letter-transducer"
    if isinstance(machine, SubsequentialTransducer):
        return "subsequential"
    if isinstance(machine, SequentialTransducer):
        return "sequential"
    raise TypeError(f"not a machine: {machine!r}")


def render(machine: Machine) -> str:
    """Canonical text for a machine; parse(render(m)) reproduces m."""
    kind = kind_of(machine)
    lines = [f"kind {kind}"]
    if isinstance(machine, LetterTransducer):
        inputs, outputs = machine.input_alphabet, machine.output_alphabet
        nfa = machine.nfa
        lines.append("inputs " + " ".join(map(str, inputs.letters)))
        lines.append("outputs " + " ".join(map(str, outputs.letters)))
        lines.append("states " + " ".join(map(str, sorted(nfa.states))))
        lines.append("initials " + " ".join(map(str, sorted(nfa.initials))))
        lines.append(("finals " + " ".join(map(str, sorted(nfa.finals)))).rstrip())
        # the pair alphabet is input-major: a pair's position orders it by
        # its input letter, then by its output letter
        pairs = nfa.alphabet._index
        lines += [
            f"{src} {a} / {b} -> {dst}"
            for src, (a, b), dst in sorted(nfa.transitions, key=lambda t: (t[0], pairs[t[1]], t[2]))
        ]
        return "\n".join(lines) + "\n"

    base = machine.base if isinstance(machine, SubsequentialTransducer) else machine
    inputs, outputs = base.input_alphabet, base.output_alphabet
    lines.append("inputs " + " ".join(map(str, inputs.letters)))
    lines.append("outputs " + " ".join(map(str, outputs.letters)))
    lines.append("states " + " ".join(map(str, sorted(base.states))))
    lines.append(f"initial {base.initial}")
    lines.append(("finals " + " ".join(map(str, sorted(base.finals)))).rstrip())
    index = inputs._index
    for (src, a), (out, dst) in sorted(
        base.transitions.items(), key=lambda kv: (kv[0][0], index[kv[0][1]])
    ):
        word = " ".join(map(str, out)) if out else "-"
        lines.append(f"{src} {a} / {word} -> {dst}")
    if isinstance(machine, SubsequentialTransducer):
        for q in sorted(machine.final_output):
            lines.append(f"finalout {q} {machine.final_output[q]}")
    return "\n".join(lines) + "\n"
