import json
import time
from pathlib import Path

import pytest

from kernseq.cli import _parse, build_parser, main
from kernseq.decision import analyze, decide_kerseq_ll, decide_kerseq_lp
from kernseq.errors import DimensionCapError, InternalInvariantError
from kernseq.fileformat import parse, render
from kernseq.oracle import accepts_pair_backward

from conftest import (
    build_a_parity,
    build_agree_except_last,
    build_c_singletons,
    build_chain,
    build_chained_classes,
    build_last_a,
    build_mod_count,
)
from kernseq.transducers import identity
from conftest import AB


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, machine in {
        "last_a": build_last_a(),
        "parity": build_a_parity(),
        "c_singletons": build_c_singletons(),
        "chain": build_chained_classes(),
        "ident": identity(AB),
    }.items():
        path = tmp_path / f"{name}.t"
        path.write_text(render(machine))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_validate_equivalence_exits_zero(files, capsys):
    code, payload, _ = run_json(capsys, "validate", files["parity"])
    assert code == 0
    assert payload["schema"] == 1
    assert payload["equivalence"] is True


def test_validate_reports_the_three_axioms(files, capsys):
    _code, payload, _ = run_json(capsys, "validate", files["parity"])
    assert set(payload) == {
        "schema", "command", "reflexive", "symmetric", "transitive", "equivalence"
    }


def test_validate_non_equivalence_exits_one(files, capsys, tmp_path):
    bad = tmp_path / "bad.t"
    bad.write_text(
        "kind letter-transducer\ninputs a b\noutputs a b\nstates 0 1\n"
        "initials 0\nfinals 1\n0 a / b -> 1\n"
    )
    code, payload, _ = run_json(capsys, "validate", str(bad))
    assert code == 1
    assert payload["reflexive"] is False


def test_decide_ll_parity_exit_one_with_reason(files, capsys):
    code, payload, _ = run_json(capsys, "decide", "ll", files["parity"])
    assert code == 1
    assert payload["outcome"] == "NO"
    assert payload["reason"] == "NOT_PREFIX_CLOSED"


def test_decide_lp_c_singletons_infinite_index(files, capsys):
    code, payload, _ = run_json(
        capsys, "decide", "lp", files["c_singletons"], "--closure-cap", "8"
    )
    assert code == 1
    assert payload["reason"] == "INFINITE_INDEX"
    assert payload["closure"] is None


def test_decide_ll_identity_roundtrip_through_verify(files, capsys, tmp_path):
    witness = str(tmp_path / "w.t")
    code, payload, _ = run_json(capsys, "decide", "ll", files["ident"], "-o", witness)
    assert code == 0
    assert payload["witness"] == witness
    code, payload, _ = run_json(capsys, "verify", files["ident"], witness)
    assert code == 0
    assert payload["mode"] == "exact"
    assert payload["kernelEqualsRelation"] is True
    assert payload["pair"] is None


def test_decide_lp_witness_files_verify(files, capsys, tmp_path):
    sub_path = str(tmp_path / "sub.t")
    code, _, _ = run_json(capsys, "decide", "lp", files["parity"], "-o", sub_path)
    assert code == 0
    assert parse(open(sub_path).read()).kind == "subsequential"
    code, payload, _ = run_json(capsys, "verify", files["parity"], sub_path)
    assert code == 0 and payload["mode"] == "exact"

    flat_path = str(tmp_path / "flat.t")
    code, _, _ = run_json(
        capsys, "decide", "lp", files["parity"], "-o", flat_path,
        "--eliminate-final-output",
    )
    assert code == 0
    assert parse(open(flat_path).read()).kind == "sequential"
    code, payload, _ = run_json(capsys, "verify", files["parity"], flat_path)
    assert code == 0
    assert payload["mode"] == "exact"
    assert payload["maxLen"] is None


def test_verify_falls_back_to_bounded_mode_beyond_the_budget(capsys, tmp_path):
    # two runs on a^k and b^k emit x^k and x^2k, compatible but lagging
    # without bound; neither is accepted, so the kernel is {(empty, empty)}
    machine = tmp_path / "lagging.t"
    machine.write_text(
        "kind sequential\ninputs a b\noutputs x\nstates 0 1 2\ninitial 0\nfinals 0\n"
        "0 a / x -> 1\n0 b / x x -> 2\n1 a / x -> 1\n2 b / x x -> 2\n"
    )
    relation = tmp_path / "empty-word.t"
    relation.write_text(
        "kind letter-transducer\ninputs a b\noutputs a b\nstates 0\ninitials 0\nfinals 0\n"
    )
    code, payload, _ = run_json(capsys, "verify", str(relation), str(machine), "--max-len", "4")
    assert code == 0
    assert payload["mode"] == "bounded"
    assert payload["maxLen"] == 4


def test_verify_stops_squaring_a_large_machine_with_growing_lag(capsys, tmp_path):
    # a ring of 200 non-final states that a^k and b^k both enter, emitting
    # x^k and x^2k: the lag grows without bound, and squaring the machine
    # until some run lags 2 * 201^2 letters behind would not end in
    # reasonable time or memory; the squaring budget stops it far sooner
    n = 200
    lines = [
        "kind sequential", "inputs a b", "outputs x",
        "states " + " ".join(str(i) for i in range(n + 1)),
        "initial 0", "finals 0",
    ]
    for i in range(n + 1):
        nxt = i % n + 1
        lines += [f"{i} a / x -> {nxt}", f"{i} b / x x -> {nxt}"]
    machine = tmp_path / "ring.t"
    machine.write_text("\n".join(lines) + "\n")
    relation = tmp_path / "empty-word.t"
    relation.write_text(
        "kind letter-transducer\ninputs a b\noutputs a b\nstates 0\ninitials 0\nfinals 0\n"
    )
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "verify", str(relation), str(machine), "--max-len", "4")
    assert time.perf_counter() - start < 30
    assert code == 0
    assert payload["mode"] == "bounded"
    assert payload["kernelEqualsRelation"] is True
    assert payload["pair"] is None


def test_verify_detects_wrong_machine(files, capsys, tmp_path):
    witness = str(tmp_path / "w.t")
    assert main(["decide", "ll", files["ident"], "-o", witness]) == 0
    capsys.readouterr()
    code, payload, _ = run_json(capsys, "verify", files["last_a"], witness)
    assert code == 1
    assert payload["kernelEqualsRelation"] is False
    # the pair named is one on which the kernel and the relation disagree
    u, v = map(tuple, payload["pair"])
    relation = parse(Path(files["last_a"]).read_text()).machine
    machine = parse(Path(witness).read_text()).machine
    assert accepts_pair_backward(relation, u, v) != (machine.run(u) == machine.run(v))


def test_verify_walks_all_pairs_against_a_relation_that_is_not_symmetric(capsys, tmp_path):
    # the identity machine's kernel is the identity; the relation adds
    # (b, a) alone, so the one disagreement has b after a at its first
    # difference, a pair the walk on ordered pairs never reads
    machine = tmp_path / "identity.t"
    machine.write_text(
        "kind sequential\ninputs a b\noutputs a b\nstates 0\ninitial 0\nfinals 0\n"
        "0 a / a -> 0\n0 b / b -> 0\n"
    )
    relation = tmp_path / "identity-and-ba.t"
    relation.write_text(
        "kind letter-transducer\ninputs a b\noutputs a b\nstates 0 1\ninitials 0\n"
        "finals 0 1\n0 a / a -> 0\n0 b / b -> 0\n0 b / a -> 1\n"
    )
    code, payload, _ = run_json(capsys, "verify", str(relation), str(machine))
    assert code == 1
    assert payload["mode"] == "exact"
    assert payload["kernelEqualsRelation"] is False
    assert payload["pair"] == [["b"], ["a"]]


def test_closure_cap_exhaustion_exits_two_and_writes_nothing(files, capsys, tmp_path):
    out = tmp_path / "p.t"
    code, payload, _ = run_json(
        capsys, "closure", files["chain"], "--cap", "1", "-o", str(out)
    )
    assert code == 2
    assert payload["converged"] is False
    assert not out.exists()


def test_closure_of_a_non_symmetric_relation_exits_three(capsys, tmp_path):
    one_way = tmp_path / "one-way.t"
    one_way.write_text(
        "kind letter-transducer\ninputs a b\noutputs a b\nstates 0 1\n"
        "initials 0\nfinals 0 1\n0 a / a -> 0\n0 b / b -> 0\n0 a / b -> 1\n"
    )
    out = tmp_path / "p.t"
    code, _, err = run(capsys, "closure", str(one_way), "--cap", "4", "-o", str(out))
    assert code == 3
    assert "error [PRECONDITION_VIOLATED]" in err
    assert not out.exists()


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_closure_writes_usable_fixpoint(files, capsys, tmp_path):
    out = str(tmp_path / "p.t")
    code, payload, _ = run_json(capsys, "closure", files["chain"], "--cap", "8", "-o", out)
    assert code == 0 and payload["exponent"] == 2
    code, payload, _ = run_json(capsys, "decide", "lp", files["chain"], "--pplus", out)
    assert code == 0
    assert payload["closure"] is None  # supplied, not computed


def test_a_pplus_closure_that_is_not_symmetric_exits_three(files, capsys, tmp_path):
    upper = tmp_path / "upper.t"
    upper.write_text(
        "kind letter-transducer\ninputs a b\noutputs a b\nstates 0\n"
        "initials 0\nfinals 0\n0 a / a -> 0\n0 b / b -> 0\n0 a / b -> 0\n"
    )
    for command in (["decide", "lp"], ["analyze"]):
        code, out, err = run(capsys, *command, files["ident"], "--pplus", str(upper))
        assert code == 3 and out == ""
        assert "error [BAD_CLOSURE_WITNESS]: witness is not symmetric" in err
        assert "(('b',), ('a',))" in err


def test_a_pplus_closure_is_validated_before_its_index_is_read(files, capsys, tmp_path):
    from kernseq.errors import BadClosureWitnessError
    from kernseq.synthesis import synthesize_subsequential

    from conftest import ABC

    # c_singletons relates ab to ba, which the identity does not: refused by
    # every entry point, though the relation's own index is infinite
    r, ident = build_c_singletons(), identity(ABC)
    for call in (decide_kerseq_lp, analyze, synthesize_subsequential):
        with pytest.raises(BadClosureWitnessError):
            call(r, ident)
    pplus = tmp_path / "ident-abc.t"
    pplus.write_text(render(ident))
    for command in (["decide", "lp"], ["analyze"]):
        code, out, err = run(capsys, *command, files["c_singletons"], "--pplus", str(pplus))
        assert code == 3 and out == ""
        assert "error [BAD_CLOSURE_WITNESS]" in err


def test_decide_ll_builds_a_machine_only_to_write_it(capsys, monkeypatch, tmp_path):
    from kernseq import synthesis

    built = []
    machine = synthesis._Moves.machine

    def counting(table):
        built.append(table)
        return machine(table)

    monkeypatch.setattr(synthesis._Moves, "machine", counting)
    path, out = tmp_path / "r.t", tmp_path / "out.t"
    path.write_text(render(build_agree_except_last(2)))
    code, payload, _ = run_json(capsys, "decide", "ll", str(path))
    assert (code, payload["outcome"], payload["witness"]) == (0, "YES", None)
    assert built == []
    code, payload, _ = run_json(capsys, "decide", "ll", str(path), "-o", str(out))
    assert (code, payload["witness"], len(built)) == (0, str(out), 1)


def test_decide_lp_unknown_exit_two(files, capsys):
    code, payload, _ = run_json(
        capsys, "decide", "lp", files["chain"], "--closure-cap", "1"
    )
    assert code == 2
    assert payload["outcome"] == "UNKNOWN"
    assert payload["reason"] == "CLOSURE_CAP_EXHAUSTED"


def test_analyze_reports_and_exit_codes(files, capsys):
    code, payload, _ = run_json(capsys, "analyze", files["parity"])
    assert code == 0
    assert payload["prefixClosed"] is False
    assert payload["indexWrtR"] == "FINITE"
    assert payload["indexWrtPplus"] == "FINITE"
    code, payload, _ = run_json(
        capsys, "analyze", files["chain"], "--closure-cap", "1"
    )
    assert code == 2
    assert payload["closure"]["converged"] is False
    assert payload["indexWrtPplus"] is None


def test_analyze_of_a_relation_that_is_not_symmetric_exits_one(capsys, tmp_path):
    one_way = tmp_path / "one-way.t"
    one_way.write_text(
        "kind letter-transducer\ninputs a b\noutputs a b\nstates 0 1\n"
        "initials 0\nfinals 0 1\n0 a / a -> 0\n0 b / b -> 0\n0 a / b -> 1\n"
    )
    code, payload, _ = run_json(capsys, "analyze", str(one_way))
    assert code == 1
    assert payload["validation"] == {
        "reflexive": True, "symmetric": False, "transitive": True, "equivalence": False
    }
    unset = ("prefixClosed", "indexWrtR", "closure", "indexWrtPplus")
    assert [payload[key] for key in unset] == [None] * 4
    code, text, _ = run(capsys, "analyze", str(one_way))
    assert code == 1
    lines = text.splitlines()
    assert "validation.symmetric: False" in lines
    assert all(f"{key}: None" in lines for key in unset)


def test_text_and_json_reports_carry_identical_fields(files, capsys):
    code_t, text, _ = run(capsys, "analyze", files["parity"])
    code_j, payload, _ = run_json(capsys, "analyze", files["parity"])
    assert code_t == code_j
    text_keys = {line.split(":", 1)[0] for line in text.strip().splitlines()}
    text_keys.discard("command")

    def flat_keys(d, prefix=""):
        for k, v in d.items():
            if isinstance(v, dict):
                yield from flat_keys(v, prefix + k + ".")
            else:
                yield prefix + k

    json_keys = set(flat_keys(payload)) - {"schema", "command"}
    assert text_keys == json_keys


def test_format_error_exits_three(files, capsys, tmp_path):
    bad = tmp_path / "broken.t"
    bad.write_text("kind letter-transducer\nstates 0\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 3
    assert "missing inputs" in err


IDENTITY_A = "kind letter-transducer\ninputs a\noutputs a\nstates 0\ninitials 0\nfinals 0\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (
            IDENTITY_A.replace("states 0", "states 0 ²").encode() + b"0 a / a -> 0\n",
            "line 4: state identifiers are nonnegative integers, got '²'",
        ),
        (
            IDENTITY_A.encode() + b"0 a / a -> \xff\n",
            "{path}: not UTF-8 text: byte 0xff at offset %d" % (len(IDENTITY_A) + 11),
        ),
    ],
    ids=["superscript-state", "not-utf8"],
)
def test_a_malformed_file_exits_three_with_one_line(capsys, tmp_path, data, message):
    path = tmp_path / "bad.t"
    path.write_bytes(data)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert out == ""
    assert err == "kernseq: error [FORMAT]: " + message.format(path=path) + "\n"


def test_missing_file_exits_three(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nothing.t")
    assert code == 3


def test_a_witness_path_in_a_missing_directory_exits_three_with_one_line(files, capsys, tmp_path):
    witness = tmp_path / "missing" / "dir" / "w.t"
    code, out, err = run(capsys, "decide", "lp", files["parity"], "-o", str(witness))
    assert code == 3
    assert out == ""
    assert err.startswith("kernseq: error: ") and err.count("\n") == 1
    assert str(witness) in err
    assert not witness.parent.exists()


def test_verify_of_a_machine_over_other_input_letters_exits_three(files, capsys, tmp_path):
    machine = tmp_path / "over-x.t"
    machine.write_text(
        "kind sequential\ninputs x\noutputs x\nstates 0\ninitial 0\nfinals 0\n0 x / x -> 0\n"
    )
    code, out, err = run(capsys, "verify", files["ident"], str(machine))
    assert code == 3
    assert out == ""
    assert err == "kernseq: error [ALPHABET_MISMATCH]: machine inputs and relation letters differ\n"


def test_wrong_kind_input_exits_three(files, capsys, tmp_path):
    witness = str(tmp_path / "w.t")
    assert main(["decide", "ll", files["ident"], "-o", witness]) == 0
    capsys.readouterr()
    code, _, err = run(capsys, "validate", witness)
    assert code == 3
    assert "letter-transducer" in err


def test_verify_names_the_file_kinds_it_takes(files, capsys):
    code, out, err = run(capsys, "verify", files["ident"], files["ident"])
    assert (code, out) == (3, "")
    assert "expected a sequential or subsequential file, got kind letter-transducer" in err
    assert "Transducer" not in err


# argvs the dispatch of ``main`` must parse as the full parser does
_PARITY = {
    "validate": ["validate", "r.t", "--json"],
    "analyze": ["analyze", "r.t", "--closure-cap", "3"],
    "decide-ll": ["decide", "ll", "r.t", "-o", "w.t", "--json"],
    "decide-lp": ["decide", "lp", "r.t", "--pplus", "p.t", "--eliminate-final-output"],
    "closure": ["closure", "r.t", "--cap", "2", "-o", "c.t"],
    "verify": ["verify", "r.t", "w.t", "--max-len", "4"],
    "ll-pplus": ["decide", "ll", "r.t", "--pplus", "/nonexistent"],
    "ll-closure-cap": ["decide", "ll", "r.t", "--closure-cap", "0"],
    "ll-eliminate": ["decide", "ll", "r.t", "--eliminate-final-output"],
    "lp-pplus-and-cap": ["decide", "lp", "r.t", "--pplus", "F", "--closure-cap", "3"],
    **{
        f"help-{'-'.join(words)}": [*words, "--help"]
        for words in (["validate"], ["analyze"], ["decide", "ll"], ["decide", "lp"], ["closure"], ["verify"])
    },
    "h": ["-h"],
    "version": ["--version"],
    "empty": [],
    "decide-alone": ["decide"],
    "decide-xx": ["decide", "xx", "f"],
    "option-before-variant": ["decide", "--json", "ll", "f"],
    "trailing-word": ["decide", "ll", "f", "extra"],
    "output-without-value": ["decide", "ll", "f", "-o"],
    "abbreviated-closure": ["decide", "lp", "f", "--closure", "2"],
    "abbreviated-json": ["verify", "r.t", "w.t", "--jso"],
    # ambiguous to the full parser (--help or --version), not to the leaf's
    "ambiguous-to-the-top": ["validate", "f", "--=x"],
}


@pytest.mark.parametrize("argv", _PARITY.values(), ids=_PARITY)
def test_the_dispatch_parses_as_the_full_parser(capsys, argv):
    def outcome(parse):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
        return result, *capsys.readouterr()

    assert outcome(_parse) == outcome(build_parser().parse_args)


def test_usage_error_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "xx", "nothing.t"])
    assert exc.value.code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ll", "--pplus", "/nonexistent"], "unrecognized arguments: --pplus"),
        (["ll", "--closure-cap", "0"], "unrecognized arguments: --closure-cap"),
        (["ll", "--eliminate-final-output"], "unrecognized arguments: --eliminate"),
        (["lp", "--pplus", "F", "--closure-cap", "3"], "not allowed with argument --pplus"),
    ],
    ids=["ll-pplus", "ll-closure-cap", "ll-eliminate", "lp-pplus-and-cap"],
)
def test_decide_rejects_options_it_would_ignore(files, capsys, argv, message):
    variant, *options = argv
    with pytest.raises(SystemExit) as exc:
        main(["decide", variant, files["ident"], *options])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "usage:" in err and message in err


def test_non_equivalence_input_to_decide_exits_three(files, capsys, tmp_path):
    bad = tmp_path / "bad.t"
    bad.write_text(
        "kind letter-transducer\ninputs a\noutputs a\nstates 0 1\n"
        "initials 0\nfinals 1\n0 a / a -> 1\n"
    )
    code, _, err = run(capsys, "decide", "ll", str(bad))
    assert code == 3
    assert "NOT_EQUIVALENCE" in err


@pytest.mark.parametrize(
    "exc", [MemoryError(), DimensionCapError("matrix state count exceeds safety cap")]
)
def test_resource_exhaustion_exits_five_with_one_line(files, capsys, monkeypatch, exc):
    import kernseq.cli

    def exhaust(relation):
        raise exc

    monkeypatch.setattr(kernseq.cli, "_certified_mealy", exhaust)
    code, out, err = run(capsys, "decide", "ll", files["ident"])
    assert code == 5
    assert out == ""
    assert err.startswith("kernseq: resource exhausted") and err.count("\n") == 1


def test_validate_out_of_memory_in_the_pair_dfa_exits_five(files, capsys, monkeypatch):
    import kernseq.automata

    def exhaust(nfa):
        raise MemoryError()

    monkeypatch.setattr(kernseq.automata, "_subset_dfa", exhaust)
    code, out, err = run(capsys, "validate", files["ident"])
    assert code == 5
    assert out == ""
    assert err.startswith("kernseq: resource exhausted") and err.count("\n") == 1


def test_state_cap_below_the_witness_exits_five(capsys, monkeypatch, tmp_path):
    import kernseq.synthesis

    path = tmp_path / "agree3.t"
    path.write_text(render(build_agree_except_last(3)))  # witness: 15 states
    monkeypatch.setattr(kernseq.synthesis, "STATE_CAP", 15)
    assert run(capsys, "decide", "ll", str(path))[0] == 0
    monkeypatch.setattr(kernseq.synthesis, "STATE_CAP", 14)
    code, out, err = run(capsys, "decide", "ll", str(path))
    assert code == 5
    assert out == ""
    assert err.startswith("kernseq: resource exhausted") and err.count("\n") == 1


def test_entry_cap_below_the_witness_exits_five(capsys, monkeypatch, tmp_path):
    import kernseq.synthesis

    path = tmp_path / "agree3.t"
    path.write_text(render(build_agree_except_last(3)))  # matrices: 85 entries
    monkeypatch.setattr(kernseq.synthesis, "ENTRY_CAP", 85)
    assert run(capsys, "decide", "ll", str(path))[0] == 0
    monkeypatch.setattr(kernseq.synthesis, "ENTRY_CAP", 84)
    code, out, err = run(capsys, "decide", "ll", str(path))
    assert code == 5
    assert out == ""
    assert err.startswith("kernseq: resource exhausted") and err.count("\n") == 1


# the relations of the ``files`` fixture and three families; (relation, closure cap)
_LP_CASES = {
    "last_a": (build_last_a, None),
    "parity": (build_a_parity, None),
    "c_singletons": (build_c_singletons, None),
    "chain": (build_chained_classes, None),
    "chain-cap-1": (build_chained_classes, 1),
    "ident": (lambda: identity(AB), None),
    **{f"mod-{k}": (lambda k=k: build_mod_count(k), None) for k in (2, 3, 4)},
    **{f"agree-except-last-{k}": (lambda k=k: build_agree_except_last(k), None) for k in (1, 2, 3)},
    **{f"chain-{k}": (lambda k=k: build_chain(k), None) for k in (1, 2)},
}


@pytest.mark.parametrize("name", _LP_CASES)
def test_decide_lp_writes_the_machines_of_the_library(capsys, tmp_path, name):
    build, cap = _LP_CASES[name]
    r = build()
    verdict = decide_kerseq_lp(r) if cap is None else decide_kerseq_lp(r, cap=cap)
    path = tmp_path / "r.t"
    path.write_text(render(r))
    options = [] if cap is None else ["--closure-cap", str(cap)]
    out = tmp_path / "out.t"
    reports = []
    argv = ["decide", "lp", str(path), "-o", str(out), *options]
    written = (([], verdict.subsequential), (["--eliminate-final-output"], verdict.witness))
    for flag, machine in written:
        code, payload, err = run_json(capsys, *argv, *flag)
        assert err == ""
        reports.append((code, payload))
        if machine is None:  # NO or UNKNOWN
            assert not out.exists()
        else:
            assert out.read_text() == render(machine)
            out.unlink()
    assert reports[0] == reports[1]
    code, payload = reports[0]
    assert code == {"YES": 0, "NO": 1, "UNKNOWN": 2}[verdict.outcome.value]
    assert (payload["outcome"], payload["reason"]) == (verdict.outcome.value, verdict.reason)
    assert payload["witness"] == (str(out) if verdict.witness else None)
    # decide ll writes the machine of the library too, on its one YES path
    verdict = decide_kerseq_ll(r)
    code, payload, err = run_json(capsys, "decide", "ll", str(path), "-o", str(out))
    assert err == "" and code == {"YES": 0, "NO": 1}[verdict.outcome.value]
    assert (payload["outcome"], payload["reason"]) == (verdict.outcome.value, verdict.reason)
    if verdict.witness is None:
        assert not out.exists() and payload["witness"] is None
    else:
        assert out.read_text() == render(verdict.witness) and payload["witness"] == str(out)


@pytest.mark.parametrize(
    "build",
    [build_a_parity, lambda: build_agree_except_last(2)],
    ids=["parity", "agree-except-last-2"],
)
def test_a_broken_elimination_step_fails_only_where_it_runs(capsys, monkeypatch, tmp_path, build):
    # parity has two final-output values, agree-except-last-2 one: both
    # branches of the elimination step's certification
    import kernseq.decision

    r = build()
    sub = render(decide_kerseq_lp(r).subsequential)
    path, out = tmp_path / "r.t", tmp_path / "out.t"
    path.write_text(render(r))
    eliminated = kernseq.decision._eliminated

    def flip(t):
        # the eliminated table with the output code of state 0 on its first letter changed
        t = eliminated(t)
        t.codes = [row[:] for row in t.codes]
        t.codes[0][0] = (t.codes[0][0] + 1) % len(t.words)
        return t

    monkeypatch.setattr(kernseq.decision, "_eliminated", flip)
    for output in ([], ["-o", str(out)]):
        code, stdout, err = run(
            capsys, "decide", "lp", str(path), "--eliminate-final-output", *output
        )
        assert code == 4 and stdout == ""
        assert err.startswith("kernseq: internal invariant breach") and err.count("\n") == 1
        assert not out.exists()
    with pytest.raises(InternalInvariantError, match="witness after final-output elimination"):
        decide_kerseq_lp(r)
    code, _payload, err = run_json(capsys, "decide", "lp", str(path), "-o", str(out))
    assert code == 0 and err == ""
    assert out.read_text() == sub
