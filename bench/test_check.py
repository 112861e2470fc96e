"""Tests of the benchmark's own verdict checker and tracer.

Run from the repository root:

    python3 -m pytest -q bench/test_check.py
"""

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import kernseq  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from check import (  # noqa: E402
    CheckFailed,
    Checker,
    Machine,
    check_length,
    parse_machine,
    prefix_closure_violation,
)


def lp_witnesses(relation):
    verdict = kernseq.decide_kerseq_lp(relation)
    assert verdict.outcome is kernseq.Outcome.YES
    return Machine.of(verdict.subsequential), Machine.of(verdict.witness)


def test_mod2_witness_is_rejected_against_mod3():
    mod2 = workloads.mod_count(kernseq, 2)
    mod3 = workloads.mod_count(kernseq, 3)
    for witness in lp_witnesses(mod2):
        Checker(mod2).witness(witness, "mod-2 witness")
        with pytest.raises(CheckFailed, match="kernel and relation differ"):
            Checker(mod3).witness(witness, "mod-2 witness against mod-3")


def test_constant_machine_is_rejected_against_identity():
    ab = kernseq.Alphabet(("a", "b"))
    constant = Machine(
        letters=("a", "b"),
        step={(0, "a"): (("x",), 0), (0, "b"): (("x",), 0)},
        initial=0,
        finals=frozenset({0}),
        size=1,
    )
    with pytest.raises(CheckFailed, match=r"differ on \(a, b\)"):
        Checker(kernseq.identity(ab)).witness(constant, "constant")


def test_mealy_witness_of_agree_except_last_is_accepted():
    relation = workloads.agree_except_last(kernseq, 3)
    verdict = kernseq.decide_kerseq_ll(relation)
    witness = Machine.of(verdict.witness)
    Checker(relation).witness(witness, "mealy")
    assert witness.size >= 2**3


def test_prefix_closure_violation_is_a_concrete_pair():
    mod2 = Checker(workloads.mod_count(kernseq, 2))
    u, v = mod2.violation
    assert len(u) == len(v) == 1 and u != v
    assert not mod2.relation.accepts(u, v)
    assert mod2.relation.accepts(u + ("a",), v + ("b",))
    for closed in (workloads.agree_except_last(kernseq, 2), workloads.singletons(kernseq, 2)):
        assert prefix_closure_violation(Checker(closed).relation) is None
    assert Checker(workloads.last_a(kernseq, 2)).violation is not None


def test_prefix_closed_claim_is_checked():
    checker = Checker(workloads.mod_count(kernseq, 3))
    checker.prefix_closed(False, "mod-3")
    with pytest.raises(CheckFailed, match="prefix-closed claimed True"):
        checker.prefix_closed(True, "mod-3")


def test_parsed_witness_file_runs_like_the_machine():
    from kernseq.fileformat import render

    verdict = kernseq.decide_kerseq_lp(workloads.chain(kernseq, 1))
    for machine in (verdict.subsequential, verdict.witness):
        parsed = parse_machine(render(machine))
        direct = Machine.of(machine)
        assert parsed.size == direct.size
        for n in range(4):
            for word in itertools.product(direct.letters, repeat=n):
                assert parsed.run(word) == direct.run(word)


def test_check_length_follows_the_budget():
    assert [check_length(k) for k in (2, 3, 4)] == [5, 3, 2]


def test_tracer_rebinds_imported_names_and_splits_self_time():
    from kernseq import relations

    original = relations.validate_relation
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert relations.validate_relation is not original
        kernseq.decide_kerseq_ll(workloads.agree_except_last(kernseq, 2))
    finally:
        tracer.uninstall()
    assert relations.validate_relation is original
    assert tracer.calls["decision.decide_kerseq_ll"] == 1
    assert tracer.calls["relations.validate_relation"] >= 1
    top = [s for s in tracer.spans if s[1] is None]
    assert len(top) == 1
    total = top[0][4] - top[0][3]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-6)
    metrics = tracer.metrics()
    assert [name for name, _ in spans.metric_names()] == list(metrics)
    assert metrics["oracle.enumerate_relation.calls"] == (0, "count")
