"""Acceptance criteria, one test per criterion.

Each test prints one ``acceptance criterion N: PASS/FAIL`` line (visible
with ``pytest -s``). The randomized part runs the full 200-instance
suite with the default seed; all tolerances are exact set or language
comparisons at the stated bounds.
"""

import time

import pytest

from kernseq.automata import determinize, language_equal, minimize, trim
from kernseq.cli import main as cli_main
from kernseq.decision import (
    INFINITE_INDEX,
    NOT_PREFIX_CLOSED,
    Outcome,
    decide_kerseq_ll,
    decide_kerseq_lp,
    index_is_finite,
    is_finitely_valued,
)
from kernseq.fileformat import render
from kernseq.oracle import (
    brute_index,
    brute_kernel,
    closure_pairs,
    default_suite,
    enumerate_relation,
    index_profile,
    valuedness_profile,
)
from kernseq.relations import (
    min_lex_uniformizer,
    prefix_closure,
    syntactic_congruence,
)
from kernseq.synthesis import (
    eliminate_final_output,
    kernel_transducer,
    synthesize_subsequential,
)
from kernseq.transducers import identity

from boolean_ops import relation_union
from reference_compose import reference_compose
from conftest import (
    AB,
    build_a_parity,
    build_agree_except_last,
    build_c_singletons,
    build_chained_classes,
    build_last_a,
)

SUITE_SIZE = 200
CAP = 16


def report(criterion, failures, checked):
    ok = not failures
    line = f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({checked} checks)"
    print(line, flush=True)
    assert ok, f"criterion {criterion}: {failures[:5]}"


@pytest.fixture(scope="session")
def suite():
    return default_suite(SUITE_SIZE)


@pytest.fixture(scope="session")
def suite_verdicts(suite):
    return [
        (r, decide_kerseq_ll(r), decide_kerseq_lp(r, cap=CAP)) for r in suite
    ]


@pytest.fixture(scope="session")
def fixture_relations():
    return {
        "last_a": build_last_a(),
        "parity": build_a_parity(),
        "c_singletons": build_c_singletons(),
        "agree_except_last": build_agree_except_last(),
        "chain": build_chained_classes(),
        "ident": identity(AB),
    }


@pytest.fixture(scope="session")
def fixture_verdicts(fixture_relations):
    out = {}
    for name, r in fixture_relations.items():
        out[name] = (r, decide_kerseq_ll(r), decide_kerseq_lp(r, cap=CAP))
    return out


def test_criterion_1_fixture_verdicts(fixture_verdicts):
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    _, ll, lp = fixture_verdicts["last_a"]
    expect((lp.outcome, lp.reason) == (Outcome.NO, INFINITE_INDEX), "last_a lp")
    _, ll, lp = fixture_verdicts["parity"]
    expect((ll.outcome, ll.reason) == (Outcome.NO, NOT_PREFIX_CLOSED), "parity ll")
    expect(lp.outcome is Outcome.YES, "parity lp")
    _, ll, lp = fixture_verdicts["c_singletons"]
    expect((lp.outcome, lp.reason) == (Outcome.NO, INFINITE_INDEX), "c_singletons lp")
    expect(lp.closure is None, "c_singletons decided before any closure")
    expect((ll.outcome, ll.reason) == (Outcome.NO, INFINITE_INDEX), "c_singletons ll")
    _, ll, lp = fixture_verdicts["ident"]
    expect(ll.outcome is Outcome.YES, "ident ll")
    report(1, failures, 6)


@pytest.mark.slow
def test_criterion_2_synthesis_soundness(fixture_verdicts, suite_verdicts):
    failures = []
    checked = 0
    everything = list(fixture_verdicts.values()) + suite_verdicts
    for r, ll, lp in everything:
        if ll.outcome is Outcome.YES:
            checked += 1
            if not language_equal(kernel_transducer(ll.witness).nfa, r.nfa):
                failures.append(("mealy kernel", r))
        if lp.outcome is Outcome.YES:
            checked += 1
            if not language_equal(kernel_transducer(lp.subsequential).nfa, r.nfa):
                failures.append(("subsequential kernel", r))
            if brute_kernel(lp.witness, 8).pairs != enumerate_relation(r, 8).pairs:
                failures.append(("eliminated kernel at 8", r))
    report(2, failures, checked)


def test_criterion_3_index_bounded_by_witness_states(fixture_verdicts, suite_verdicts):
    failures = []
    checked = 0
    for r, ll, _lp in list(fixture_verdicts.values()) + suite_verdicts:
        if ll.outcome is not Outcome.YES:
            continue
        checked += 1
        s, _ = syntactic_congruence(r)
        if brute_index(s, r, 6) > len(ll.witness.states):
            failures.append(("index above state count", r))
    report(3, failures, checked)


def _growth_agrees(decided_finite, profile):
    if decided_finite:
        return profile[5] == profile[8]
    return profile[8] > profile[4]


def test_criterion_4_decisions_agree_with_growth(suite_verdicts):
    failures = []
    checked = 0
    for r, _ll, lp in suite_verdicts:
        s, _ = syntactic_congruence(r)
        f = min_lex_uniformizer(s)
        t = reference_compose(f, r)
        checked += 2
        if not _growth_agrees(is_finitely_valued(t), valuedness_profile(t, 8)):
            failures.append(("valuedness growth", r))
        if not _growth_agrees(index_is_finite(s, r), index_profile(s, r, 8)):
            failures.append(("index growth wrt relation", r))
        if lp.closure is not None and lp.closure.converged:
            checked += 1
            pplus = lp.closure.closure
            if not _growth_agrees(index_is_finite(s, pplus), index_profile(s, pplus, 8)):
                failures.append(("index growth wrt closure", r))
    report(4, failures, checked)


def _canonical(t):
    return t.with_nfa(trim(minimize(determinize(t.nfa))))


@pytest.mark.slow
def test_criterion_5_closure_correctness(fixture_verdicts, suite_verdicts):
    failures = []
    checked = 0
    for r, _ll, lp in list(fixture_verdicts.values()) + suite_verdicts:
        if lp.closure is None or not lp.closure.converged:
            continue
        k = lp.closure.exponent
        if k > 6:
            continue
        checked += 1
        pc = prefix_closure(r)
        joined = closure_pairs(enumerate_relation(pc, 6).pairs)
        if enumerate_relation(lp.closure.closure, 6).pairs != joined:
            failures.append(("join fixpoint mismatch", r))
        iterates = [_canonical(pc)]
        for _ in range(k):
            iterates.append(
                _canonical(relation_union(iterates[-1], reference_compose(iterates[-1], pc)))
            )
        if not language_equal(iterates[k].nfa, iterates[k - 1].nfa):
            failures.append(("fixpoint exponent too small", r))
        if k > 1 and language_equal(iterates[k - 1].nfa, iterates[k - 2].nfa):
            failures.append(("fixpoint exponent not minimal", r))
    report(5, failures, checked)


def test_criterion_6_parity_canonical_function(fixture_relations):
    parity = fixture_relations["parity"]
    from kernseq.relations import transitive_closure

    closure = transitive_closure(prefix_closure(parity), cap=CAP)
    assert closure.converged
    machine = eliminate_final_output(
        synthesize_subsequential(parity, closure.closure)
    )
    failures = []
    if brute_kernel(machine, 8).pairs != enumerate_relation(parity, 8).pairs:
        failures.append("kernel differs somewhere up to length 8")
    report(6, failures, 1)


def test_criterion_7_cap_exhaustion_is_unknown(fixture_relations, tmp_path):
    chain = fixture_relations["chain"]
    path = tmp_path / "chain.t"
    path.write_text(render(chain))
    started = time.monotonic()
    code = cli_main(["decide", "lp", str(path), "--closure-cap", "1"])
    elapsed = time.monotonic() - started
    failures = []
    if code != 2:
        failures.append(f"exit code {code} instead of 2")
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s")
    verdict = decide_kerseq_lp(chain, cap=1)
    if verdict.outcome is not Outcome.UNKNOWN:
        failures.append("library verdict is not UNKNOWN")
    report(7, failures, 3)
