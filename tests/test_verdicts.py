"""Verdict-equality gates: decisions must match the recorded snapshots.

``tests/data/verdicts_seed7.json`` records, for the conftest fixtures
and the seeded 200-instance suite, what ``decide_kerseq_ll``,
``decide_kerseq_lp`` and ``analyze`` answer: outcome, reason, closure
(converged, exponent), witness state counts and every report field.
``tests/data/witnesses_seed7.json`` records, for the same relations, one
SHA-256 over the ``decide ll`` witness, the ``decide lp`` witness and its
subsequential machine: transitions, finals, initial state, output
alphabet, final outputs and every provenance string. A change that only
reorganizes the constructions must reproduce both exactly. Regenerate
them, deliberately, with::

    PYTHONPATH=src:tests python tests/test_verdicts.py
"""

import hashlib
import json
import pathlib

from kernseq.decision import analyze, decide_kerseq_ll, decide_kerseq_lp
from kernseq.errors import KernseqError
from kernseq.machines import SubsequentialTransducer
from kernseq.oracle import default_suite
from kernseq.transducers import LetterTransducer, full_same_length, identity

from conftest import (
    AB,
    build_a_parity,
    build_agree_except_last,
    build_c_singletons,
    build_chain,
    build_chained_classes,
    build_last_a,
    build_mod_count,
)

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "verdicts_seed7.json"
WITNESSES = SNAPSHOT.with_name("witnesses_seed7.json")


def _relations():
    yield "last_a", build_last_a()
    yield "a_parity", build_a_parity()
    yield "c_singletons", build_c_singletons()
    yield "agree_except_last", build_agree_except_last()
    yield "agree_except_last_3", build_agree_except_last(3)
    yield "chained_classes", build_chained_classes()
    yield "chain_3", build_chain(3)
    yield "mod_count_3", build_mod_count(3)
    yield "ident_ab", identity(AB)
    yield "full_ab", full_same_length(AB)
    yield "bare", LetterTransducer.build(AB, AB, {0, 1}, {(0, ("a", "b"), 1)}, {0}, {1})
    for i, r in enumerate(default_suite(200, seed=7)):
        yield f"suite7_{i}", r


def _closure(c):
    if c is None:
        return None
    return [c.converged, c.exponent, len(c.closure.nfa.states)]


def _guard(fn, r):
    try:
        return fn(r)
    except KernseqError as exc:
        return {"error": exc.code}


def _ll(r):
    v = decide_kerseq_ll(r)
    states = len(v.witness.states) if v.witness else None
    return [v.outcome.value, v.reason, states]


def _lp(r):
    v = decide_kerseq_lp(r)
    states = len(v.witness.states) if v.witness else None
    sub = len(v.subsequential.base.states) if v.subsequential else None
    return [v.outcome.value, v.reason, _closure(v.closure), states, sub]


def _analyze(r):
    rep = analyze(r)
    val = rep.validation
    return {
        "validation": [val.is_reflexive, val.is_symmetric, val.is_transitive],
        "length_preserving": rep.length_preserving,
        "prefix_closed": rep.prefix_closed,
        "index_wrt_relation": rep.index_wrt_relation,
        "closure": _closure(rep.closure),
        "index_wrt_closure": rep.index_wrt_closure,
    }


def snapshot() -> dict:
    return {
        name: {"ll": _guard(_ll, r), "lp": _guard(_lp, r), "analyze": _guard(_analyze, r)}
        for name, r in _relations()
    }


def _machine(m):
    if m is None:
        return None
    final_output = {}
    if isinstance(m, SubsequentialTransducer):
        m, final_output = m.base, m.final_output
    provenance = m.provenance or {}
    return [
        sorted(map(repr, m.transitions.items())),
        sorted(m.finals),
        m.initial,
        list(m.output_alphabet.letters),
        sorted(map(repr, final_output.items())),
        [provenance.get(q) for q in sorted(m.states)],
    ]


def _witnesses(r):
    ll = _guard(lambda r: _machine(decide_kerseq_ll(r).witness), r)
    lp = _guard(decide_kerseq_lp, r)
    if isinstance(lp, dict):
        machines = [ll, lp]
    else:
        machines = [ll, _machine(lp.witness), _machine(lp.subsequential)]
    return hashlib.sha256(repr(machines).encode()).hexdigest()


def witness_digests() -> dict:
    return {name: _witnesses(r) for name, r in _relations()}


def test_verdicts_match_the_recorded_snapshot():
    recorded = json.loads(SNAPSHOT.read_text())
    current = json.loads(json.dumps(snapshot()))
    assert current.keys() == recorded.keys()
    for name in recorded:
        assert current[name] == recorded[name], name


def test_witnesses_match_the_recorded_digests():
    recorded = json.loads(WITNESSES.read_text())
    current = witness_digests()
    assert current.keys() == recorded.keys()
    for name in recorded:
        assert current[name] == recorded[name], name


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    WITNESSES.write_text(json.dumps(witness_digests(), indent=1, sort_keys=True) + "\n")
