"""Benchmark of kernseq: time to a checked verdict, memory and witness size.

Run one workload (the last line of output is one JSON object):

    python3 bench/run.py --workload suite-lp --seed 1 --seconds 20 --trace 0

Run every workload, each in its own process, and print a table:

    python3 bench/run.py --seed 1

``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones. See README.md for the workloads, the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import spans  # noqa: E402  (the benchmark's own modules sit beside this file)
import workloads  # noqa: E402
from check import CheckFailed, Checker, Machine, expect, parse_machine  # noqa: E402

SETUP_REPEATS = 5
# About how long one round takes at reference speed; --seconds is turned
# into a fixed number of rounds with it.
ROUND_SECONDS = {"suite-lp": 23, "suite-symbolic": 9, "families": 2.8}
WORKLOADS = ("suite-lp", "suite-symbolic", "families")
EXIT_BY_OUTCOME = {"YES": 0, "NO": 1, "UNKNOWN": 2}


class OperationFailed(Exception):
    """The program could not produce a verdict (an error, not a wrong answer)."""


def import_kernseq():
    """Import kernseq afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "kernseq" or n.startswith("kernseq.")]:
        del sys.modules[name]
    ks = importlib.import_module("kernseq")
    importlib.import_module("kernseq.cli")
    return ks


# ------------------------------------------------------------- operations
# Each workload has an operation (one relation through its call chain,
# timed) and a check of the operation's output (untimed), which returns
# the number of witness states the output carries.


def op_suite_lp(ks, case, workdir):
    return ks.decide_kerseq_lp(case.relation, cap=workloads.LP_CAP)


def check_suite_lp(case, verdict, checker: Checker) -> int:
    # Every suite relation is the kernel of a subsequential machine by
    # construction (same length, same block of the reached DFA state).
    expect(verdict.outcome.value == "YES", f"{case.name}: lp answered {verdict.outcome.value}")
    checker.witness(Machine.of(verdict.subsequential), f"{case.name}: subsequential witness")
    checker.witness(Machine.of(verdict.witness), f"{case.name}: eliminated witness")
    return len(verdict.subsequential.base.states) + len(verdict.witness.states)


def op_suite_symbolic(ks, case, workdir):
    r = case.relation
    return ks.validate_relation(r), ks.analyze(r), ks.decide_kerseq_ll(r)


def check_suite_symbolic(case, output, checker: Checker) -> int:
    validation, report, ll = output
    name = case.name
    expect(validation.is_equivalence, f"{name}: validate rejects an equivalence")
    expect(report.validation == validation, f"{name}: analyze and validate disagree")
    expect(
        report.closure is not None and report.closure.converged,
        f"{name}: closure did not converge",
    )
    # A subsequential kernel has finite index with respect to its closure.
    expect(report.index_wrt_closure == "FINITE", f"{name}: index wrt closure not FINITE")
    checker.prefix_closed(report.prefix_closed, f"{name}: analyze")
    ll_yes = report.prefix_closed and report.index_wrt_relation == "FINITE"
    expect(
        (ll.outcome.value == "YES") == ll_yes,
        f"{name}: ll answered {ll.outcome.value} {ll.reason} against analyze",
    )
    if ll.outcome.value == "YES":
        witness = Machine.of(ll.witness)
        checker.witness(witness, f"{name}: mealy witness")
        return witness.size
    if ll.reason == "NOT_PREFIX_CLOSED":
        expect(checker.violation is not None, f"{name}: no pair outside the prefix closure")
    else:
        expect(ll.reason == "INFINITE_INDEX", f"{name}: ll reason {ll.reason}")
    return 0


def _cli(ks, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ks.cli.main(argv)
    if code not in EXIT_BY_OUTCOME.values():
        raise OperationFailed(f"kernseq {' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return code, json.loads(out.getvalue())


def _witness_paths(case, workdir):
    return {v: workdir / f"{case.name}.{v}.t" for v in ("ll", "lp")}


def op_families(ks, case, workdir):
    paths = _witness_paths(case, workdir)
    cap = case.expect["cap"]
    results = {
        "ll": _cli(ks, ["decide", "ll", case.path, "-o", str(paths["ll"]), "--json"]),
        "lp": _cli(
            ks,
            ["decide", "lp", case.path, "-o", str(paths["lp"]), "--json"]
            + (["--closure-cap", str(cap)] if cap is not None else []),
        ),
    }
    for variant in ("ll", "lp"):
        if results[variant][1]["outcome"] == "YES":
            results[f"verify-{variant}"] = _cli(
                ks, ["verify", case.path, str(paths[variant]), "--json"]
            )
    return results


def check_families(case, results, checker: Checker) -> int:
    exp = case.expect
    states = 0
    for variant in ("ll", "lp"):
        what = f"{case.name}: decide {variant}"
        code, report = results[variant]
        got = (report["outcome"], report["reason"])
        expect(got == exp[variant], f"{what} answered {got}, expected {exp[variant]}")
        expect(code == EXIT_BY_OUTCOME[got[0]], f"{what} exited {code} for {got[0]}")
        if got == workloads.NPC:
            expect(checker.violation is not None, f"{what}: no pair outside the prefix closure")
        if got[0] != "YES":
            continue
        path = _witness_paths(case, Path(case.path).parent)[variant]
        witness = parse_machine(path.read_text(encoding="utf-8"))
        checker.witness(witness, f"{what} witness file")
        states += witness.size
        code, report = results[f"verify-{variant}"]
        expect(
            code == 0 and report["kernelEqualsRelation"] is True,
            f"{case.name}: verify rejects the {variant} witness",
        )
        if variant == "ll" and "ll_states" in exp:
            expect(
                witness.size >= exp["ll_states"],
                f"{what}: {witness.size} states, below the congruence index {exp['ll_states']}",
            )
    if "exponent" in exp:
        closure = results["lp"][1]["closure"]
        expect(
            closure == {"converged": True, "exponent": exp["exponent"]},
            f"{case.name}: closure {closure}, expected exponent {exp['exponent']}",
        )
    return states


def prepare_families(case, workdir):
    for path in _witness_paths(case, workdir).values():
        path.unlink(missing_ok=True)


OPERATIONS = {
    "suite-lp": (op_suite_lp, check_suite_lp, None),
    "suite-symbolic": (op_suite_symbolic, check_suite_symbolic, None),
    "families": (op_families, check_families, prepare_families),
}


def build_cases(workload, ks, seed, workdir):
    if workload == "suite-lp":
        return workloads.suite_lp(ks, seed)
    if workload == "suite-symbolic":
        return workloads.suite_symbolic(ks, seed)
    return workloads.families(ks, seed, workdir)


# ------------------------------------------------------------- measuring


def reference_work():
    """Fixed pure-Python work, independent of kernseq: tuples, dicts, sets."""
    counts: dict = {}
    x = 1
    for _ in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, (x >> 6) & 63)
        counts[key] = counts.get(key, 0) + 1
    return frozenset(counts)


# On a shared virtual machine a core's speed can switch between a fast and
# a slow mode (about 1.6x apart) many times a minute, with the share of
# slow time differing from run to run. Each timed step is therefore
# bracketed by two runs of ``reference_work`` and reported at reference
# speed: its wall time times REFERENCE_S over the mean of the two.
REFERENCE_S = 0.002


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def timed(fn, *args):
    """(result, wall seconds, seconds at reference speed) of one call."""
    before = reference_seconds()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = reference_seconds()
    return result, wall, wall * REFERENCE_S * 2 / (before + after)


def setup_once(workload, seed, workdir):
    ks = import_kernseq()
    return ks, build_cases(workload, ks, seed, workdir)


def setup(workload, seed, workdir):
    """Import kernseq and build the inputs, several times; keep the last.

    Returns the median set-up time at reference speed, and the unscaled one.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        (ks, cases), seconds, at_reference = timed(setup_once, workload, seed, workdir)
        wall.append(seconds)
        scaled.append(at_reference)
    return statistics.median(scaled), statistics.median(wall), ks, cases


class Tally:
    """Operations attempted in a run, the ones that failed, and wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []


def rounds_for(workload, seconds) -> int:
    """Whole rounds that fill about ``seconds``; fixed, so every run does the same work."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def measure(workload, ks, cases, workdir, rounds, tally: Tally, tracer=None):
    """Run every case ``rounds`` times, timing each operation and checking its output.

    Garbage is collected before each operation, outside the timed call,
    with the inputs and checkers frozen out of the collector's way, so a
    collection owed to earlier work does not land inside a timed call.
    Returns each case's verdict times, as wall seconds and as seconds at
    reference speed, and the witness states of each round.
    """
    op, check_output, prepare = OPERATIONS[workload]
    checkers = {case.name: Checker(case.relation) for case in cases}
    wall: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    round_states: list[int] = []
    gc.collect()
    gc.freeze()
    try:
        for _ in range(rounds):
            states = 0
            for case in cases:
                if prepare is not None:
                    prepare(case, workdir)
                if tracer is not None:
                    tracer.verdict = f"{len(round_states)}:{case.name}"
                tally.attempted += 1
                gc.collect()
                try:
                    output, seconds_wall, seconds_scaled = timed(op, ks, case, workdir)
                except Exception as exc:  # a failed operation is counted, not fatal
                    tally.failures.append(f"{case.name}: {type(exc).__name__}: {exc}")
                    continue
                wall.setdefault(case.name, []).append(seconds_wall)
                scaled.setdefault(case.name, []).append(seconds_scaled)
                try:
                    states += check_output(case, output, checkers[case.name])
                except CheckFailed as exc:
                    tally.wrong.append(str(exc))
            round_states.append(states)
    finally:
        gc.unfreeze()
    return wall, scaled, round_states


def end_to_end(setup_s, times, round_states):
    """The end-to-end metrics; a relation's verdict time is its median over the rounds."""
    every = [t for ts in times.values() for t in ts]
    per_case = [statistics.median(ts) for ts in times.values()]
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(every) / sum(every), "1/s"),
        "verdict_ms.p50": (statistics.median(per_case) * 1e3, "ms"),
        "verdict_ms.p95": (statistics.quantiles(per_case, n=20, method="inclusive")[18] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "witness_states": (round_states[0], "count"),
    }


def run_workload(args) -> int:
    if not (SRC / "kernseq" / "__init__.py").is_file():
        print(f"run.py: no kernseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_s, setup_wall, ks, cases = setup(args.workload, args.seed, workdir)
        if not Path(ks.__file__).resolve().is_relative_to(SRC):
            print(f"run.py: imported kernseq from {ks.__file__}, not {SRC}", file=sys.stderr)
            return 2
        tally = Tally()
        rounds = rounds_for(args.workload, args.seconds)
        wall, scaled, round_states = measure(args.workload, ks, cases, workdir, rounds, tally)
        unscaled = end_to_end(setup_wall, wall, round_states)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                _, traced, _ = measure(args.workload, ks, cases, workdir, rounds, tally, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics()
            overhead = sum(map(sum, traced.values())) / sum(map(sum, scaled.values())) - 1
            metrics["trace.overhead_pct"] = (overhead * 100, "%")
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics = end_to_end(setup_s, scaled, round_states)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.failures[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    for problem in tally.wrong[:10]:
        print(f"incorrect: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    raw = {
        "result": result,
        "rounds": len(round_states),
        "unscaled": {name: value for name, (value, _unit) in unscaled.items()},
        "verdict_wall_s": wall,
        "verdict_scaled_s": scaled,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw), encoding="utf-8"
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:50s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print their metrics side by side."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"run.py: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':50s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        row = [results[w]["metrics"][name]["value"] for w in WORKLOADS]
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':50s}" + "".join(f"{v:16.6g}" for v in row))
    for key in ("correct", "attempted", "failed"):
        print(f"{key:50s}" + "".join(f"{str(results[w][key]):>16s}" for w in WORKLOADS))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
