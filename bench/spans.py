"""Timing spans around the library's public functions, for the traced run.

``Tracer.install`` wraps each function listed in ``LAYERS`` and rebinds
the wrapper everywhere a ``kernseq`` module holds the original, including
names bound by ``from .x import y`` and the package's re-exports. Spans
stay in memory until ``write``. A function's self time is its span minus
the time covered by its wrapped children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

LAYERS = {
    "automata": ("determinize", "intersect", "includes", "language_equal", "minimize", "trim"),
    "transducers": ("pair_dfa", "diagonal_states"),
    "relations": (
        "validate_relation",
        "is_prefix_closed",
        "syntactic_congruence",
        "compose",
        "min_lex_uniformizer",
        "prefix_closure",
        "transitive_closure",
    ),
    "decision": (
        "is_finitely_valued",
        "index_is_finite",
        "decide_kerseq_ll",
        "decide_kerseq_lp",
        "analyze",
    ),
    "synthesis": (
        "synthesize_mealy",
        "synthesize_subsequential",
        "eliminate_final_output",
        "kernel_transducer",
        "validate_closure_witness",
    ),
    "oracle": ("enumerate_relation", "brute_kernel", "default_bound"),
    "fileformat": ("parse", "render"),
    "cli": ("main",),
}


def _words_up_to(machine, bound):
    k = len(machine.input_alphabet)
    return sum(k**n for n in range(bound + 1))


# Sizes recorded per call: name -> (args, result) -> number. All are
# summed over calls except ``l_max``, which keeps the largest.
SIZES = {
    "transducers.pair_dfa": {"states": lambda a, r: len(r.nfa.states)},
    "relations.transitive_closure": {
        "exponent": lambda a, r: r.exponent,
        "states": lambda a, r: len(r.closure.nfa.states),
    },
    "synthesis.synthesize_mealy": {
        "states": lambda a, r: len(r.states),
        # o<j>_<letter> for j up to l_max and every input letter
        "l_max": lambda a, r: len(r.output_alphabet) // len(r.input_alphabet),
    },
    "synthesis.synthesize_subsequential": {
        "states": lambda a, r: len(r.base.states),
        # as above, plus one final letter t<j> per row index
        "l_max": lambda a, r: len(r.output_alphabet) // (len(r.input_alphabet) + 1),
    },
    "oracle.enumerate_relation": {"pairs": lambda a, r: len(r.pairs)},
    "oracle.brute_kernel": {"words": lambda a, r: _words_up_to(a[0], a[1])},
    "fileformat.render": {"bytes": lambda a, r: len(r.encode())},
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for module, functions in LAYERS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            out.append((f"{name}.calls", "count"))
            out.append((f"{name}.self_s", "s"))
            for size in SIZES.get(name, {}):
                out.append((f"{name}.{size}", "bytes" if size == "bytes" else "count"))
    return out


class Tracer:
    """Spans, call counts, self times and sizes of the wrapped functions."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, verdict)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.sizes: dict[str, float] = {}
        self.verdict = None  # identifier shared by the spans of one verdict
        self._stack: list[list] = []  # [span id, time covered by children]
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        sizes = SIZES.get(name, {})
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[span_id] = (span_id, parent, name, start, end, tracer.verdict)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - frame[1]
            for size, measure in sizes.items():
                key = f"{name}.{size}"
                value = measure(args, result)
                if size == "l_max":
                    tracer.sizes[key] = max(tracer.sizes.get(key, 0), value)
                else:
                    tracer.sizes[key] = tracer.sizes.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a kernseq module binds it."""
        homes = {name: importlib.import_module(f"kernseq.{name}") for name in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "kernseq" or n.startswith("kernseq.")]
        for module_name, functions in LAYERS.items():
            home = homes[module_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name, unit in metric_names():
            base, _, field = name.rpartition(".")
            if field == "calls":
                value = self.calls.get(base, 0)
            elif field == "self_s":
                value = self.self_s.get(base, 0.0)
            else:
                value = self.sizes.get(name, 0)
            out[name] = (value, unit)
        return out

    def write(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [
            [i, parent, code[name], round((start - t0) * 1e6), round((end - t0) * 1e6), verdict]
            for i, parent, name, start, end, verdict in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_us", "end_us", "verdict"],
                    "names": names,
                    "spans": rows,
                },
                handle,
                separators=(",", ":"),
            )
