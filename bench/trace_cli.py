"""Run ``atsplit`` with spans around the calls that cross module boundaries.

Usage::

    PYTHONPATH=src python3 bench/trace_cli.py SPANS.json run CONFIG [CLI ARGS...]

The CLI arguments after SPANS.json go to ``atsplit.cli.main`` unchanged.
Spans and counts stay in memory and are written to SPANS.json when ``main``
returns, with an estimate of the time the wrappers added. Calls made inside
``at_map``'s worker processes are not traced: the ``experiments.at_map`` span
covers them.
"""

from __future__ import annotations

import json
import statistics
import sys
from functools import wraps
from time import perf_counter

from atsplit import analysis, cli, config, experiments, solver

#: (namespace the caller looks the name up in, attribute, span name). Each
#: entry is a call from one module of the program into another.
SPANNED = [
    (config, "load", "config.load"),
    (cli, "run_experiment", "cli.run_experiment"),
    (cli, "fit_peaks", "analysis.fit_peaks"),
    (cli, "probe_spectroscopy", "experiments.probe_spectroscopy"),
    (cli, "coupler_spectroscopy", "experiments.coupler_spectroscopy"),
    (cli, "rabi_trace", "experiments.rabi_trace"),
    (cli, "at_map", "experiments.at_map"),
    (cli, "at_slice", "experiments.at_slice"),
    (cli, "fidelity_vs_coupler", "experiments.fidelity_vs_coupler"),
    (cli, "eit_regime_scan", "experiments.eit_regime_scan"),
    (experiments, "evolve", "solver.evolve"),
    (experiments, "readout_signal", "solver.readout_signal"),
    (experiments, "dark_state_fidelity", "analysis.dark_state_fidelity"),
]

#: Calls that are too frequent and too short to time; only counted.
COUNTED = [
    (solver, "check_density_matrix", "model.check_density_matrix"),
    (analysis, "check_density_matrix", "model.check_density_matrix"),
]


class Tracer:
    """In-memory spans ``[id, parent id, name, start, end]`` and call counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def overhead_s(self, batch: int = 2000) -> float:
        """Estimated time the wrappers added, from timing them on a no-op.

        The cost per span and per count is the median over five batches of
        wrapped no-op calls minus the same batches unwrapped.
        """

        def noop():
            return None

        probe = Tracer()
        spanned, counted = probe.spanned("probe", noop), probe.counted("probe", noop)

        def per_call(fn) -> float:
            times = []
            for _ in range(5):
                start = perf_counter()
                for _ in range(batch):
                    fn()
                times.append((perf_counter() - start) / batch)
            return statistics.median(times)

        bare = per_call(noop)
        span_cost = max(per_call(spanned) - bare, 0.0)
        count_cost = max(per_call(counted) - bare, 0.0)
        return len(self.spans) * span_cost + sum(self.counts.values()) * count_cost

    def install(self) -> None:
        for namespace, attr, name in SPANNED:
            setattr(namespace, attr, self.spanned(name, getattr(namespace, attr)))
        for namespace, attr, name in COUNTED:
            setattr(namespace, attr, self.counted(name, getattr(namespace, attr)))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.spanned("cli.main", cli.main)(cli_args)
    finally:
        record = {"spans": tracer.spans, "counts": tracer.counts,
                  "overhead_s": tracer.overhead_s()}
        with open(out_path, "w") as f:
            json.dump(record, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
