"""Traced child process: one mds CLI command with spans around each layer.

    python3 bench/tracer.py SPANS_JSON RUN_ID BUILD_REPORT -- <mds cli arguments>

The spans are taken from this file only: each layer's public function is
wrapped through the attribute of the module that calls it (for example
``mds.scenario.simpson_prefix_matrix`` or ``mds.solver.apply_psi``), in
this process only, so nothing under ``src/`` changes.  Spans stay in memory
and are written to SPANS_JSON when the run ends.

After the CLI command, inside the top-level ``bench.extras`` span that the
parent subtracts from the traced wall time, the child builds the resolvent
table twice more: once at about half the node count, for the growth
exponent, and once at full size under ``tracemalloc`` for the peak of the
build's allocations (tracing allocations slows the build by about a quarter,
so the timed build runs without it).  With BUILD_REPORT=1 it also times the
smallness-condition report, which no CLI command of the workloads calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder: name, start, end, parent span id, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)


def _install(tracer: Tracer, seen: dict) -> None:
    import mds.control
    import mds.scenario
    import mds.scenario_io
    import mds.solver
    import mds.spectral

    def keep_scenario(scn):
        seen["scenario"] = scn

    def keep_outer(outcome):
        tracer.counts["control.outer_iterations"] = outcome.report.outer_iterations

    io = mds.scenario_io
    tracer.wrap(io, "parse_scenario", "scenario_io.parse_scenario", keep_scenario)
    tracer.wrap(io, "build_time_grid", "measure.build_time_grid")
    tracer.wrap(io, "steer", "control.steer", keep_outer)
    tracer.wrap(io, "verify_resolvent_pde", "spectral.verify_resolvent_pde")
    tracer.wrap(io, "check_autonomous_reduction", "spectral.check_autonomous_reduction")
    tracer.wrap(io, "write_trajectory_csv", "scenario_io.write_trajectory_csv")
    tracer.wrap(io, "write_control_csv", "scenario_io.write_control_csv")
    tracer.wrap(mds.scenario, "simpson_prefix_matrix", "quad.simpson_prefix_matrix")
    tracer.wrap(mds.scenario, "trapezoid_prefix_matrix", "quad.trapezoid_prefix_matrix")
    tracer.wrap(mds.spectral, "trapezoid_prefix_matrix", "quad.trapezoid_prefix_matrix")
    tracer.wrap(mds.control, "picard_solve", "solver.picard_solve")
    tracer.wrap(mds.control, "synthesize_control", "control.synthesize_control")
    tracer.wrap(mds.solver, "apply_psi", "solver.apply_psi")
    tracer.wrap(mds.scenario, "build_resolvent_table", "spectral.build_resolvent_table")


def _extras(tracer: Tracer, scn, build_report: bool) -> None:
    import mds.conditions
    import mds.measure
    import mds.spectral

    build = mds.spectral.build_resolvent_table
    half = mds.measure.build_time_grid(scn.h, (scn.config["grid"]["nodes"] + 1) // 2)
    with tracer.span("bench.half_build") as rec:
        build(scn.basis, scn.linear, half)
    rec["nodes"] = len(half)
    tracemalloc.start()
    try:
        with tracer.span("bench.peak_build"):
            build(scn.basis, scn.linear, scn.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracer.counts["spectral.build_peak_alloc_bytes"] = peak
    if build_report:
        with tracer.span("conditions.build_report"):
            mds.conditions.build_report(scn)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, run_id, build_report = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[4:]
    tracer = Tracer(run_id)
    with tracer.span("cli.import"):
        import mds
        import mds.cli
    seen: dict = {}
    _install(tracer, seen)
    with tracer.span("cli.main"):
        code = mds.cli.main(cli_args)
    with tracer.span("bench.extras"):
        if code == 0 and "scenario" in seen:
            _extras(tracer, seen["scenario"], build_report)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "exit_code": code, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
