"""End-to-end and per-layer benchmark of the mds engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run of a workload is the real
CLI (``python -m mds.cli <command> <config> --out DIR --quiet``) in a fresh
child process with ``src`` on its path.  The loop is closed with one client:
the next run starts only when the previous one has exited, and runs start
while the measured time stays within ``--seconds`` (at least ``MIN_CYCLES``).
The engine is single-process with no queues, so there is no time waited to
report.  BLAS keeps its default thread count, which the host record shows.

``--trace 0`` prints the end-to-end metrics, all from untraced runs:

  wall_s       median wall time of one CLI run, process start to exit
  wall_s_tail  highest percentile of that time with >= 10 runs beyond it;
               with fewer than 11 runs no percentile qualifies, and the
               fastest run is reported with the count beyond it
  setup_s      median in-process time of ``scenario_io.parse_scenario(doc)``,
               one parse after each CLI run (the resolvent build is lazy and
               not part of it)
  peak_rss_mb  median ``ru_maxrss`` of the child, from ``os.wait4``

``--trace 1`` alternates an untraced CLI run with a traced one
(``bench/tracer.py``) and prints the per-layer metrics: span times from the
traced runs (medians over them), exact counts, and kernel sizes computed
from N and the merged M of the parsed Scenario (marked "computed").

Every run's outputs are checked (``bench/check.py``); the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The host record, every sample and every span are written to
``.bench_out/<workload>-seed<seed>-trace<0|1>/record.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")

# Why each workload exists, and which layers it stresses, is in BENCHMARK.json.
WORKLOADS = {
    "demo_steer": {"command": "steer", "config": "configs/demo.json",
                   "nodes": 1025, "build_report": True},
    "linear_exact": {"command": "steer", "config": "configs/linear_steering.json",
                     "nodes": None, "build_report": False},
    "resolvent_verify": {"command": "verify-resolvent",
                         "config": "configs/resolvent_check.json",
                         "nodes": 2048, "build_report": False},
}
MIN_CYCLES = (2, 1)     # cycles per run at --trace 0 (CLI run + parse) and
                        # at --trace 1 (untraced + traced CLI run)
TAIL_BEYOND = 10        # runs that must lie beyond the reported tail percentile
PERTURB = 0.05          # the seed scales each zeta0/zeta1 coefficient by 1 +- this
CHILD_DEADLINE_S = 170  # no child outlives this many seconds after start
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------- inputs

def make_doc(spec: dict, seed: int) -> dict:
    """The workload's config with zeta0 and zeta1 perturbed by the seed only."""
    with open(os.path.join(ROOT, spec["config"]), encoding="utf-8") as fh:
        doc = json.load(fh)
    if spec["nodes"] is not None:
        doc["grid"]["nodes"] = spec["nodes"]
    rng = random.Random(seed)
    for key in ("zeta0", "zeta1"):
        if key in doc["states"]:
            doc["states"][key] = [c * (1.0 + PERTURB * rng.uniform(-1.0, 1.0))
                                  for c in doc["states"][key]]
    return doc


# ---------------------------------------------------------------- host

def _blas_record() -> dict:
    import numpy as np

    blas = dict(np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}))
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "threads": None,
              "env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)      # already loaded by numpy: same handle
        for fn_name in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_record() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas": _blas_record(), "python": platform.python_version(),
            "numpy": np.__version__, "git_commit": _git_commit()}


# ---------------------------------------------------------------- runs

def run_child(argv: list[str], out_dir: str, log_path: str,
              deadline: float) -> tuple[float, float, int]:
    """One child process, closed loop: (wall seconds, peak RSS MiB, exit code)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def tail(samples: list[float]) -> dict:
    """Highest percentile with >= TAIL_BEYOND samples beyond it, with its counts."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND, 1)          # 1-based order statistic
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / len(ordered),
            "beyond": len(ordered) - rank, "samples": len(ordered)}


# ---------------------------------------------------------------- spans

def _self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the time its child spans cover.

    The traced child is single-threaded, so child spans never overlap.
    """
    return span["end"] - span["start"] - sum(c["end"] - c["start"] for c in children)


def traced_layers(trace: dict) -> dict:
    """Per-layer figures of one traced run, from its spans and counts."""
    spans = trace["spans"]
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    top = {s["name"]: s for s in children.get(None, [])}
    in_main, stack = [], [top["cli.main"]["id"]]
    while stack:
        for child in children.get(stack.pop(), []):
            in_main.append(child)
            stack.append(child["id"])
    total: dict = {}
    self_total: dict = {}
    for s in in_main + children.get(top["bench.extras"]["id"], []):
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        self_total[s["name"]] = (self_total.get(s["name"], 0.0)
                                 + _self_time(s, children.get(s["id"], [])))
    psi = [s["end"] - s["start"] for s in in_main if s["name"] == "solver.apply_psi"]
    builds = [s for s in in_main if s["name"] == "spectral.build_resolvent_table"]
    # picard_solve triggers the lazy resolvent build; leave that out of its time
    picard = sum(s["end"] - s["start"]
                 - sum(b["end"] - b["start"] for b in builds
                       if s["start"] <= b["start"] and b["end"] <= s["end"])
                 for s in in_main if s["name"] == "solver.picard_solve")
    return {
        "total": total,
        "self": self_total,
        "apply_psi_median": statistics.median(psi) if psi else 0.0,
        "psi_sweeps": len(psi),
        "picard_calls": sum(s["name"] == "solver.picard_solve" for s in in_main),
        "picard_ex_build": picard,
        "half_nodes": next((s.get("nodes") for s in spans
                            if s["name"] == "bench.half_build"), None),
        "top": {name: s["end"] - s["start"] for name, s in top.items()},
        "counts": trace["counts"],
    }


# ---------------------------------------------------------------- metrics

def computed_counts(n: int, m: int) -> dict:
    """Resolvent-build kernel sizes from N modes and M merged nodes (not measured).

    Step j of the build is a (j+1)-row matvec over all N*M (mode, anchor)
    columns, so it makes N*M*(j+1) multiply-adds; only columns whose anchor
    k <= j, over rows i >= k, hold nonzeros.  Bytes moved count one 8-byte
    table read per multiply-add, the kernel and weight rows, one write of
    each table row and the final transposed copy (a read and a write).
    """
    madds = n * m * m * (m - 1) // 2
    useful = n * (m - 1) * m * (m + 1) // 6
    return {
        "spectral.build_madds": (madds, "count"),
        "spectral.build_bytes_moved": (8 * madds + 8 * m * (m - 1) + 3 * 8 * n * m * m,
                                       "B"),
        "spectral.build_useful_madd_ratio": (useful / madds, "1"),
        "spectral.table_bytes": (8 * n * m * m, "B"),
        "scenario.quad_cache_bytes": (2 * 8 * m * m, "B"),
    }


def per_layer_metrics(layers: list[dict], n: int, m: int, untraced: list[float],
                      csv_bytes: int, failed_ratio: float) -> dict:
    """Every per-layer metric as (value, unit, note); medians over traced runs."""

    def med(get):
        return statistics.median(get(layer) for layer in layers)

    def span_s(name):
        return med(lambda layer: layer["total"].get(name, 0.0))

    def count(get):
        values = [get(layer) for layer in layers]
        note = ("exact count" if len(set(values)) == 1
                else f"varies across traced runs: {values}")
        return statistics.median_low(values), "count", note

    def growth(layer):
        full = layer["total"].get("spectral.build_resolvent_table", 0.0)
        half = layer["total"].get("bench.half_build", 0.0)
        if not (full > 0.0 and half > 0.0 and layer["half_nodes"]):
            return 0.0
        return math.log(full / half) / math.log(m / layer["half_nodes"])

    traced = med(lambda layer: layer["wall"])
    plain = statistics.median(untraced)
    unaccounted = med(lambda layer: layer["wall"] - layer["top"]["cli.import"]
                      - layer["top"]["cli.main"])
    out = {
        "cli.import_s": (med(lambda layer: layer["top"]["cli.import"]), "s",
                         "import mds in a fresh interpreter"),
        "scenario_io.parse_scenario_s": (span_s("scenario_io.parse_scenario"), "s", ""),
        "quad.simpson_prefix_matrix_s": (span_s("quad.simpson_prefix_matrix"), "s", ""),
        "quad.trapezoid_prefix_matrix_s": (span_s("quad.trapezoid_prefix_matrix"),
                                            "s", "parse and verifier calls"),
        "measure.build_time_grid_s": (span_s("measure.build_time_grid"), "s", ""),
        "spectral.build_resolvent_table_s": (span_s("spectral.build_resolvent_table"),
                                             "s", ""),
        "spectral.build_peak_alloc_bytes": (
            med(lambda layer: layer["counts"].get("spectral.build_peak_alloc_bytes", 0)),
            "B", "tracemalloc peak of an extra full-size build"),
        "spectral.build_growth_exp": (med(growth), "1",
                                      "fitted from build times at M and about M/2"),
        "spectral.verify_resolvent_pde_s": (span_s("spectral.verify_resolvent_pde"),
                                            "s", ""),
        "spectral.check_autonomous_reduction_s": (
            span_s("spectral.check_autonomous_reduction"), "s", ""),
        "solver.picard_solve_s": (med(lambda layer: layer["picard_ex_build"]), "s",
                                  "all calls, lazy resolvent build left out"),
        "solver.apply_psi_s": (med(lambda layer: layer["apply_psi_median"]), "s",
                               "median per sweep"),
        "solver.psi_sweeps": count(lambda layer: layer["psi_sweeps"]),
        "solver.picard_calls": count(lambda layer: layer["picard_calls"]),
        "control.steer_self_s": (
            med(lambda layer: layer["self"].get("control.steer", 0.0)), "s",
            "steer minus its child spans"),
        "control.synthesize_control_s": (span_s("control.synthesize_control"), "s",
                                         "all calls"),
        "control.outer_iterations": count(
            lambda layer: layer["counts"].get("control.outer_iterations", 0)),
        "conditions.build_report_s": (span_s("conditions.build_report"), "s",
                                      "extra call after the CLI command"),
        "scenario_io.write_trajectory_csv_s": (
            span_s("scenario_io.write_trajectory_csv"), "s", ""),
        "scenario_io.write_control_csv_s": (span_s("scenario_io.write_control_csv"),
                                            "s", ""),
        "scenario_io.csv_bytes": (csv_bytes, "B", "trajectory.csv + control.csv"),
        "trace.wall_s": (traced, "s", "traced CLI run, extras excluded"),
        "trace.untraced_wall_s": (plain, "s", "untraced runs of this invocation"),
        "trace.overhead_s": (traced - plain, "s", "trace.wall_s - trace.untraced_wall_s"),
        "trace.unaccounted_s": (unaccounted, "s",
                                "traced wall not covered by top-level spans"),
        "failed_ratio": (failed_ratio, "1", "runs failing the output check"),
    }
    for name, (value, unit) in computed_counts(n, m).items():
        out[name] = (value, unit, "computed")
    return out


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    for needed in ("src/mds/cli.py", spec["config"]):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"bench: {needed} is missing; run from a full mds checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    from mds.scenario_io import parse_scenario

    load_start = os.getloadavg()[0]
    started = time.monotonic()
    deadline = started + CHILD_DEADLINE_S
    work = os.path.join(ROOT, ".bench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    doc = make_doc(spec, args.seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out_dir = os.path.join(work, "out")
    log_path = os.path.join(work, "child.log")
    cli_args = [spec["command"], config_path, "--out", out_dir, "--quiet"]

    scn = parse_scenario(doc)            # untimed: warms the parser, gives N and M
    n, m = scn.n_modes, len(scn.grid)
    expected = check.Expected(spec["command"], m, len(scn.jump_rows),
                              scn.tol.tol_target)

    runs: list[dict] = []

    def cli_run(argv: list[str], kind: str) -> dict:
        wall, rss, code = run_child(argv, out_dir, log_path, deadline)
        run = {"kind": kind, "wall_s": wall, "peak_rss_mb": rss, "exit_code": code,
               "failures": check.failures(expected, out_dir, code)}
        runs.append(run)
        return run

    plain = [sys.executable, "-m", "mds.cli"] + cli_args
    setup, layers, traces, csv_bytes = [], [], [], 0
    cycles = 0
    while True:
        cycle = time.monotonic()
        cli_run(plain, "untraced")
        if args.trace:
            spans_path = os.path.join(work, f"spans-{len(traces)}.json")
            run_id = f"{args.workload}-seed{args.seed}-{len(traces)}"
            run = cli_run([sys.executable, os.path.join(BENCH, "tracer.py"), spans_path,
                           run_id, str(int(spec["build_report"])), "--"] + cli_args,
                          "traced")
            if not run["failures"]:
                with open(spans_path, encoding="utf-8") as fh:
                    trace = json.load(fh)
                traces.append(trace)
                layer = traced_layers(trace)
                layer["wall"] = run["wall_s"] - layer["top"]["bench.extras"]
                layers.append(layer)
                csv_bytes = sum(os.path.getsize(os.path.join(out_dir, f))
                                for f in os.listdir(out_dir) if f.endswith(".csv"))
        else:
            t0 = time.perf_counter()
            parse_scenario(doc)
            setup.append(time.perf_counter() - t0)
        cycles += 1
        now = time.monotonic()
        last = now - cycle
        # stop when another cycle as long as this one would overrun --seconds
        if (cycles >= MIN_CYCLES[args.trace] and now - started + last > args.seconds) \
                or now + last > deadline:
            break
    load_end = os.getloadavg()[0]

    failed = sum(bool(r["failures"]) for r in runs)
    failed_ratio = failed / len(runs)
    untraced = [r for r in runs if r["kind"] == "untraced"]
    walls = [r["wall_s"] for r in untraced]
    if args.trace:
        metrics = (per_layer_metrics(layers, n, m, walls, csv_bytes, failed_ratio)
                   if layers else {})
    else:
        t = tail(walls)
        metrics = {
            "wall_s": (statistics.median(walls), "s",
                       f"median of {len(walls)} CLI runs"),
            "wall_s_tail": (t["value"], "s",
                            f"p{t['percentile']:.0f} of {t['samples']} runs, "
                            f"{t['beyond']} beyond"
                            + ("" if t["beyond"] >= TAIL_BEYOND else
                               f" (under {TAIL_BEYOND + 1} runs: the fastest)")),
            "setup_s": (statistics.median(setup), "s",
                        f"median of {len(setup)} parse_scenario calls"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced),
                            "MiB", "child ru_maxrss"),
        }

    host = host_record()
    host.update(load1_start=load_start, load1_end=load_end)
    print(f"workload {args.workload}: mds {spec['command']} {spec['config']} "
          f"grid.nodes={doc['grid']['nodes']} (merged M={m}, N={n}, "
          f"jumps={len(scn.jump_rows)}), seed {args.seed}, trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print("loop: closed, 1 client, each run starts when the previous one exits; "
          "time waited: not applicable (single-process engine, no queues)")
    for run in runs:
        if run["failures"]:
            print(f"FAILED {run['kind']} run: {'; '.join(run['failures'])}")
    rows = dict(metrics)
    if not args.trace:
        rows["failed_ratio"] = (failed_ratio, "1", f"{failed} of {len(runs)} runs")
    for name, (value, unit, note) in rows.items():
        print(f"  {name:<38} {value:>16.6g} {unit:<6} {note}")
    if layers:
        print("self time per span, median over traced runs:")
        for name in sorted({k for layer in layers for k in layer["self"]}):
            value = statistics.median(layer["self"].get(name, 0.0) for layer in layers)
            print(f"  {name:<38} {value:>16.6g} s")

    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "spec": spec, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "host": host,
                   "merged_nodes": m, "modes": n, "runs": runs, "setup_s": setup,
                   "metrics": {k: {"value": v, "unit": u, "note": note}
                               for k, (v, u, note) in metrics.items()},
                   "traces": traces}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
