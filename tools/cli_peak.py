"""Peak RSS and wall time of each CLI command on its own, in the working tree and at a
git revision.

    python3 tools/cli_peak.py [REF]

``bench/run.py`` reads a child's ``ru_maxrss``.  The child is started by
vfork, and at exec the kernel keeps the parent's high-water RSS as the
child's, so every reading is at least the bench process's own: on a 2-core
host, about 31.7 MiB (linear_exact) to 31.95 MiB (demo_steer) at the first
run, once it has imported numpy and mds and parsed the workload's document,
and 0.125-0.25 MiB more after some runs, as its own heap grows; a CLI that
peaks lower does not show.
This script starts each command through a small helper process, ``python3
-S`` running HELPER, which imports nothing but ``os``, ``sys`` and the
built-in ``time``: the helper spawns the CLI and reads its ``ru_maxrss``
from ``os.wait4``, so a reading is the CLI's own wherever the CLI peaks
above the helper.  The ``/bin/true`` row shows what the helper alone leaves
as the floor.  The helper also times the CLI from spawn to exit, so each
run gives a wall time beside its peak.

Every command runs on each shipped config and at the benchmark's sizes
(demo.json at 1025 nodes, resolvent_check.json at 2048), RUNS times per
tree, the trees alternating, after one run per tree that fills its bytecode
cache.  Prints the median peak in MiB and the median wall time in ms per
document and command for the working tree, and for REF and the differences
when REF is given.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_outputs import BENCHMARK_NODES, COMMANDS, ROOT, _config, export_src

RUNS = 9
# spawns argv[1:] with stdout and stderr on /dev/null and prints its exit code,
# ru_maxrss in KiB and the wall time from spawn to exit in ns
HELPER = """
import os, sys, time
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
start = time.perf_counter_ns()
pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ, file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter_ns() - start)
"""


def documents():
    """(name, document) for each shipped config, and at each benchmark size."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        doc = _config(path.name)
        yield path.stem, doc
        if path.name in BENCHMARK_NODES:
            nodes = BENCHMARK_NODES[path.name]
            yield f"{path.stem}@{nodes}", {**doc, "grid": {**doc["grid"], "nodes": nodes}}


def peak_and_wall(argv: list[str], src: Path | None = None) -> tuple[float, float]:
    """The ru_maxrss in MiB and the wall time in ms of one run of ``argv``,
    spawned by the helper."""
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-S", "-c", HELPER, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, kib, ns = proc.stdout.split()
    if src is not None and int(code) not in (0, 1):
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return int(kib) / 1024.0, int(ns) / 1e6


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"work": ROOT / "src"}
        if argv:
            trees["ref"] = export_src(argv[0], tmp / "ref")
        floor = statistics.median(peak_and_wall(["/bin/true"])[0] for _ in range(RUNS))
        print(f"{'/bin/true':40s} {floor:8.2f}")
        print(f"{'document':22s} {'command':17s} "
              + " ".join(f"{side + ' MiB':>9s} {side + ' ms':>8s}" for side in trees)
              + ("  diff MiB  diff ms" if argv else ""))
        for name, doc in documents():
            config = tmp / f"{name}.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            for command in COMMANDS:
                cli = [sys.executable, "-m", "mds.cli", command, str(config),
                       "--out", str(tmp / "out" / name / command), "--quiet"]
                for src in trees.values():      # fills each tree's bytecode cache
                    peak_and_wall(cli, src)
                peaks = {side: [] for side in trees}
                for run in range(RUNS):
                    for side, src in list(trees.items())[::-1 if run % 2 else 1]:
                        peaks[side].append(peak_and_wall(cli, src))
                medians = [[statistics.median(column) for column in zip(*values)]
                           for values in peaks.values()]
                line = f"{name:22s} {command:17s} " + " ".join(
                    f"{mib:9.2f} {ms:8.1f}" for mib, ms in medians)
                if argv:
                    (mib, ms), (ref_mib, ref_ms) = medians
                    line += f" {mib - ref_mib:+9.2f} {ms - ref_ms:+8.1f}"
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
