"""Check that the working tree's mds writes the same outputs as a git revision.

    python3 tools/same_outputs.py REF

Exports REF's ``src/`` with ``git archive`` and runs each CLI command in a
fresh interpreter under both trees: on every config in ``configs/``, on
the benchmark's sizes (demo.json at 1025 nodes, resolvent_check.json at
2048), and on documents off the shipped path (``OFF_PATH``): runs that exit
2 through the overflow guards, in a march seeded on its first row only and
in a psi sweep, seeded on every row, or 3 on a zero gain; a zero initial
state, whose marches have no seed; a zero cosine; the explicit-measure
family with jumps and without; a jump at each kind of place the grid merge
puts one; the lebesgue family; a non-uniform grid whose
``verify-resolvent`` writes no autonomy lines; the smallest accepted grid;
a single mode; 80 modes; the two grids either side of the 64-anchor
sample; a linear steer whose seed already meets its target, so that it
makes no pass and writes a zero control; a per-node table nonlinearity
with a jump; and the edge cases of the verify-resolvent windows.  Each
document also runs ``simulate --physical``, whose trajectory.csv carries
the per-row physical synthesis; those runs add about a quarter to the
time (57 s against 45 s on a 2-core host).
Exit codes, stdout and every output file are compared byte for byte.
Prints one line per difference and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("simulate", "steer", "check-conditions", "verify-resolvent")
# every command, then simulate with the per-row physical synthesis of trajectory.csv
RUNS = tuple((command,) for command in COMMANDS) + (("simulate", "--physical"),)
BENCHMARK_NODES = {"demo.json": 1025, "resolvent_check.json": 2048}


def _config(name: str, **sections) -> dict:
    doc = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
    return {**doc, **sections}


def _tiny(**sections) -> dict:
    """Two modes at 65 nodes, autonomous, a measure without jumps, sections replaced."""
    doc = {"basis": {"N": 2}, "grid": {"nodes": 65},
           "linear": {"tau": {"kind": "const", "c0": 1.0}},
           "measure": {"family": "constant", "end": 1.0}, "states": {"zeta0": [1.0, 0.5]}}
    return {**doc, **sections}


OFF_PATH = {
    # r_16(1, 1/2) = e^192: the final row's march meets the guard
    "tau_3-6t": _tiny(basis={"N": 16}, states={"zeta0": [1.0] * 16},
                      linear={"tau": {"kind": "affine", "c0": 3.0, "c1": -6.0}}),
    # the same with a forcing on every row: simulate meets the guard in its
    # first psi sweep, naming mode 15, the other commands as above
    "tau_3-6t_forced": _tiny(basis={"N": 16}, states={"zeta0": [1.0] * 16},
                             linear={"tau": {"kind": "affine", "c0": 3.0, "c1": -6.0}},
                             measure={"family": "lebesgue", "end": 1.0},
                             nonlinearity={"kind": "cosine", "M0": 0.05}),
    # r_16(1/2, 0) = e^384 while r(1, s) <= 1: only L1's pass meets the guard
    "tau_-6+12t": _tiny(basis={"N": 16}, states={"zeta0": [1.0] * 16},
                        linear={"tau": {"kind": "affine", "c0": -6.0, "c1": 12.0}}),
    "theta_0": _tiny(control={"theta": 0.0}),
    # zeta0 = 0: simulate's marches, and steer's Picard seed, have no nonzero
    # seed, the one case where a march writes zeros and steps nothing
    "zeta0_0": _tiny(states={"zeta0": [0.0, 0.0], "zeta1": [0.25, 0.1]}),
    "cosine_M0_0": _config("demo.json", nonlinearity={"kind": "cosine", "M0": 0.0}),
    "explicit": {**_tiny(measure={"end": 1.0, "jumps": [[0.25, 0.1], [0.5, 0.2]],
                                  "density": {"kind": "sine", "c0": 1.0, "c1": 0.5,
                                              "freq": 2.0}},
                         nonlinearity={"kind": "cosine", "M0": 0.05},
                         control={"theta": [1.0, 0.5]}),
                 "nonlocal": {"kind": "log_kernel", "f": {"kind": "const", "c0": 0.01},
                              "f_space": {"kind": "affine", "c0": 1.0, "c1": 0.1}}},
    # the explicit family without jumps, whose grid is the base grid unmerged
    "explicit_no_jumps": _tiny(measure={"end": 1.5, "jumps": [],
                                        "density": {"kind": "affine", "c0": 0.5, "c1": 1.0}},
                               nonlinearity={"kind": "cosine", "M0": 0.05}),
    "lebesgue": _tiny(measure={"family": "lebesgue", "end": 1.0},
                      nonlinearity={"kind": "table", "values": [0.1, 0.0]}),
    "resolvent_check_zeno": _config("resolvent_check.json",
                                    measure={"family": "zeno", "K": 20}),
    # the degenerate block layouts: 2 nodes make one block of two rows (and
    # verify-resolvent exits 1), and N = 1 gives every march a single mode
    "nodes_2": _tiny(grid={"nodes": 2}, measure={"family": "lebesgue", "end": 1.0},
                     nonlinearity={"kind": "cosine", "M0": 0.05}),
    "N_1": _tiny(basis={"N": 1}, states={"zeta0": [1.0], "zeta1": [0.25]},
                 linear={"tau": {"kind": "const", "c0": 1.0},
                         "kernel": {"kind": "exp_diff", "c0": 0.5, "rate": 1.0}},
                 measure={"family": "lebesgue", "end": 1.0},
                 nonlinearity={"kind": "cosine", "M0": 0.05}),
    # 80 modes: one-column marches of more than 64 modes
    "N_80": _tiny(basis={"N": 80}, states={"zeta0": [1.0] * 80},
                  measure={"family": "lebesgue", "end": 1.0},
                  nonlinearity={"kind": "cosine", "M0": 0.05}),
    # the last grid whose anchors are every row up to M - 3 and the first whose
    # 64 anchors are spread by linspace, where the anchor gap 64/63 is smallest
    "nodes_66": _config("resolvent_check.json", grid={"nodes": 66}),
    "nodes_67": _config("resolvent_check.json", grid={"nodes": 67}),
    # verify-resolvent's windows, ceil(K / 12) of whole blocks (12 is
    # scenario_io._SOLVER_ARRAYS): at 157 nodes 13 blocks of 13 rows go in 5
    # windows of 3, so the short last block, one row, is alone in the fifth;
    # at 65 nodes 63 anchors ask for 6 windows of the 8 blocks and get 4 of
    # 2, the fewest blocks a window gets (the rule never makes more windows
    # than blocks); at 4097 nodes 64 blocks go in 6 windows of 11, the last
    # holding 9
    "nodes_157": _config("resolvent_check.json", grid={"nodes": 157}),
    "nodes_65": _config("resolvent_check.json", grid={"nodes": 65}),
    "nodes_4097": _config("resolvent_check.json", grid={"nodes": 4097}),
    # every placement the merge makes: a jump beside each end, whose nearest
    # base node is the end and stays, a jump on a base node, and one 0.4 of a
    # step from one; 65 - 2 + 4 = 67 nodes, jump rows 1, 17, 33 and 65
    "explicit_placement": _tiny(measure={"end": 1.0,
                                         "jumps": [[1 / 256, 0.05], [0.25, 0.1],
                                                   [0.5 + 0.4 / 64, 0.2], [1 - 1 / 256, 0.05]]},
                                nonlinearity={"kind": "cosine", "M0": 0.05}),
    # zeta1 is the uncontrolled terminal state, so the linear steer makes no
    # pass and writes a zero control where the final row, down to -0.697, is
    # negative: +0, not the -0 of a zero coefficient times r_n(a, s) < 0
    "zero_pass": _tiny(linear={"tau": {"kind": "const", "c0": 1.0},
                               "kernel": {"kind": "exp_diff", "c0": 40.0, "rate": 0.5}},
                       states={"zeta0": [1.0, 0.5],
                               "zeta1": [0.47136772795580667, 0.05279658776710976]}),
    # one table row per node and a jump on row 1, which simulate's jump check reads
    "table_jump": _tiny(grid={"nodes": 5}, measure={"end": 1.0, "jumps": [[0.3, 0.1]]},
                        nonlinearity={"kind": "table",
                                      "values": [[0.1, 0.0], [0.2, 0.1], [0.0, 0.3],
                                                 [0.1, 0.1], [0.4, 0.0]]}),
}


def documents():
    """(name, document) for each shipped config, each benchmark size and
    each document off the shipped path."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        doc = _config(path.name)
        yield path.stem, doc
        if path.name in BENCHMARK_NODES:
            nodes = BENCHMARK_NODES[path.name]
            yield f"{path.stem}@{nodes}", {**doc, "grid": {**doc["grid"], "nodes": nodes}}
    yield from OFF_PATH.items()


def export_src(ref: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run(src: Path, args: tuple, config: Path, out: Path):
    """Exit code, stdout and output files of one command in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "mds.cli", args[0], str(config),
                           "--out", str(out), *args[1:]],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          cwd=config.parent, capture_output=True)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, files


def differences(ref, work):
    (ref_code, ref_out, ref_files), (code, out, files) = ref, work
    if ref_code != code:
        yield f"exit code {ref_code} -> {code}"
    if ref_out != out:
        yield "stdout differs"
    for name in sorted(set(ref_files) | set(files)):
        if name not in files:
            yield f"{name} only under REF"
        elif name not in ref_files:
            yield f"{name} only under the working tree"
        elif ref_files[name] != files[name]:
            yield f"{name} differs"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    found = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"ref": export_src(argv[0], tmp / "ref"), "work": ROOT / "src"}
        for name, doc in documents():
            config = tmp / f"{name}.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            for args in RUNS:
                ref, work = (run(src, args, config, tmp / "out" / side / name / "".join(args))
                             for side, src in trees.items())
                for line in differences(ref, work):
                    print(f"{name} {' '.join(args)}: {line}")
                    found += 1
    print(f"{found} difference(s) against {argv[0]}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
