"""Self-test of the benchmark's output check: broken outputs count as failed.

    python3 bench/selftest.py

Writes a correct steer output and a correct verify-resolvent output, then a
deliberately broken variant of each, into ``.bench_out/selftest``.  It exits
0 when the correct outputs pass and every broken one is reported as failed.
"""

from __future__ import annotations

import os
import shutil
import sys

import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEER = check.Expected("steer", nodes=4, jump_nodes=1, tol_target=1e-4)
VERIFY = check.Expected("verify-resolvent", nodes=4, jump_nodes=0, tol_target=1e-4)

GOOD_STEERING = "converged=true\nterminal_error=2.5e-17\nouter_iterations=1\n"
GOOD_TRAJECTORY = ("t,node_kind,coeff_1\n0,left,1\n0.25,left,0.9\n0.5,left,0.8\n"
                   "0.5,right,0.85\n1,left,0.7\n")
GOOD_REPORT = "pde_pass=true\nautonomy_max_deviation=1e-14\nautonomy_pass=true\n"

# (name, expected, exit code, files written) -- each broken case changes one thing
CASES = [
    ("steer ok", STEER, 0, {"steering.txt": GOOD_STEERING,
                            "trajectory.csv": GOOD_TRAJECTORY}),
    ("steer exit code", STEER, 2, {"steering.txt": GOOD_STEERING,
                                   "trajectory.csv": GOOD_TRAJECTORY}),
    ("steer not converged", STEER, 0,
     {"steering.txt": GOOD_STEERING.replace("converged=true", "converged=false"),
      "trajectory.csv": GOOD_TRAJECTORY}),
    ("steer terminal error above tol", STEER, 0,
     {"steering.txt": GOOD_STEERING.replace("2.5e-17", "0.001"),
      "trajectory.csv": GOOD_TRAJECTORY}),
    ("steer terminal error nan", STEER, 0,
     {"steering.txt": GOOD_STEERING.replace("2.5e-17", "nan"),
      "trajectory.csv": GOOD_TRAJECTORY}),
    ("steer missing trajectory row", STEER, 0,
     {"steering.txt": GOOD_STEERING,
      "trajectory.csv": GOOD_TRAJECTORY.replace("0.25,left,0.9\n", "")}),
    ("steer missing jump row", STEER, 0,
     {"steering.txt": GOOD_STEERING,
      "trajectory.csv": GOOD_TRAJECTORY.replace("0.5,right,0.85\n", "")}),
    ("steer missing report", STEER, 0, {"trajectory.csv": GOOD_TRAJECTORY}),
    ("verify ok", VERIFY, 0, {"resolvent_report.txt": GOOD_REPORT}),
    ("verify pde fail", VERIFY, 0,
     {"resolvent_report.txt": GOOD_REPORT.replace("pde_pass=true", "pde_pass=false")}),
    ("verify autonomy missing", VERIFY, 0,
     {"resolvent_report.txt": "pde_pass=true\n"}),
    ("verify exit code", VERIFY, 1, {"resolvent_report.txt": GOOD_REPORT}),
]


def main() -> int:
    base = os.path.join(ROOT, ".bench_out", "selftest")
    shutil.rmtree(base, ignore_errors=True)
    wrong = 0
    failed = 0
    for i, (name, expected, code, files) in enumerate(CASES):
        out_dir = os.path.join(base, str(i))
        os.makedirs(out_dir)
        for fname, text in files.items():
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        reasons = check.failures(expected, out_dir, code)
        failed += bool(reasons)
        should_fail = not name.endswith(" ok")
        verdict = "counted as failed" if reasons else "passed"
        ok = bool(reasons) == should_fail
        wrong += not ok
        print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict} {'; '.join(reasons)}")
    print(f"failed_ratio {failed}/{len(CASES)} = {failed / len(CASES):.3f}; "
          f"{wrong} case(s) judged wrongly")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
