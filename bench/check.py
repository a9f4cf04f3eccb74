"""Output check applied to every timed CLI run of the benchmark.

A run fails when its exit code is not 0, when ``steer`` does not report
``converged=true`` with ``terminal_error`` at most the config's
``tol_target``, when ``verify-resolvent`` does not report both
``pde_pass=true`` and ``autonomy_pass=true``, or when ``trajectory.csv``
does not hold one ``left`` row per merged grid node and one ``right`` row
per jump node.  ``verify-resolvent`` writes no trajectory, so the row check
applies to ``steer`` only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Expected:
    """What a correct run of one workload must show, read off the parsed Scenario."""

    command: str
    nodes: int          # merged grid size M
    jump_nodes: int
    tol_target: float


def _key_values(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def _trajectory_rows(path: str) -> tuple[int, int]:
    left = right = 0
    with open(path, encoding="utf-8") as fh:
        next(fh, None)
        for line in fh:
            cells = line.split(",", 2)
            kind = cells[1] if len(cells) > 1 else ""
            left += kind == "left"
            right += kind == "right"
    return left, right


def failures(expected: Expected, out_dir: str, exit_code: int) -> list[str]:
    """Reasons the run's outputs are wrong; empty when they pass."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    reasons = []
    try:
        if expected.command == "steer":
            report = _key_values(os.path.join(out_dir, "steering.txt"))
            if report.get("converged") != "true":
                reasons.append(f"converged={report.get('converged')}")
            err = float(report.get("terminal_error", "nan"))
            if not err <= expected.tol_target:
                reasons.append(f"terminal_error {err!r} above tol_target "
                               f"{expected.tol_target!r}")
            left, right = _trajectory_rows(os.path.join(out_dir, "trajectory.csv"))
            if (left, right) != (expected.nodes, expected.jump_nodes):
                reasons.append(f"trajectory.csv has {left} left and {right} right "
                               f"rows, expected {expected.nodes} and "
                               f"{expected.jump_nodes}")
        elif expected.command == "verify-resolvent":
            report = _key_values(os.path.join(out_dir, "resolvent_report.txt"))
            for key in ("pde_pass", "autonomy_pass"):
                if report.get(key) != "true":
                    reasons.append(f"{key}={report.get(key)}")
        else:
            reasons.append(f"no output check for command {expected.command!r}")
    except (OSError, ValueError) as exc:
        reasons.append(f"unreadable output: {exc}")
    return reasons
