"""The per-layer tracer in ``bench/`` still finds every layer it wraps.

``bench/tracer.py`` patches each layer's function through the attribute of
the module that calls it, so renaming or dropping one of those attributes
makes every traced run fail.  This runs the tracer as the benchmark does, in
a child process, on a small ``steer`` and on the shipped ``verify-resolvent``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import CONFIG_DIR, load_config

ROOT = Path(__file__).resolve().parents[1]


def _trace(tmp_path: Path, *cli_args: str) -> dict:
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "run", "0", "--",
         *cli_args, "--out", str(tmp_path / "out"), "--quiet"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["exit_code"] == 0
    return record


def test_tracer_wraps_every_steer_layer(tmp_path):
    doc = load_config("demo.json")
    doc["grid"]["nodes"] = 65
    cfg = tmp_path / "demo_65.json"
    cfg.write_text(json.dumps(doc))
    record = _trace(tmp_path, "steer", str(cfg))
    names = {span["name"] for span in record["spans"]}
    assert {"cli.import", "cli.main", "scenario_io.parse_scenario",
            "measure.build_time_grid", "control.steer", "solver.picard_solve",
            "solver.apply_psi", "control.synthesize_control",
            "scenario_io.write_trajectory_csv", "scenario_io.write_control_csv",
            "bench.extras", "bench.half_build", "bench.peak_build"} <= names
    assert record["counts"]["control.outer_iterations"] >= 1
    # steer builds neither the table nor a quadrature matrix
    assert not names & {"spectral.build_resolvent_table", "quad.simpson_prefix_matrix",
                        "quad.trapezoid_prefix_matrix"}


def test_tracer_wraps_every_verify_layer(tmp_path):
    record = _trace(tmp_path, "verify-resolvent", str(CONFIG_DIR / "resolvent_check.json"))
    names = {span["name"] for span in record["spans"]}
    assert {"cli.import", "cli.main", "scenario_io.parse_scenario",
            "measure.build_time_grid", "spectral.verify_resolvent_pde",
            "spectral.check_autonomous_reduction", "bench.extras",
            "bench.half_build", "bench.peak_build"} <= names
    # verify-resolvent builds neither the table nor a quadrature matrix
    assert not names & {"spectral.build_resolvent_table", "quad.simpson_prefix_matrix",
                        "quad.trapezoid_prefix_matrix"}
