"""Check that the working tree's mds writes the same outputs as a git revision.

    python3 tools/same_outputs.py REF

Exports REF's ``src/`` with ``git archive`` and runs each CLI command in a
fresh interpreter under both trees: on every config in ``configs/``, and on
the benchmark's sizes (demo.json at 1025 nodes, resolvent_check.json at
2048).  Exit codes, stdout and every output file are compared byte for
byte.  Prints one line per difference and exits 1 if there is any, else 0.
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
BENCHMARK_NODES = {"demo.json": 1025, "resolvent_check.json": 2048}


def documents():
    """(name, document) for each shipped config and each benchmark size."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        yield path.stem, doc
        if path.name in BENCHMARK_NODES:
            nodes = BENCHMARK_NODES[path.name]
            yield f"{path.stem}@{nodes}", {**doc, "grid": {**doc["grid"], "nodes": nodes}}


def export_src(ref: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run(src: Path, command: str, config: Path, out: Path):
    """Exit code, stdout and output files of one command in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "mds.cli", command, str(config),
                           "--out", str(out)],
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
            for command in COMMANDS:
                ref, work = (run(src, command, config, tmp / "out" / side / name / command)
                             for side, src in trees.items())
                for line in differences(ref, work):
                    print(f"{name} {command}: {line}")
                    found += 1
    print(f"{found} difference(s) against {argv[0]}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
