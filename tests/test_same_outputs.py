"""``tools/same_outputs.py``'s comparison of two runs, on runs written out by hand."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import same_outputs  # noqa: E402

RUN = (0, b"steered\n", b"", {"report.txt": b"ok\n"})
TRACEBACK = b"Traceback (most recent call last):\n  ...\nValueError: boom\n"


def test_identical_quiet_runs_differ_in_nothing():
    assert list(same_outputs.differences(RUN, RUN)) == []


def test_exit_code_stdout_and_files_are_compared():
    work = (1, b"failed\n", b"", {"other.txt": b"ok\n"})
    assert list(same_outputs.differences(RUN, work)) == [
        "exit code 0 -> 1", "stdout differs", "other.txt only under the working tree",
        "report.txt only under REF"]
    changed = (0, b"steered\n", b"", {"report.txt": b"ko\n"})
    assert list(same_outputs.differences(RUN, changed)) == ["report.txt differs"]


def test_stderr_is_compared_and_reported_even_when_both_trees_agree():
    crashed = (1, b"", TRACEBACK, {})
    assert list(same_outputs.differences(crashed, crashed)) == [
        "stderr under REF: ValueError: boom",
        "stderr under the working tree: ValueError: boom"]
    noisy = (0, b"steered\n", b"a warning\n", {"report.txt": b"ok\n"})
    assert list(same_outputs.differences(RUN, noisy)) == [
        "stderr differs", "stderr under the working tree: a warning"]
