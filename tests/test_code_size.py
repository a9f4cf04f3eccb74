"""``tools/code_size.py`` on a small fixture module whose counts are written out by hand."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import code_size  # noqa: E402

FIXTURE = '''"""A module docstring
over two lines."""
import os  # a trailing comment

# a comment-only line
def f(x):
    """A function docstring."""
    s = """a string
    over two lines"""
    return (x +
            1)
'''


def test_code_size_counts_a_fixture_module(tmp_path):
    # code lines: import, def, the two lines of s and the two of the return;
    # tokens: 2 + 3 + 7 + 3 + 4 + 4 + 3 on the seven lines with code or a
    # docstring (no COMMENT or NL token), then DEDENT and ENDMARKER
    assert code_size.code_lines(FIXTURE) == 6
    assert code_size.token_count(FIXTURE) == 28
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module", encoding="utf-8")
    assert code_size.sizes(tmp_path) == {"fixture.py": (6, 28)}
    assert code_size.headroom(28) == (32, 4)
    assert [code_size.headroom(n) for n in (1023, 1024, 1025)] == [(1024, 1), (1024, 0),
                                                                  (2048, 1023)]


def test_crossings_names_each_module_past_its_power_of_two():
    ref = {"a.py": (10, 1000), "b.py": (10, 1024), "c.py": (10, 1025), "gone.py": (1, 9)}
    work = {"a.py": (12, 1025), "b.py": (9, 1024), "c.py": (30, 2048), "new.py": (1, 4096)}
    assert code_size.crossings(work, ref) == [("a.py", 1024)]
    assert code_size.crossings({**work, "c.py": (30, 2049)}, ref) == [("a.py", 1024),
                                                                    ("c.py", 2048)]
    assert code_size.crossings(ref, ref) == []
