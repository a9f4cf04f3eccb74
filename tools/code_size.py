"""Code lines and token counts of each ``src/mds`` module, in the working tree and at
a git revision.

    python3 tools/code_size.py [REF]

Code lines are the lines that hold a token, minus comment-only lines and
docstrings (the first statement of a module, class or function when it is a
string, found by ``ast``); a string over several lines counts every line.
Tokens are what ``tokenize`` yields, less its COMMENT and NL tokens.
CPython's parser grows its token array by doubling, so compiling a module
just past a power of two peaks higher (about 58 KB more past 1024 tokens);
``headroom`` is how many tokens a module can gain before it passes the next
power of two.  Prints one row per module and a total; with REF, REF's
counts and the differences beside them.
"""

from __future__ import annotations

import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

from same_outputs import ROOT, export_src

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCSTRING_HOLDERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _tokens(source: str) -> list[tokenize.TokenInfo]:
    return list(tokenize.generate_tokens(io.StringIO(source).readline))


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside every docstring."""
    lines = set()
    for tok in _tokens(source):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCSTRING_HOLDERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def token_count(source: str) -> int:
    """The tokens of ``source``, less its COMMENT and NL tokens."""
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in _tokens(source))


def headroom(tokens: int) -> tuple[int, int]:
    """The smallest power of two not below ``tokens``, and the distance to it."""
    power = 1 << max(tokens - 1, 0).bit_length()
    return power, power - tokens


def sizes(directory: Path) -> dict[str, tuple[int, int]]:
    """(code lines, tokens) of each module in ``directory``, by file name."""
    out = {}
    for path in sorted(directory.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        out[path.name] = code_lines(source), token_count(source)
    return out


def main(argv: list[str]) -> int:
    work, ref = sizes(ROOT / "src" / "mds"), {}
    if argv:
        with tempfile.TemporaryDirectory() as tmp:
            ref = sizes(export_src(argv[0], Path(tmp) / "ref") / "mds")
    header = ["lines", "tokens", "2^k", "headroom"]
    if argv:
        header += [f"lines at {argv[0][:7]}", f"tokens at {argv[0][:7]}"]
    print(f"{'module':<16}" + "".join(f"{cell:>18}" for cell in header))
    names = sorted(work.keys() | ref.keys())
    for name in names + ["total"]:
        if name == "total":
            now = [sum(work[n][k] for n in work) for k in (0, 1)]
            was = [sum(ref[n][k] for n in ref) for k in (0, 1)]
            cells = [*now, "", ""]
        else:
            now, was = work.get(name, (0, 0)), ref.get(name, (0, 0))
            cells = [*now, *headroom(now[1])]
        if argv:
            cells += [f"{b} ({a - b:+d})" for a, b in zip(now, was)]
        print(f"{name:<16}" + "".join(f"{cell:>18}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
