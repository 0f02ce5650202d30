"""Count the lines of code in each ``src/`` module, at a git revision and in
the working tree.

    python tools/code_lines.py [REV]

REV defaults to HEAD.  A line counts if it holds a token of code: blank
lines, comment lines and the lines of docstrings (a string literal that
opens a module, class or function body) do not count.  So a change that
only rewords or removes comments and docstrings moves no count.  Prints one
row per module present on either side (REV, working tree, difference) and
a total row.  Standard library only; run from anywhere inside the checkout.
An unknown REV, or a directory outside a checkout, prints one ``error:``
line and exits with status 2.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

# tokens that are layout, not code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``'s module, classes
    and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    ).stdout


def counts_at(rev: str, root: Path) -> dict[str, int]:
    names = git("ls-tree", "-r", "--name-only", rev, "--", "src", cwd=root).split()
    return {
        name: code_lines(git("show", f"{rev}:{name}", cwd=root))
        for name in names
        if name.endswith(".py")
    }


def counts_in_tree(root: Path) -> dict[str, int]:
    return {
        path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((root / "src").rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    try:
        root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).strip())
        before, after = counts_at(rev, root), counts_in_tree(root)
    except subprocess.CalledProcessError as exc:  # git's own message, on one line
        print(f"error: {' '.join(exc.cmd)}: {' '.join(exc.stderr.split())}", file=sys.stderr)
        return 2
    width = max(map(len, [*before, *after, "total"]))
    print(f"{'module':<{width}}  {rev[:12]:>12}  {'tree':>6}  {'change':>6}")
    for name in sorted(set(before) | set(after)):
        a, b = before.get(name, 0), after.get(name, 0)
        print(f"{name:<{width}}  {a:>12}  {b:>6}  {b - a:>+6}")
    a, b = sum(before.values()), sum(after.values())
    print(f"{'total':<{width}}  {a:>12}  {b:>6}  {b - a:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
