"""``tools/code_lines.py`` counts lines of code only."""

import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring,
        over two lines."""
        text = """a string that is
        not a docstring"""
        return (x,
                text)
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_docstring_or_comment_edits_move_nothing():
    edited = SOURCE.replace("A class docstring.", "Longer.\n\n    Much longer.").replace(
        "# a comment line", "# one\n# two\n"
    )
    assert code_lines.code_lines(edited) == code_lines.code_lines(SOURCE)


def test_git_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    # an unknown revision, then a directory outside any checkout
    assert code_lines.main(["no-such-revision"]) == 2
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", os.fspath(tmp_path.parent))
    assert code_lines.main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: git ") for line in lines), lines
