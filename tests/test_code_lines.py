"""tools/code_lines: the code-line count on a small fixture source, and its
rows over the package."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# the code lines are marked "# code"; the module docstring, the function
# docstring, the comment lines and the blank lines do not count
FIXTURE = '''"""A module docstring
over two lines."""

import os  # code

# a comment line


def f(x):  # code
    """A docstring."""
    y = (x +  # code
         1)  # code
    "a string statement is a docstring too"
    return ("a string value "  # code
            "is code")  # code
'''


def test_counts_the_lines_that_hold_code():
    assert code_lines.code_lines(FIXTURE) == FIXTURE.count("# code")


def test_counts_nothing_in_an_empty_or_docstring_only_source():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines("x = 1") == 1  # no final newline


def test_main_prints_one_row_per_module_and_their_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = [name for name, _ in rows[:-1]]
    assert names == sorted(path.stem
                           for path in code_lines.PACKAGE.glob("*.py"))
    assert "moduli" in names and "cli" in names
    assert rows[-1] == ["total", str(sum(int(n) for _, n in rows[:-1]))]
