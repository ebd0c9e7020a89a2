"""Code lines per module of src/hkmoduli, and their total.

Usage, from the root of a source checkout:

    python3 tools/code_lines.py

A code line is a physical line that holds at least one token of code, by
`tokenize`: comments, blank lines and docstrings do not count, and a
statement spread over several lines counts every line it spans.  A
docstring is a statement that is one string token and nothing else (the
first statement of a module, class or function, or a bare string
elsewhere).  Prints one "module lines" row per file, in name order, then
"total lines".
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hkmoduli"

# tokens that hold no code of their own
_LAYOUT = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                     tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                     tokenize.ENDMARKER))


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not (len(statement) == 1
                    and statement[0].type == tokenize.STRING):
                for code in statement:
                    lines.update(range(code.start[0], code.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%s %d" % (path.stem, count))
    print("total %d" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
