"""Count the lines of measurekit's source, per module.

    python3 tools/loc.py                 # src/measurekit of this checkout
    python3 tools/loc.py path/to/pkg     # any directory of .py files

A code line holds a token outside docstrings and comments; every other
line (docstrings, comments, blank lines) counts as doc.  A docstring is a
logical line that is one string literal alone (or several, implicitly
joined).  Prints total, code and doc lines per module and their sums.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}


def count(source: str) -> tuple:
    """(total, code) lines of one module's source."""
    code = set()
    line = []  # the significant tokens of the logical line being read
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            line.append(tok)
        elif tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if line and not all(t.type == tokenize.STRING for t in line):
                for t in line:
                    code.update(range(t.start[0], t.end[0] + 1))
            line = []
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "measurekit"
    rows = [(path.name, *count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':16s} {'total':>6s} {'code':>6s} {'doc':>6s}")
    for name, total, code in rows:
        print(f"{name:16s} {total:6d} {code:6d} {total - code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
