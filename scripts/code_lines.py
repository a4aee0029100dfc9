"""Print the number of code lines of each module in ``src``, then their
total on the last line.

A code line is a source line that holds at least one token other than a
comment or a docstring; blank lines do not count.  A docstring here is a
string literal that makes up a whole statement, the form a module, class
or function docstring takes.  Run from anywhere:

    python scripts/code_lines.py
"""

import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# Tokens that hold no code of their own: layout and comments.
SKIP = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT}


def code_lines(text: str) -> int:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in SKIP:
            statement.append(tok)
    return len(lines)


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path.read_text())
        print(f"{count:5d}  {path.relative_to(SRC)}")
        total += count
    print(total)
