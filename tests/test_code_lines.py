"""The code-line count that ``scripts/code_lines.py`` prints and the
ROADMAP quotes: a line counts when it holds a token of a statement other
than a lone string literal, so docstrings, comments and blank lines do
not count."""

import importlib.util
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"


def _code_lines():
    """The script's ``code_lines``, loaded from its file without running
    its main block."""
    spec = importlib.util.spec_from_file_location("code_lines_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


code_lines = _code_lines()


def test_docstrings_comments_and_blank_lines_do_not_count():
    text = '''"""A module docstring,
over two lines."""

# A comment.
import os  # a comment after code


class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        # A comment in a body.
        return os.sep
'''
    # import, class, def and return.
    assert code_lines(text) == 4


def test_a_multi_line_statement_counts_every_line_it_spans():
    # The blank line inside the brackets holds no token, so it does not
    # count; the three lines of the string do.
    assert code_lines("x = (\n    1,\n\n    2,\n)\n") == 4
    assert code_lines('y = """a\nb\nc"""\n') == 3


def test_a_lone_string_is_read_as_a_docstring_wherever_it_stands():
    # A string literal that makes up a whole statement does not count,
    # even in the middle of a body; a string inside a statement does.
    assert code_lines('def f():\n    x = 1\n    """Not first."""\n    return x\n') == 3
    assert code_lines('def f():\n    return """a\n    b"""\n') == 3


def test_the_script_prints_each_module_and_then_the_total():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True).stdout
    *modules, total = out.splitlines()
    counts = {line.split()[1]: int(line.split()[0]) for line in modules}
    assert {"cfk.py", "f2.py", "surgery.py"} <= {pathlib.PurePath(name).name for name in counts}
    assert int(total) == sum(counts.values()) > 0
