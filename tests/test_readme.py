"""The README's examples, run as written: the sh block under "## Command
line" through ``cli.main``, and the first python block in a fresh child.
A trailing ``# text`` on a line is the exact output that line promises."""

import pathlib
import shlex

from hfsurgery import cli

import scale

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def fenced(lang: str, below: str = "") -> str:
    """The first ```lang block of the README after the line ``below``."""
    start = README.index(f"```{lang}\n", README.index(below)) + len(lang) + 4
    return README[start : README.index("```", start)]


def test_the_command_block_runs_and_prints_what_it_promises(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in fenced("sh", "## Command line\n").splitlines() if line.startswith("hfsurgery ")]
    assert lines
    for line in lines:
        command, _, promise = line.partition("#")
        args = shlex.split(command)[1:]
        args, target = (args[:-2], args[-1]) if args[-2:-1] == [">"] else (args, None)
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out = capsys.readouterr().out
        assert code == 0, line
        assert not promise or out == promise.strip() + "\n", line
        if target:
            pathlib.Path(target).write_text(out)


def test_the_quickstart_prints_what_it_promises():
    code = fenced("python")
    promise = next(line for line in code.splitlines() if line.startswith("print(")).partition("# ")[2]
    exit_code, out, _ = scale.run("-c", code)
    assert exit_code == 0 and out.splitlines()[0] == promise
