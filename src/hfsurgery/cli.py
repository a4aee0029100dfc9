"""Command-line front end.

Exit codes: 0 success, 1 check failure (rank mismatch, invalid complex,
or a flip missing where an h-map is read) or a stdout closed by its
reader, 2 usage error: argparse's
own, or any ValueError, such as a bad slope, one whose cone would sweep
too many HatB blocks, a scan grid whose cones would in all or that holds
too many slopes, a random spec that may make too many generators, a
complex too wide to rank, an input that is neither a readable complex file
nor a builtin, or an empty scan grid.  Output is line oriented for shell
use; pass --format json for machine-readable output.

Each call builds its parser afresh, and builds only what its argv needs.
When argv's first word names a command, `_build_parser` returns that
command's own parser, the one the full parser would add as its subparser,
and `_parse` reads the words after the name with it; a word it leaves over
sends the whole argv to the full parser, which exits 2 naming it under its
own usage line.  Every other argv (no arguments, -h or --help, an unknown
command, a leading option) is read by the full parser, which has a
subparser for every command.  `main` loads the input of every command
that reads a complex, the commands whose parser has an ``input``
positional, and hands the complex to the command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cfk import CfkComplex, FlipRequiredError
from .f2 import InvalidComplexError
from .knots import BUILTIN_NAMES, RandomSpec, UnknownBuiltinError, builtin, random_complex
from .obstructions import complement_check, cosmetic_pair_check, hypothesis_check
from .surgery import (
    RankReport,
    Slope,
    compute_rank_report,
    cone_rank_chain,
    coprime_slopes,
    nu_surrogate,
    rank_formula,
    require_grid_sweep,
)

PROG = "hfsurgery"


def _load_complex(source: str) -> CfkComplex:
    """Resolve an input argument: a JSON file path or a builtin name."""
    if os.path.exists(source):
        try:
            with open(source) as handle:
                return CfkComplex.from_json(handle.read())
        except (OSError, ValueError, RecursionError) as exc:
            # RecursionError: json gives up on arrays or objects nested too deep
            raise ValueError(f"cannot load complex file {source!r}: {exc}") from exc
    try:
        return builtin(source)
    except UnknownBuiltinError:
        raise ValueError(
            f"{source!r} is neither a file nor a builtin "
            f"(builtins: {', '.join(BUILTIN_NAMES)})"
        ) from None


def _emit(args, payload, plain) -> None:
    """Print the JSON payload under --format json, else the plain text."""
    print(json.dumps(payload, indent=2) if args.format == "json" else plain)


def _cmd_validate(args, c) -> int:
    report = c.validate()
    payload = {"name": c.name, "valid": report.ok,
               "issues": [{"code": i.code, "message": i.message} for i in report.issues]}
    lines = [f"name={c.name}", f"valid={'yes' if report.ok else 'no'}"]
    lines += [f"issue\t{i.code}\t{i.message}" for i in report.issues]
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_info(args, c) -> int:
    profile = c.hfk_profile()
    genus = c.genus()
    b = c.b_rank()
    nu = nu_surrogate(c) if b == 1 else None
    hyp = hypothesis_check(c).overall if c.has_flip else None
    payload = {"name": c.name, "genus": genus, "b": b,
               "hfk": {str(s): n for s, n in profile.items()}, "nu": nu, "hypothesis": hyp}
    lines = [f"name={c.name}", f"genus={genus}", f"b={b}",
             "hfk=" + ",".join(f"{s}:{n}" for s, n in profile.items()),
             f"nu={nu if nu is not None else '-'}",
             "hypothesis=" + ("no-flip" if hyp is None else "pass")]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_rank(args, c) -> int:
    slope = Slope(args.p, args.q)
    if args.method == "both":
        report = compute_rank_report(c, slope)
        payload, plain, status = report.to_json_dict(), report, 0 if report.consistent else 1
        table = (RankReport.TSV_HEADER, report.tsv_row())
    else:
        compute = cone_rank_chain if args.method == "oracle" else rank_formula
        value = compute(c, slope)
        payload = {"name": c.name, "p": slope.p, "q": slope.q, args.method: value}
        plain, status = f"{args.method}={value}", 0
        table = ("\t".join(payload), "\t".join(map(str, payload.values())))
    _emit(args, payload, "\n".join(table) if args.format == "tsv" else plain)
    return status


def _cmd_scan(args, c) -> int:
    if args.pmax < 1 or args.qmax < 1:
        raise ValueError(f"--pmax and --qmax must be at least 1, got {args.pmax} and {args.qmax}")
    require_grid_sweep(c, args.pmax, args.qmax)
    reports = [compute_rank_report(c, slope) for slope in coprime_slopes(args.pmax, args.qmax)]
    table = [RankReport.TSV_HEADER, *(r.tsv_row() for r in reports)]
    _emit(args, [r.to_json_dict() for r in reports], "\n".join(table))
    bad = [r for r in reports if not r.consistent] if args.check else []
    for r in bad:
        print(f"check failed at {r.slope}: {r}", file=sys.stderr)
    return 1 if bad else 0


def _cmd_cosmetic(args, c) -> int:
    verdict = cosmetic_pair_check(c, Slope.parse(args.r), Slope.parse(args.s))
    _emit(args, verdict.to_json_dict(), verdict)
    return 0


def _cmd_complement(args, c) -> int:
    verdict = complement_check(c, args.q)
    _emit(args, verdict.to_json_dict(), verdict)
    return 0


def _cmd_gen(args) -> int:
    if args.builtin is not None:
        c = builtin(args.builtin)
    else:
        c = random_complex(RandomSpec(**{name: getattr(args, name) for name in RandomSpec.__match_args__}))
    if args.name is not None:
        c = c.renamed(args.name)
    sys.stdout.write(c.to_json())
    return 0


def _fill(parser, func, formats, one_of, arguments) -> argparse.ArgumentParser:
    # A command's parser: the input of one that reads a complex, or else the
    # required choice of one_of's flags; then its own arguments, each keyed
    # by its dest and flagged -x for one letter or --name for more; then
    # --format, unless it has no formats.
    if one_of is None:
        parser.add_argument("input")
    else:
        group = parser.add_mutually_exclusive_group(required=True)
        for dest, options in one_of.items():
            group.add_argument("--" + dest, **options)
    for dest, options in arguments.items():
        parser.add_argument(("-" if len(dest) == 1 else "--") + dest.replace("_", "-"), **options)
    if formats:
        parser.add_argument("--format", choices=formats, default="plain")
    parser.set_defaults(func=func)
    return parser


def _build_parser(argv=()) -> argparse.ArgumentParser:
    commands = {}

    def command(name, help, func, /, formats=("plain", "json"), one_of=None, **arguments):
        commands[name] = help, func, formats, one_of, arguments

    number, slope = dict(type=int, required=True), dict(required=True, metavar="P/Q")
    command("validate", "check the complex axioms", _cmd_validate)
    command("info", "genus, b, hfk profile, nu, hypothesis verdict", _cmd_info)
    command("rank", "surgery rank at one slope", _cmd_rank, ("plain", "tsv", "json"),
            p=number, q=number, method=dict(choices=("oracle", "formula", "both"), default="both"))
    command("scan", "rank table over a coprime slope grid", _cmd_scan, pmax=number, qmax=number,
            check=dict(action="store_true", help="exit 1 unless formula and oracle agree everywhere"))
    command("cosmetic", "rank obstruction for a slope pair", _cmd_cosmetic, r=slope, s=slope)
    command("complement", "compare 1/q surgery with the ambient rank", _cmd_complement, q=number)
    count = dict(type=int, default=1)
    command("gen", "write a complex as JSON to stdout", _cmd_gen, (),
            dict(builtin=dict(choices=BUILTIN_NAMES), random=dict(action="store_true")),
            seed=dict(type=int, default=0), dots=count, boxes=count,
            max_side=dict(type=int, default=2), max_offset=dict(type=int, default=2), name={})

    if argv and argv[0] in commands:
        # The parser that the full one's subparser for this command would be.
        _, *spec = commands[argv[0]]
        return _fill(argparse.ArgumentParser(prog=f"{PROG} {argv[0]}"), *spec)
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Surgery ranks, rank formulas and cosmetic-surgery obstructions "
            "for bifiltered knot Floer complexes over GF(2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, *spec) in commands.items():
        _fill(sub.add_parser(name, help=help), *spec)
    return parser


def _parse(argv) -> argparse.Namespace:
    """argv read as the full parser's ``parse_args`` reads it, by the named
    command's own parser where it can be (the module docstring says how)."""
    parser = _build_parser(argv)
    args, extra = parser.parse_known_args(argv if parser.prog == PROG else argv[1:])
    return _build_parser(()).parse_args(argv) if extra else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        status = args.func(args, _load_complex(args.input)) if "input" in args else args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull so the flush at
        # interpreter exit stays quiet too (the recipe in Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InvalidComplexError, FlipRequiredError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

