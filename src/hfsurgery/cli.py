"""Command-line front end.

Exit codes: 0 success, 1 check failure (rank mismatch, invalid complex,
or a closed form asked of a complex that fails the containment
hypothesis) or a stdout closed by its reader, 2 usage error: argparse's
own, or any ValueError, such as a bad slope, one whose cone would sweep
too many HatB blocks or a scan grid whose cones would in all, an input
that is neither a readable complex file nor a builtin, or an empty scan
grid.  Output is line oriented for shell use; pass --format json for
machine-readable output.
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
    FormulaNotApplicableError,
    RankReport,
    Slope,
    compute_rank_report,
    cone_rank_chain,
    coprime_slopes,
    nu_surrogate,
    rank_formula,
    require_grid_sweep,
)


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


def _cmd_validate(args) -> int:
    c = _load_complex(args.input)
    report = c.validate()
    payload = {"name": c.name, "valid": report.ok,
               "issues": [{"code": i.code, "message": i.message} for i in report.issues]}
    lines = [f"name={c.name}", f"valid={'yes' if report.ok else 'no'}"]
    lines += [f"issue\t{i.code}\t{i.message}" for i in report.issues]
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_info(args) -> int:
    c = _load_complex(args.input)
    profile = c.hfk_profile()
    genus = c.genus()
    b = c.b_rank()
    nu = nu_surrogate(c) if b == 1 else None
    report = hypothesis_check(c) if c.has_flip else None
    hyp = None if report is None else report.overall
    payload = {"name": c.name, "genus": genus, "b": b,
               "hfk": {str(s): n for s, n in profile.items()}, "nu": nu, "hypothesis": hyp}
    lines = [f"name={c.name}", f"genus={genus}", f"b={b}",
             "hfk=" + ",".join(f"{s}:{n}" for s, n in profile.items()),
             f"nu={nu if nu is not None else '-'}",
             "hypothesis=" + ("no-flip" if hyp is None else "pass" if hyp else "fail")]
    if hyp is False:
        payload["containment"] = report.to_json_dict()
        for key, runs in (("h_not_in_v", report.h_in_v), ("v_not_in_h", report.v_in_h)):
            failing = [s for start, n, ok in runs if not ok for s in range(start, start + n)]
            lines.append(f"{key}=" + (",".join(map(str, failing)) or "-"))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_rank(args) -> int:
    c = _load_complex(args.input)
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


def _cmd_scan(args) -> int:
    if args.pmax < 1 or args.qmax < 1:
        raise ValueError(f"--pmax and --qmax must be at least 1, got {args.pmax} and {args.qmax}")
    c = _load_complex(args.input)
    require_grid_sweep(c, args.pmax, args.qmax)
    reports = [compute_rank_report(c, slope) for slope in coprime_slopes(args.pmax, args.qmax)]
    table = [RankReport.TSV_HEADER, *(r.tsv_row() for r in reports)]
    _emit(args, [r.to_json_dict() for r in reports], "\n".join(table))
    bad = [r for r in reports if r.formula_rank is None or not r.consistent] if args.check else []
    for r in bad:
        why = "" if r.hypothesis_ok else " (containment hypothesis fails)"
        print(f"check failed at {r.slope}: {r}{why}", file=sys.stderr)
    return 1 if bad else 0


def _cmd_cosmetic(args) -> int:
    c = _load_complex(args.input)
    verdict = cosmetic_pair_check(c, Slope.parse(args.r), Slope.parse(args.s))
    _emit(args, verdict.to_json_dict(), verdict)
    return 0


def _cmd_complement(args) -> int:
    c = _load_complex(args.input)
    verdict = complement_check(c, args.q)
    _emit(args, verdict.to_json_dict(), verdict)
    return 0


def _cmd_gen(args) -> int:
    if args.builtin is not None:
        c = builtin(args.builtin)
    else:
        spec = RandomSpec(
            seed=args.seed,
            dots=args.dots,
            boxes=args.boxes,
            max_side=args.max_side,
            max_offset=args.max_offset,
        )
        c = random_complex(spec)
    if args.name is not None:
        c = c.renamed(args.name)
    sys.stdout.write(c.to_json())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfsurgery",
        description=(
            "Surgery ranks, rank formulas and cosmetic-surgery obstructions "
            "for bifiltered knot Floer complexes over GF(2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, formats=("plain", "json"), **arguments):
        # A command that reads a complex: the input, then its own arguments,
        # each keyed by its dest and flagged -x for one letter or --name for
        # more, then --format.
        p = sub.add_parser(name, help=help)
        p.add_argument("input")
        for dest, options in arguments.items():
            p.add_argument(("-" if len(dest) == 1 else "--") + dest, **options)
        p.add_argument("--format", choices=formats, default="plain")
        p.set_defaults(func=func)

    number, slope = dict(type=int, required=True), dict(required=True, metavar="P/Q")
    command("validate", "check the complex axioms", _cmd_validate)
    command("info", "genus, b, hfk profile, nu, hypothesis verdict", _cmd_info)
    command("rank", "surgery rank at one slope", _cmd_rank, ("plain", "tsv", "json"),
            p=number, q=number, method=dict(choices=("oracle", "formula", "both"), default="both"))
    command("scan", "rank table over a coprime slope grid", _cmd_scan, pmax=number, qmax=number,
            check=dict(action="store_true", help="exit 1 unless formula and oracle agree everywhere"))
    command("cosmetic", "rank obstruction for a slope pair", _cmd_cosmetic, r=slope, s=slope)
    command("complement", "compare 1/q surgery with the ambient rank", _cmd_complement, q=number)

    p = sub.add_parser("gen", help="write a complex as JSON to stdout")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=BUILTIN_NAMES)
    group.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dots", type=int, default=1)
    p.add_argument("--boxes", type=int, default=1)
    p.add_argument("--max-side", type=int, default=2)
    p.add_argument("--max-offset", type=int, default=2)
    p.add_argument("--name", default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull so the flush at
        # interpreter exit stays quiet too (the recipe in Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InvalidComplexError, FlipRequiredError, FormulaNotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

