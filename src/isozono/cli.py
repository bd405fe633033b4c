"""Command-line driver.

Subcommands: validate, boundary, zonotope, search, section, converge,
render, reproduce.  Graphs come from the builtin catalog (``--graph``) or a
spec file (``--spec``).  Reports are deterministic plain text / TSV; figures
are SVG (dimension 2) or OFF (dimension 3).  The ISOZONO_BUDGET environment
variable caps enumeration sizes.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import reproduce as reproduce_mod
from .catalog import (BUILTIN_NAMES, builtin_graph, comparison_builtin,
                      parse_graph_spec)
from .errors import (BudgetExceededError, EmptySectionError, FormatError,
                     InvalidArgumentError, IsozonoError)
from .geometry import points_from_text, points_to_text, polytope_from_text, polytope_to_text
from .plgraph import boundary_identity_report
from .render import render_polytope
from .search import (convergence_experiment, default_budget, exhaustive_min_boundary,
                     local_search_min_boundary)
from .zonotope import f_vector, homothety_check, hyperplane_section


def _read(path):
    """The text of a UTF-8 file; a `FormatError` if it does not decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_spec(args):
    if getattr(args, "spec", None):
        return parse_graph_spec(_read(args.spec), source=args.spec)
    return builtin_graph(args.graph)


def _add_graph_arguments(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="NAME",
                       help=f"builtin graph ({', '.join(BUILTIN_NAMES)})")
    group.add_argument("--spec", metavar="FILE", help="graph spec file")


def _write(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _number(token: str, kind=Fraction):
    """kind(token), or a `FormatError` naming the token."""
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"{token!r} is not a number") from None


def _parse_alphas(spec: str, budget=None):
    alphas = []
    for token in spec.split(","):
        token = token.strip()
        if ":" in token:
            lo, _, hi = token.partition(":")
            lo, hi, budget = _number(lo, int), _number(hi, int), default_budget(budget)
            if hi - lo >= budget:  # refused before the range is built
                raise BudgetExceededError(f"alpha range {token} has more scales than the "
                                          f"budget ({budget})")
            alphas.extend(range(lo, hi + 1))
        elif token:
            alphas.append(_number(token))
    return alphas


def _cmd_validate(args):
    spec = _load_spec(args)
    graph = spec.graph()
    lines = [f"name\t{spec.name}",
             f"dim\t{graph.dim}",
             f"generators\t{len(graph.generators)}",
             f"degree\t{graph.degree}"]
    for g in graph.generators:
        lines.append("generator\t" + " ".join(str(a) for a in g))
    if spec.symmetry_hints:
        lines.append(f"symmetry_hints\t{len(spec.symmetry_hints)}")
    lines.append("valid PL graph")
    print("\n".join(lines))
    return 0


def _cmd_boundary(args):
    spec = _load_spec(args)
    graph = spec.graph()
    points = points_from_text(_read(args.set), source=args.set)
    if not points:
        raise InvalidArgumentError(f"{args.set}: empty point set")
    report = boundary_identity_report(graph, points)
    lines = [str(report.direct_count),
             "generator\tprojections\tgaps"]
    for v, proj, gaps in report.per_generator:
        lines.append(" ".join(str(a) for a in v) + f"\t{proj}\t{gaps}")
    lines.append(
        f"identity\t{report.identity_count}\t"
        + ("ok" if report.identity_holds else "MISMATCH"))
    text = "\n".join(lines)
    print(text)
    if args.out:
        _write(args.out, text + "\n")
    return 0 if report.identity_holds else 1


def _cmd_zonotope(args):
    spec = _load_spec(args)
    Z = spec.original_zonotope() if args.original_coords else spec.zonotope()
    out_lines = []
    if args.fvector:
        out_lines.append(" ".join(str(f) for f in f_vector(Z).counts))
    if args.volume:
        out_lines.append(str(Z.volume()))
    if args.support:
        out_lines.append(str(Z.support([_number(t, int) for t in args.support.split()])))
    if args.vertices:
        P = Z.polytope()
        out_lines.extend(" ".join(str(a) for a in v) for v in P.vertices)
    if args.hrep:
        P = Z.polytope()
        out_lines.extend(" ".join(str(a) for a in n) + " <= " + str(c)
                         for n, c in P.facets)
    if not out_lines:
        P = Z.polytope()
        fv = f_vector(Z)
        out_lines = [f"name\t{spec.name}",
                     f"dim\t{Z.dim}",
                     f"generators\t{len(Z.generators)}",
                     f"vertices\t{len(P.vertices)}",
                     f"facets\t{len(P.facets)}",
                     f"volume\t{Z.volume()}",
                     "fvector\t" + " ".join(str(f) for f in fv.counts)]
    print("\n".join(out_lines))
    if args.out:
        _write(args.out, polytope_to_text(Z.polytope()))
    return 0


def _cmd_search(args):
    if args.print_witnesses < 0:
        raise InvalidArgumentError(f"--print-witnesses must be >= 0, got {args.print_witnesses}")
    spec = _load_spec(args)
    graph = spec.graph()
    if args.mode == "exhaustive":
        if args.box_radius is None:
            raise InvalidArgumentError("exhaustive search requires --box-radius")
        hints = spec.symmetry_hints if args.use_symmetry else None
        result = exhaustive_min_boundary(
            graph, args.m, args.box_radius, witness_cap=args.witness_cap,
            budget=args.budget, symmetry_hints=hints)
    else:
        if args.budget is not None:
            raise InvalidArgumentError("--budget applies to exhaustive search; local search "
                                       "is capped by ISOZONO_BUDGET")
        result = local_search_min_boundary(graph, args.m,
                                           iterations=args.iterations,
                                           seed=args.seed)
    lines = [f"cardinality\t{result.cardinality}",
             f"min_boundary\t{result.min_boundary}",
             f"exhaustive\t{'true' if result.exhaustive else 'false'}",
             f"witnesses\t{len(result.witnesses)}",
             f"truncated\t{'true' if result.witnesses_truncated else 'false'}",
             f"evaluated\t{result.evaluated}"]
    print("\n".join(lines))
    for i, w in enumerate(result.witnesses[:args.print_witnesses], start=1):
        print(f"witness\t{i}")
        print(points_to_text(w), end="")
    if args.out:
        _write(args.out + ".tsv", "\n".join(lines) + "\n")
        for i, w in enumerate(result.witnesses, start=1):
            _write(f"{args.out}.witness-{i:03d}.txt", points_to_text(w))
    return 0


def _cmd_section(args):
    spec = _load_spec(args)
    Z = spec.zonotope()
    if not 1 <= args.axis <= Z.dim:
        raise InvalidArgumentError(f"--axis must be in 1..{Z.dim}, got {args.axis}")
    level = _number(args.level)
    unit = tuple(1 if i == args.axis - 1 else 0 for i in range(Z.dim))
    h = Z.support(unit)
    if abs(level) > h:
        raise EmptySectionError(
            f"|level| = {abs(level)} exceeds the support value {h} along --axis {args.axis}")
    section = hyperplane_section(Z, args.axis - 1, level)
    lines = [f"vertices\t{len(section.vertices)}"]
    if section.is_full_dimensional():
        lines.append(f"volume\t{section.volume()}")
    compare = args.compare or comparison_builtin(spec.name)
    if compare:
        target = builtin_graph(compare).zonotope().polytope()
        if target.dim == section.dim and section.is_full_dimensional():
            hc = homothety_check(target, section)
            if hc is None:
                lines.append(f"homothetic to {compare} zonotope\tno")
            else:
                scale, t = hc
                lines.append(
                    f"homothetic to {compare} zonotope\tyes\tscale {scale}"
                    f"\ttranslation " + " ".join(str(a) for a in t))
    text = "\n".join(lines)
    print(text)
    if args.render:
        render_polytope(section, args.render)
    if args.out:
        _write(args.out, polytope_to_text(section))
    return 0


def _cmd_converge(args):
    spec = _load_spec(args)
    graph = spec.graph()
    rows = convergence_experiment(graph, _parse_alphas(args.alphas, args.budget),
                                  budget=args.budget)
    lines = ["alpha\tpoints\tvolume\tdiscrete_boundary\tcontinuous_boundary"
             "\tvol_ratio\tboundary_ratio"]
    for r in rows:
        lines.append(f"{r.alpha}\t{r.points}\t{r.volume}\t{r.discrete_boundary}"
                     f"\t{r.continuous_boundary}\t{r.vol_ratio}\t{r.boundary_ratio}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        _write(args.out, text + "\n")
    return 0


def _cmd_render(args):
    if args.polytope:
        body = polytope_from_text(_read(args.polytope), source=args.polytope)
    else:
        spec = builtin_graph(args.graph)
        body = (spec.original_zonotope() if args.original_coords
                else spec.zonotope()).polytope()
    render_polytope(body, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_reproduce(args):
    only = args.only.split(",") if args.only else None
    return reproduce_mod.run(only=only)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isozono",
        description="Exact edge-boundary, zonotope, and isoperimetric toolkit "
                    "for lattice graphs.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a graph and print its data")
    _add_graph_arguments(p)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("boundary", help="edge boundary of a point set, with the identity table")
    _add_graph_arguments(p)
    p.add_argument("--set", required=True, metavar="FILE", help="lattice set file")
    p.add_argument("--out", metavar="FILE", help="also write the report here")
    p.set_defaults(func=_cmd_boundary)

    p = subs.add_parser("zonotope", help="limiting zonotope data")
    _add_graph_arguments(p)
    p.add_argument("--fvector", action="store_true", help="print the f-vector")
    p.add_argument("--volume", action="store_true", help="print the volume")
    p.add_argument("--vertices", action="store_true", help="print all vertices")
    p.add_argument("--hrep", action="store_true", help="print all facet inequalities")
    p.add_argument("--support", metavar="VEC", help="print the support value of a direction")
    p.add_argument("--original-coords", action="store_true",
                   help="use original coordinates when the graph records a basis change")
    p.add_argument("--out", metavar="FILE", help="write the polytope file here")
    p.set_defaults(func=_cmd_zonotope)

    p = subs.add_parser("search", help="minimum edge-boundary search")
    _add_graph_arguments(p)
    p.add_argument("--m", type=int, required=True, help="set cardinality")
    p.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
    p.add_argument("--box-radius", type=int, help="canonical-form box radius (exhaustive)")
    p.add_argument("--iterations", type=int, default=20000, help="local search steps")
    p.add_argument("--seed", type=int, default=0, help="local search seed")
    p.add_argument("--witness-cap", type=int, default=100)
    p.add_argument("--use-symmetry", action="store_true",
                   help="deduplicate witnesses modulo the graph's symmetry hints")
    p.add_argument("--budget", type=int,
                   help="override the enumeration budget (exhaustive mode only; "
                        "local search is capped by ISOZONO_BUDGET)")
    p.add_argument("--print-witnesses", type=int, default=3)
    p.add_argument("--out", metavar="PREFIX",
                   help="write PREFIX.tsv and PREFIX.witness-NNN.txt files")
    p.set_defaults(func=_cmd_search)

    p = subs.add_parser("section", help="hyperplane section of the limiting zonotope")
    _add_graph_arguments(p)
    p.add_argument("--axis", type=int, required=True, help="coordinate axis (1-based)")
    p.add_argument("--level", required=True, help="section level (rational)")
    p.add_argument("--compare", metavar="NAME",
                   help="builtin zonotope to test homothety against "
                        "(default: one dimension lower in the same family)")
    p.add_argument("--render", metavar="FILE", help="write an SVG/OFF figure")
    p.add_argument("--out", metavar="FILE", help="write the section polytope file")
    p.set_defaults(func=_cmd_section)

    p = subs.add_parser("converge", help="exact convergence table")
    _add_graph_arguments(p)
    p.add_argument("--alphas", required=True, metavar="SPEC",
                   help="comma list of rationals and lo:hi integer ranges, e.g. 1:20 or 10,50")
    p.add_argument("--budget", type=int, help="override the enumeration budget")
    p.add_argument("--out", metavar="FILE", help="write the TSV here")
    p.set_defaults(func=_cmd_converge)

    p = subs.add_parser("render", help="figure for a builtin zonotope or a polytope file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="NAME")
    group.add_argument("--polytope", metavar="FILE")
    p.add_argument("--original-coords", action="store_true")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_render)

    p = subs.add_parser("reproduce", help="run the full regression suite")
    p.add_argument("--only", metavar="IDS", help="comma list of item ids, e.g. 1,2a,10c")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IsozonoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
