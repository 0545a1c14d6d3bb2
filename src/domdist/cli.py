"""Command-line interface.

Subcommands: analyze (one graph, full bound report), verify (corpus sweep),
tight (equality instances for one bound), lift (gamma-set preserving spanning
tree), counterexample (the 6-vertex diametral-path demo).

analyze and lift read a file's first harness.iter_corpus entry, so a graph
that verify would skip (n > 62 included) makes them exit 2.

Exit codes: 0 success, 1 theorem violation or failed verification, 2 usage
or input error.  verify and tight skip malformed corpus entries and count
them (verify on stdout, tight on stderr, so its stdout stays one token per
line); verify --strict exits 2 on the first one instead, and verify exits 2
on a --jsonl file that is the corpus itself.  Both print the number of
checks skipped for budget as "budget-skipped: N" on stderr when it is not
zero.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bounds import BoundReport, DEFAULT_RS, assemble_report
from .domination import gamma_exact
from .errors import DomdistError, GraphInputError, MalformedLine
from .graphs import Graph, parse_graph6
from .harness import (
    FORMAT_EDGELIST,
    FORMAT_GRAPH6,
    counterexample_demo,
    iter_corpus,
    run_corpus_verify,
    scan_tight_instances,
)
from .treelift import lift_gamma_set_to_spanning_tree, verify_lift

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _parse_r_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad r list {text!r}") from None
    if not values or any(r < 3 for r in values):
        raise argparse.ArgumentTypeError("r values must be integers >= 3")
    return values


def _parse_vertex_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad vertex list {text!r}") from None


def _load_single_graph(spec: str, fmt: str) -> Graph:
    """Load a file's first corpus entry, or a literal graph6 string."""
    if os.path.exists(spec):
        for _, _, item in iter_corpus(spec, fmt):
            if isinstance(item, GraphInputError):
                raise item
            return item
        if fmt == FORMAT_GRAPH6:
            raise GraphInputError(f"no graph6 line in {spec}")
        raise MalformedLine(f"no edge-list block in {spec}")
    if fmt == FORMAT_GRAPH6:
        return parse_graph6(spec)
    raise GraphInputError(f"no such file: {spec}")


def _format_check_row(c) -> str:
    if c.skipped:
        return f"  {c.name:<18} skipped ({c.skipped_reason})"
    status = "EQUALITY" if c.equality else ("ok" if c.holds else "VIOLATED")
    witness = ",".join(map(str, c.witness)) if c.witness else "-"
    return (f"  {c.name:<18} value={str(c.value):<8} slack={str(c.slack):<8} "
            f"witness=[{witness}] {status}")


def _print_report(report: BoundReport) -> None:
    print(f"graph: {report.graph6}  n={report.n}")
    print(f"gamma: {report.gamma}  witness={sorted(report.gamma_witness)}")
    print("bounds:")
    for c in report.checks:
        print(_format_check_row(c))
    if report.triple_equalities:
        print("triple equality witnesses (distances mod 3 must all be 2):")
        for t in report.triple_equalities:
            flag = "ok" if t.mod3_ok else "VIOLATION"
            print(f"  triple={t.triple} dists={t.dists} {flag}")
    else:
        print("triple equality witnesses: none")
    print(f"fatal: {report.fatal}")


def _cmd_analyze(args) -> int:
    g = _load_single_graph(args.graph, args.format)
    report = assemble_report(g, rs=args.r)
    _print_report(report)
    if args.jsonl:
        with open(args.jsonl, "w", encoding="ascii") as fh:
            fh.write(report.jsonl_line() + "\n")
    return EXIT_VIOLATION if report.fatal else EXIT_OK


def _cmd_verify(args) -> int:
    summary = run_corpus_verify(args.corpus, fmt=args.format, rs=args.r,
                                strict=args.strict, jsonl_path=args.jsonl)
    print(f"processed: {summary.graphs_processed}")
    print(f"skipped:   {summary.skipped}")
    for lineno, msg in summary.errors:
        print(f"  line {lineno}: {msg}")
    print(f"violations: {summary.violations}")
    for token, name in summary.violation_details:
        print(f"  {token}: {name}")
    print("equality counts:")
    for name in sorted(summary.equality_counts):
        print(f"  {name:<18} {summary.equality_counts[name]}")
    print(f"elapsed: {summary.elapsed:.3f}s")
    if summary.budget_skipped:
        print(f"budget-skipped: {summary.budget_skipped}", file=sys.stderr)
    return EXIT_VIOLATION if summary.violations else EXIT_OK


def _cmd_tight(args) -> int:
    tight, skipped, budget_skipped = scan_tight_instances(args.corpus, args.bound, args.format)
    for token in tight:
        print(token)
    if skipped:
        print(f"skipped: {skipped}", file=sys.stderr)
    if budget_skipped:
        print(f"budget-skipped: {budget_skipped}", file=sys.stderr)
    return EXIT_OK


def _cmd_lift(args) -> int:
    g = _load_single_graph(args.graph, args.format)
    m = args.set if args.set is not None else gamma_exact(g).witness
    lift = lift_gamma_set_to_spanning_tree(g, m)
    print(f"gamma set: {sorted(set(m))}")
    print(f"tree edges: {list(lift.tree_edges)}")
    print(f"dominators: {dict(lift.dominator_of)}")
    print(f"connector edges: {list(lift.connector_edges)}")
    check = verify_lift(g, lift, m)
    print(f"verified: {check.ok}" + (f" ({check.reason})" if check.reason else ""))
    return EXIT_OK if check.ok else EXIT_VIOLATION


def _cmd_counterexample(args) -> int:
    report = counterexample_demo()
    g = report.graph
    print(f"counterexample graph (n={g.n}): edges {list(g.edges())}")
    print(f"gamma = {report.gamma}, gamma-set = {sorted(report.gamma_set)}")
    print(f"diametral path: {list(report.diametral_path)} "
          f"(induced={report.path_is_induced}, length={len(report.diametral_path) - 1}, "
          f"diam={report.diameter})")
    print(f"edges joining N[{report.gamma_set[0]}] and N[{report.gamma_set[1]}] "
          f"on the path: {report.joining_edge_count}")
    print(f"claimed maximum (gamma - 1): {report.claimed_max_joining_edges}")
    verdict = "refuted" if report.refutes_claim else "NOT refuted"
    print(f"claim {verdict}: {report.joining_edge_count} > "
          f"{report.claimed_max_joining_edges} = {report.refutes_claim}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domdist",
        description="Exact domination numbers and distance-based lower bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=(FORMAT_GRAPH6, FORMAT_EDGELIST),
                       default=FORMAT_GRAPH6)

    def add_r(p):
        p.add_argument("--r", type=_parse_r_list, default=DEFAULT_RS,
                       metavar="R1,R2,...", help="subset sizes for the r-subset bound")

    p = sub.add_parser("analyze", help="full bound report for one graph")
    p.add_argument("graph", help="file path, or a literal graph6 string")
    add_format(p)
    add_r(p)
    p.add_argument("--jsonl", metavar="FILE", help="also write the report as JSONL")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="verify every bound over a corpus")
    p.add_argument("corpus")
    add_format(p)
    add_r(p)
    p.add_argument("--jsonl", metavar="FILE", help="write one JSON object per graph")
    p.add_argument("--strict", action="store_true",
                   help="abort on malformed corpus entries instead of skipping")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tight", help="list corpus graphs attaining equality for a bound")
    p.add_argument("corpus")
    p.add_argument("--bound", required=True,
                   help="diameter | triple | r-subset:R | average-distance | boundary-ecc")
    add_format(p)
    p.set_defaults(func=_cmd_tight)

    p = sub.add_parser("lift", help="lift a minimum dominating set to a spanning tree")
    p.add_argument("graph", help="file path, or a literal graph6 string")
    p.add_argument("--set", type=_parse_vertex_set, default=None,
                   metavar="V1,V2,...", help="gamma-set to lift (default: solver witness)")
    add_format(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("counterexample",
                       help="verify the diametral-path joining-edges counterexample")
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomdistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
