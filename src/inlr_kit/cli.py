"""Batch command-line front end.

Exit codes: 0 success, 1 type or syntax error, 2 stuck (a zero-norm
measurement or a scalar overflow), 3 fuel exhausted (or an exploration cut
short by its node budget), 4 usage (bad arguments or an unreadable input
file).  All randomness flows from --seed through counter-based streams, so
identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cc import DEFAULT_FUEL_CC, demo_optimization, explore
from .qencode import (compile_matrix, dump_vector_json, from_vector,
                      load_matrix_json, load_vector_json, to_vector,
                      EncodeError)
from .quantum import run_measure
from .rewrite import default_ruleset, normalize
from .rng import derive_rng
from .selftest import SUITES
from .syntax import (CALCULI, CalculusError, ParseError, parse_prop,
                     parse_term, print_prop, print_term)
from .typecheck import TypingError, infer

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_STUCK = 2
EXIT_FUEL = 3
EXIT_USAGE = 4

DEFAULT_FUEL = {"iplus": 10 ** 6, "quantum": 10 ** 6, "cc": DEFAULT_FUEL_CC}


class InputError(Exception):
    """An input file that cannot be read as UTF-8 text."""


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e.reason} "
                         f"at byte {e.start}") from e
    except ValueError as e:  # a path holding a NUL byte
        raise InputError(f"cannot read {path!r}: {e}") from e


def _count(low):
    """An argparse type: an integer of at least `low`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    return parse


def _parse_file(path, calculus):
    return parse_term(_read(path), calculus)


def cmd_check(args):
    t = _parse_file(args.file, args.calculus)
    try:
        prop = infer(args.calculus, {}, t)
    except TypingError as e:
        print(e.render(), file=sys.stderr)
        print(json.dumps(e.to_json(), sort_keys=True))
        return EXIT_TYPE
    print(print_prop(prop))
    return EXIT_OK


def cmd_norm(args):
    t = _parse_file(args.file, args.calculus)
    fuel = args.fuel if args.fuel is not None else DEFAULT_FUEL[args.calculus]
    if args.enumerate:
        if args.calculus != "cc":
            print("error: --enumerate only applies to the cc calculus",
                  file=sys.stderr)
            return EXIT_USAGE
        budget = min(fuel, 10 ** 4)
        graph = explore(t, node_budget=budget)
        for i in sorted(graph.normal_forms):
            print(print_term(graph.terms[i]))
        print(graph.to_dot())
        cycle = graph.shortest_cycle()
        if cycle is not None:
            nodes, rules = cycle
            path = "".join(f"n{i} -{rid}-> " for i, rid in zip(nodes, rules))
            print(f"cycle: {path}n{nodes[0]}", file=sys.stderr)
        if graph.budget_hit:
            print(f"truncated: node budget {budget} reached", file=sys.stderr)
        if args.stats:
            stats = {"nodes": len(graph.terms), "edges": len(graph.edges),
                     "normal_forms": len(graph.normal_forms),
                     "truncated": graph.budget_hit,
                     "shortest_cycle": None if cycle is None
                     else len(cycle[1])}
            print(json.dumps(stats, sort_keys=True), file=sys.stderr)
        return EXIT_FUEL if graph.budget_hit else EXIT_OK
    if args.stats:
        print("error: --stats only applies with --enumerate",
              file=sys.stderr)
        return EXIT_USAGE
    trace = normalize(t, default_ruleset(args.calculus), fuel=fuel,
                      rng=derive_rng(args.seed, 0x40))
    if args.trace:
        for line in trace.step_lines():
            print(line)
    outcome = trace.outcome
    print(print_term(outcome.term))
    if outcome.kind == "normal-form":
        return EXIT_OK
    if outcome.kind == "stuck":
        print(f"stuck: {outcome.reason}", file=sys.stderr)
        return EXIT_STUCK
    print(f"fuel exhausted after {len(trace.steps)} steps", file=sys.stderr)
    return EXIT_FUEL


def cmd_measure(args):
    t = _parse_file(args.file, "quantum")
    try:
        infer("quantum", {}, t)
    except TypingError as e:
        print(e.render(), file=sys.stderr)
        return EXIT_TYPE
    hist = run_measure(t, shots=args.shots, seed=args.seed, fuel=args.fuel)
    print(hist.to_json())
    if args.stats:
        print(json.dumps(hist.stats, sort_keys=True), file=sys.stderr)
    if any(b["term"].startswith("<stuck") for b in hist.bins):
        return EXIT_STUCK
    if any(b["term"].startswith("<fuel") for b in hist.bins):
        return EXIT_FUEL
    return EXIT_OK


def cmd_compile_matrix(args):
    m = load_matrix_json(_read(args.matrix))
    a = parse_prop(args.from_prop, "quantum")
    b = parse_prop(args.to_prop, "quantum")
    print(print_term(compile_matrix(m, a, b)))
    return EXIT_OK


def cmd_encode(args):
    if (args.vec is None) == (args.term is None):
        print("error: encode needs exactly one of --vec or --term",
              file=sys.stderr)
        return EXIT_USAGE
    prop = parse_prop(args.prop, "quantum")
    if args.vec is not None:
        v = load_vector_json(_read(args.vec))
        print(print_term(from_vector(v, prop)))
    else:
        t = _parse_file(args.term, "quantum")
        print(dump_vector_json(to_vector(t, prop)))
    return EXIT_OK


def cmd_demo_opt(args):
    print(demo_optimization().render())
    return EXIT_OK


def cmd_selftest(args):
    results = SUITES[args.suite](args.samples, args.seed)
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.ok
    return EXIT_OK if ok else EXIT_TYPE


def build_parser():
    p = argparse.ArgumentParser(
        prog="inlr",
        description="proof-term workbench for the inlr calculi")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="type-check a term file")
    c.add_argument("file")
    c.add_argument("--calculus", required=True, choices=CALCULI)
    c.set_defaults(fn=cmd_check)

    n = sub.add_parser("norm", help="normalize a term file")
    n.add_argument("file")
    n.add_argument("--calculus", required=True, choices=CALCULI)
    n.add_argument("--fuel", type=_count(0), default=None)
    n.add_argument("--seed", type=int, default=0)
    n.add_argument("--trace", action="store_true")
    n.add_argument("--enumerate", action="store_true",
                   help="cc only: explore all reduction alternatives and "
                        "print the reachable normal forms plus a DOT graph")
    n.add_argument("--stats", action="store_true",
                   help="with --enumerate: print the graph's size, whether "
                        "it was truncated and its shortest cycle as one JSON "
                        "line on stderr")
    n.set_defaults(fn=cmd_norm)

    m = sub.add_parser("measure", help="run a quantum term many times")
    m.add_argument("file")
    m.add_argument("--shots", type=_count(1), default=1000)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--fuel", type=_count(0), default=10 ** 6)
    m.add_argument("--stats", action="store_true",
                   help="print how the shots were walked as one JSON line "
                        "on stderr")
    m.set_defaults(fn=cmd_measure)

    cm = sub.add_parser("compile-matrix",
                        help="compile a complex matrix to a closed proof")
    cm.add_argument("matrix")
    cm.add_argument("--from", dest="from_prop", required=True)
    cm.add_argument("--to", dest="to_prop", required=True)
    cm.set_defaults(fn=cmd_compile_matrix)

    e = sub.add_parser("encode", help="convert vectors and terms")
    e.add_argument("--vec")
    e.add_argument("--term")
    e.add_argument("--prop", required=True)
    e.set_defaults(fn=cmd_encode)

    d = sub.add_parser("demo-opt",
                       help="show the commuting-cut optimization routes")
    d.set_defaults(fn=cmd_demo_opt)

    s = sub.add_parser("selftest", help="run a property suite")
    s.add_argument("--suite", required=True, choices=sorted(SUITES))
    s.add_argument("--samples", type=_count(1), default=50)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_selftest)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, CalculusError, EncodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TYPE


if __name__ == "__main__":
    sys.exit(main())
