"""Command-line interface.

Subcommands: decide, check, valid, countermodel, analyze, extract,
verify, enumerate, random-system.  Exit codes: 0 valid/holds/verified,
1 falsifiable/fails/countermodel found, 2 usage or parse error,
3 resource limit, 4 internal invariant violation.

All output is deterministic given the arguments, input files, and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

from . import alexandroff, quasimodel
from .config import Caps, DEFAULT_CAPS
from .errors import (CapExceeded, FragmentError, InvariantViolation,
                     ItlcError, ParseError, SchemaError, read_json, write_json)
from .formula import Atom, format_formula, parse, subformulas
from .moments import enumerate_irreducibles

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _count(text: str) -> int:
    """A command-line count, which must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cap(name: str, convert=int):
    """The argparse type of the Caps field name: a value Caps refuses is a usage error."""
    def read(text: str):
        value = convert(text)
        try:
            return getattr(Caps(**{name: value}), name)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    read.__name__ = convert.__name__  # argparse names it when convert fails
    return read


def _command(sub, name: str, handler, help: str, formats=(), caps=()):
    """Register one subcommand with its handler and, for a command that
    takes caps, --timeout, --jobs and the named Caps fields it honours;
    the first of formats is the default."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    if caps:
        for cap in caps:
            p.add_argument("--" + cap.replace("_", "-"), type=_cap(cap),
                           default=getattr(DEFAULT_CAPS, cap))
        p.add_argument("--timeout", type=_cap("timeout", float), default=DEFAULT_CAPS.timeout)
        p.add_argument("--jobs", type=_cap("jobs"), default=DEFAULT_CAPS.jobs,
                       help="accepted for compatibility; searches run on one thread")
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state between calls."""
    top = argparse.ArgumentParser(prog="itlc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = _command(sub, "decide", _cmd_decide, "decide validity over dynamical systems",
                 ("text", "json", "dot"), ("max_moments",))
    p.add_argument("formula")
    p.add_argument("--out", help="write the certificate JSON here")

    p = _command(sub, "check", _cmd_check, "evaluate a formula on a system file",
                 ("text", "json"))
    p.add_argument("system")
    p.add_argument("formula")

    p = _command(sub, "valid", _cmd_valid, "check a formula under every open valuation",
                 caps=("max_valuations",))
    p.add_argument("system")
    p.add_argument("formula")

    p = _command(sub, "countermodel", _cmd_countermodel,
                 "search small systems falsifying a formula", ("text", "json"),
                 ("max_valuations", "max_systems"))
    p.add_argument("formula")
    p.add_argument("--max-points", type=_count, default=3)

    p = _command(sub, "analyze", _cmd_analyze, "minimality, recurrence, connectedness",
                 ("text", "json"))
    p.add_argument("system")

    p = _command(sub, "extract", _cmd_extract, "project a system file onto its quasimodel",
                 ("json", "dot"), ("max_moments",))
    p.add_argument("system")
    p.add_argument("formula")
    p.add_argument("--out")

    p = _command(sub, "verify", _cmd_verify, "verify a falsification certificate")
    p.add_argument("certificate")
    p.add_argument("formula")

    p = _command(sub, "enumerate", _cmd_enumerate, "irreducible moment statistics",
                 caps=("max_moments",))
    p.add_argument("--sigma", required=True, metavar="FORMULA")

    p = _command(sub, "random-system", _cmd_random_system, "emit a seeded random system")
    p.add_argument("points", type=_count)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    return top


def _caps(args) -> Caps:
    """The caps of a command line, from the cap flags its command takes."""
    return Caps(**{f.name: getattr(args, f.name) for f in fields(Caps) if hasattr(args, f.name)})


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _quasimodel_dot(q: quasimodel.Quasimodel) -> str:
    lines = ["digraph quasimodel {", "  rankdir=LR;"]
    for i, m in enumerate(q.worlds):
        label = q.sigma.format_mask(m.label).replace('"', "'")
        lines.append(f'  n{i} [label="{i}: {label}"];')
    for a, row in enumerate(q.successors):
        lines.extend(f"  n{a} -> n{b};" for b in row)
    for a, b in q.order_pairs():
        lines.append(f"  n{a} -> n{b} [style=dashed, arrowhead=empty];")
    lines.append("}")
    return "\n".join(lines)


def _cmd_decide(args) -> int:
    target = parse(args.formula)
    verdict = quasimodel.decide(target, _caps(args))
    if verdict.kind == "FALSIFIABLE":
        cert = verdict.certificate
        if args.out:
            quasimodel.save_certificate(cert, args.out)
        if args.format == "json":
            _emit(cert.to_json_text())
        elif args.format == "dot":
            _emit(_quasimodel_dot(cert.quasimodel))
        else:
            q = cert.quasimodel
            _emit("FALSIFIABLE")
            _emit(f"witness world {cert.witness} with root label "
                  f"{q.sigma.format_mask(q.worlds[cert.witness].label)}")
            _emit(f"quasimodel: {len(q.worlds)} worlds, {sum(map(len, q.successors))} edges")
        return EXIT_FOUND
    # VALID or RESOURCE_LIMIT, which carry no quasimodel
    if args.format == "json":
        _emit(json.dumps({"verdict": verdict.kind, "complete": verdict.complete}, indent=2))
    elif args.format == "dot":
        _emit(f'digraph verdict {{\n  label="{verdict.kind}";\n}}')
    else:
        _emit(verdict.kind.replace("_", " "))
    return EXIT_OK if verdict.complete else EXIT_RESOURCE


def _valued_system(path, f):
    """The system of a file and its valuation, which must cover f's atoms."""
    X, valuation = alexandroff.load_system(path)
    if valuation is None:
        raise SchemaError("system file carries no valuation")
    for g in subformulas(f):
        if isinstance(g, Atom) and g.name not in valuation:
            raise SchemaError(f"valuation: no entry for atom {g.name!r}")
    return X, valuation


def _cmd_check(args) -> int:
    f = parse(args.formula)
    X, valuation = _valued_system(args.system, f)
    truth = alexandroff.evaluate(X, valuation, f)
    failing = [name for name in X.names if name not in truth]
    if args.format == "json":
        _emit(json.dumps({"holds": not failing, "failing": failing}, indent=2))
    elif failing:
        _emit("fails at: " + " ".join(failing))
    else:
        _emit("holds everywhere")
    return EXIT_OK if not failing else EXIT_FOUND


def _cmd_valid(args) -> int:
    X, _ = alexandroff.load_system(args.system)
    f = parse(args.formula)
    if alexandroff.is_valid_on_system(X, f, _caps(args)):
        _emit("valid on this system (all open valuations)")
        return EXIT_OK
    _emit("falsified by some open valuation")
    return EXIT_FOUND


def _cmd_countermodel(args) -> int:
    f = parse(args.formula)
    found = alexandroff.find_countermodel(f, args.max_points, _caps(args))
    if found is None:
        _emit(f"no countermodel with at most {args.max_points} points")
        return EXIT_OK
    payload = alexandroff.system_to_json(found.system, found.valuation)
    payload["falsified_at"] = found.point
    if args.format == "json":
        _emit(json.dumps(payload, indent=2))
    else:
        _emit(f"countermodel with {len(found.system)} points; "
              f"formula fails at {found.point}")
        _emit(json.dumps(payload, indent=2))
    return EXIT_FOUND


def _cmd_analyze(args) -> int:
    X, _ = alexandroff.load_system(args.system)
    result = alexandroff.analyze(X).as_dict()
    if args.format == "json":
        _emit(json.dumps(result, indent=2))
    else:
        for key, value in result.items():
            _emit(f"{key}: {str(value).lower()}")
    return EXIT_OK


def _cmd_extract(args) -> int:
    f = parse(args.formula)
    X, valuation = _valued_system(args.system, f)
    reduced, sigma = quasimodel.fragment_context(f)
    q = quasimodel.extract_quasimodel(X, valuation, sigma, _caps(args))
    falsified = quasimodel.falsified_members(q)
    payload = q.to_json_dict() | {"falsified": [format_formula(f) for f in falsified]}
    if args.out:
        write_json(args.out, payload)
    if args.format == "dot":
        _emit(_quasimodel_dot(q))
    else:
        _emit(json.dumps(payload, indent=2))
    return EXIT_FOUND if reduced in falsified else EXIT_OK


def _cmd_verify(args) -> int:
    outcome = quasimodel.verify_certificate(read_json(args.certificate), parse(args.formula))
    if outcome:
        _emit("certificate verified")
        return EXIT_OK
    _emit(f"certificate INVALID: {outcome.reason}")
    return EXIT_FOUND


def _cmd_enumerate(args) -> int:
    _, sigma = quasimodel.fragment_context(parse(args.sigma))
    store = enumerate_irreducibles(sigma, _caps(args))
    _emit(f"context: {len(sigma)} formulas, {len(sigma.type_masks())} types")
    for height in sorted(store.by_height):
        _emit(f"height {height}: {len(store.by_height[height])} irreducible moments")
    _emit(f"total: {len(store)} ({'complete' if store.complete else 'INCOMPLETE'})")
    return EXIT_OK if store.complete else EXIT_RESOURCE


def _cmd_random_system(args) -> int:
    X = alexandroff.random_system(args.points, args.seed)
    payload = alexandroff.system_to_json(X, {})
    if args.out:
        write_json(args.out, payload)
    _emit(json.dumps(payload, indent=2))
    return EXIT_OK


def run(argv) -> int:
    """Dispatch a command line; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        return args.handler(args)
    except (ParseError, SchemaError, FragmentError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InvariantViolation, ItlcError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
