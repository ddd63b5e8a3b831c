"""Command-line interface.

Exit codes: 0 = HOLDS / success, 1 = FAILS, 2 = UNKNOWN, 3 = input error
(a malformed document, option value or command line), 4 = internal error
(a failed invariant or precondition check, or any other bug).
`check all` exits with the worst status among the four properties.
Observation strings use accumulated weights: "(rho,1);(rho,3)" and, for
vector weights, "(a,1 0 0 0);(b,1 -1 0 0)".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback

from . import corpus, io
from .estimator import EstimateUndecided, build_detector, build_observer, estimate
from .model import ValidationError, normalize, scale_to_integers, structure_report
from .selfcomp import build_self_composition, check_sd
from .verdict import FAILS, HOLDS, UNKNOWN
from .verify import check_all, check_spd, check_wd, check_wpd

EXIT = {HOLDS: 0, FAILS: 1, UNKNOWN: 2}
INPUT_ERROR = 3
INTERNAL_ERROR = 4

# per structure: its builder, its JSON and its DOT
_STRUCTURES = {
    "selfcomp": (build_self_composition, io.selfcomp_to_json, io.selfcomp_to_dot),
    "observer": (build_observer, io.estimator_to_json, io.estimator_to_dot),
    "detector": (build_detector, io.estimator_to_json, io.estimator_to_dot),
}


def _read_automaton(path: str):
    text = sys.stdin.read() if path == "-" else open(path).read()
    return io.loads(text)


def _emit(document: dict) -> None:
    sys.stdout.write(io.dumps(document))


def _parse_obs(text: str, k: int):
    if not text.strip():
        return []
    out = []
    for i, chunk in enumerate(text.split(";")):
        chunk = chunk.strip()
        m = re.fullmatch(r"\((.+?),([^,()]+)\)", chunk)
        if not m:
            raise io.ParseError(f"bad observation {chunk!r}", f"obs[{i}]")
        symbol = m.group(1).strip()
        entries = m.group(2).split()
        weight = tuple(io.str_to_rational(x, f"obs[{i}].weight") for x in entries)
        if len(weight) != k:
            raise io.ParseError(f"weight dimension {len(weight)}, expected {k}", f"obs[{i}]")
        out.append((symbol, weight))
    return out


def _write_dot(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    a = _read_automaton(args.file)
    rep = structure_report(a)
    _emit({
        "valid": True,
        "k": a.k,
        "states": len(a.states),
        "transitions": len(a.transitions),
        "structure": {
            "deadlock_free": rep.deadlock_free,
            "divergence_free": rep.divergence_free,
            "deterministic": rep.deterministic,
            "unambiguous": rep.unambiguous,
            "all_observable": rep.all_observable,
            "reachable_states": sorted(rep.reachable_states),
        },
    })
    return 0


def cmd_normalize(args) -> int:
    document = io.serialize(normalize(_read_automaton(args.file)))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(io.dumps(document))
    else:
        _emit(document)
    return 0


def _prepared(args):
    return scale_to_integers(normalize(_read_automaton(args.file)))


def cmd_structure(args) -> int:
    build, to_json, to_dot = _STRUCTURES[args.command]
    prepared, m = _prepared(args)
    structure = build(prepared)
    _emit(to_json(structure, m))
    _write_dot(args.dot, to_dot(structure))
    return 0


def cmd_check(args) -> int:
    if args.property != "all":
        # decide only the named property, with check_all's call for it
        prepared, m = _prepared(args)
        checker = {"sd": check_sd, "spd": check_spd, "wd": check_wd, "wpd": check_wpd}
        verdict = checker[args.property](prepared)
        _emit({"scale": m, "verdict": verdict.to_json()})
        return EXIT[verdict.status]
    result = check_all(_read_automaton(args.file))
    _emit({
        "scale": result.scale,
        "verdicts": {p: v.to_json() for p, v in result.verdicts.items()},
    })
    statuses = [v.status for v in result.verdicts.values()]
    if FAILS in statuses:
        return EXIT[FAILS]
    if UNKNOWN in statuses:
        return EXIT[UNKNOWN]
    return EXIT[HOLDS]


def cmd_estimate(args) -> int:
    a = _read_automaton(args.file)
    gamma = _parse_obs(args.obs, a.k)
    try:
        x = estimate(a, gamma)
    except EstimateUndecided as exc:  # k > 1 budget exhausted
        _emit({"observation": args.obs, "estimate": None, "status": UNKNOWN,
               "notes": str(exc)})
        return EXIT[UNKNOWN]
    _emit({"observation": args.obs, "estimate": sorted(x)})
    return 0


def cmd_gen(args) -> int:
    if args.generator == "subset-sum":
        try:
            weights = [int(x) for x in args.weights.split(",") if x.strip()]
            a = corpus.subset_sum_automaton(weights, args.target)
        except ValueError as exc:
            raise io.ParseError(str(exc), "--weights/--target") from exc
    elif args.generator == "random":
        a = corpus.random_automaton(args.seed, k=args.k)
    else:
        a = corpus.load_fixture(args.name).automaton
    document = io.serialize(a)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(io.dumps(document))
    else:
        _emit(document)
    return 0


def cmd_export(args) -> int:
    if args.what == "automaton":
        text = io.automaton_to_dot(_read_automaton(args.file))
    else:
        build, _, to_dot = _STRUCTURES[args.what]
        text = to_dot(build(_prepared(args)[0]))
    if args.dot:
        _write_dot(args.dot, text)
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are input errors (exit 3):
    argparse's own exit status for them, 2, means UNKNOWN here."""

    def error(self, message: str):
        raise io.ParseError(message, self.prog)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wadet",
        description="Detectability analysis for labeled weighted automata over (Q^k, +).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument("file", help="automaton JSON file, or - for stdin")

    p = sub.add_parser("validate", help="validate a document and report structure")
    add_file(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("normalize", help="rewrite initial weights into silent arcs")
    add_file(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_normalize)

    for name in _STRUCTURES:
        p = sub.add_parser(name, help=f"build the {name} and print it as JSON")
        add_file(p)
        p.add_argument("--dot", help="also write DOT to this path")
        p.set_defaults(func=cmd_structure)

    p = sub.add_parser("check", help="decide detectability properties")
    p.add_argument("property", choices=["sd", "spd", "wd", "wpd", "all"])
    add_file(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("estimate", help="current-state estimate for an observation")
    add_file(p)
    p.add_argument("--obs", required=True,
                   help='accumulated observation, e.g. "(rho,1);(rho,3)"')
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("gen", help="generate corpus/backing instances")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("subset-sum")
    g.add_argument("--weights", required=True, help="comma-separated positive integers")
    g.add_argument("--target", type=int, required=True)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)
    g = gsub.add_parser("random")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)
    g = gsub.add_parser("fixture")
    g.add_argument("name", choices=corpus.fixture_names())
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("export", help="DOT export of the automaton or a structure")
    add_file(p)
    p.add_argument("--what", choices=["automaton", *_STRUCTURES],
                   default="automaton")
    p.add_argument("--dot", help="output path; stdout when omitted")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (io.ParseError, ValidationError, OSError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:  # InternalError or a bug, a failed precondition included
        print(json.dumps({"error": f"internal error: {exc!r}",
                          "traceback": traceback.format_exc()}), file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
