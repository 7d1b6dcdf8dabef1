"""Command-line surface.

Exit codes: 0 = universal/true/solvable, 1 = negative verdict,
2 = input error, 3 = internal inconsistency (failed re-verification).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import classify as classify_mod
from . import groups, lattice, psl2, words
from .residue import NotCoprimeError, as_unit

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_INCONSISTENT = 3


class CliError(Exception):
    pass


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def _perm_str(perm) -> str:
    return "(" + " ".join(str(x + 1) for x in perm) + ")"


def cmd_classify(args) -> int:
    if args.honda:
        if args.l is not None:
            raise CliError("--l is not accepted with --honda")
        verdict = classify_mod.classify_honda(args.k, args.m, args.r)
        inputs = {"k": args.k, "m": args.m, "r": args.r}
        command = "classify --honda"
    else:
        if args.l is None:
            raise CliError("--l is required without --honda")
        verdict = classify_mod.classify_burnside(args.k, args.l, args.m, args.r)
        inputs = {"k": args.k, "l": args.l, "m": args.m, "r": args.r}
        command = "classify"
    report = {
        "command": command,
        **inputs,
        "universal": verdict.universal,
        "reason": verdict.reason.value,
    }
    _emit(report, args.format)
    return EXIT_TRUE if verdict.universal else EXIT_FALSE


def cmd_multiplier(args) -> int:
    sig = lattice.TriangleSignature(args.k, args.l, args.m)
    mset = sorted(r.value for r in lattice.multiplier_set(sig))
    report = {
        "command": "multiplier",
        "k": args.k,
        "l": args.l,
        "m": args.m,
        "modulus": sig.lcm,
        "multiplier_set": mset,
    }
    if args.check_theorem:
        from .residue import unit_group

        classified = sorted(
            r.value
            for r in unit_group(sig.lcm)
            if classify_mod.classify_burnside(args.k, args.l, args.m, r).universal
        )
        report["classifier_set"] = classified
        report["agreement"] = classified == mset
        if not report["agreement"]:
            _emit(report, args.format)
            return EXIT_INCONSISTENT
    _emit(report, args.format)
    return EXIT_TRUE


def cmd_witness(args) -> int:
    try:
        real = groups.vondyck(args.k, args.l, args.m)
    except groups.NotFiniteError:
        raise CliError(f"no finite realization for ({args.k},{args.l},{args.m})")
    G = real.group
    rv = as_unit(args.r, math.lcm(args.k, args.l, args.m)).value
    g, h = groups.universal_witness(args.k, args.l, args.m, args.r)
    # re-verify before printing
    A = G.power(real.a_id, rv)
    X = G.power(G.mul(G.inv(real.a_id), real.c_id), rv)
    Cr = G.power(real.c_id, rv)
    lhs = G.mul(A, G.conj(g, X))
    rhs = G.conj(h, Cr)
    if lhs != rhs:
        print("witness failed re-verification", file=sys.stderr)
        return EXIT_INCONSISTENT
    report = {
        "command": "witness",
        "k": args.k,
        "l": args.l,
        "m": args.m,
        "r": rv,
        "group_order": G.order,
        "g": _perm_str(G.perms[g]),
        "h": _perm_str(G.perms[h]),
        "verify_lhs": _perm_str(G.perms[lhs]),
        "verify_rhs": _perm_str(G.perms[rhs]),
        "verified": True,
    }
    _emit(report, args.format)
    return EXIT_TRUE


def cmd_reduce(args) -> int:
    G = groups.load_group(args.group)
    w = words.parse_word(args.word, G)
    report = {
        "command": "reduce",
        "group": args.group,
        "input": args.word,
        "reduced": words.format_word(w),
        "length": len(w),
    }
    _emit(report, args.format)
    return EXIT_TRUE


def cmd_finite_check(args) -> int:
    G = groups.load_group(args.group)
    try:
        ok = groups.burnside_count_check(G, args.s)
    except groups.InvalidSError as exc:
        raise CliError(str(exc))
    report = {
        "command": "finite-check",
        "group": args.group,
        "order": G.order,
        "s": args.s,
        "counts_preserved": ok,
    }
    _emit(report, args.format)
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_orevkov(args) -> int:
    a, b, c = (psl2.Angle.parse(t) for t in args.angles)
    solvable = psl2.orevkov_solvable(a, b, c)
    report = {
        "command": "orevkov",
        "angles": [str(x) for x in (a, b, c)],
        "rep_sum": str(a.rep + b.rep + c.rep),
        "solvable": solvable,
    }
    if args.numeric:
        try:
            conjugator = psl2.numeric_conjugator(a, b, c)
        except psl2.InconclusiveError as exc:
            report["numeric_solvable"] = "inconclusive"
            report["numeric_agrees"] = f"skipped ({exc})"
            report["numeric_conjugator"] = None
        else:
            numeric = conjugator is not None
            report["numeric_solvable"] = numeric
            report["numeric_agrees"] = numeric == solvable
            report["numeric_conjugator"] = conjugator
            if numeric != solvable:
                _emit(report, args.format)
                return EXIT_INCONSISTENT
    _emit(report, args.format)
    return EXIT_TRUE if solvable else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triangle-words",
        description="Exact classification, witness and word tools for "
        "conjugate-power lifting in triangle groups.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("classify", help="universality verdict for (k,l,m,r) or (k,m,r)")
    p.add_argument("--honda", action="store_true")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("multiplier", help="multiplier set of a signature")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--check-theorem", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_multiplier)

    p = sub.add_parser("witness", help="explicit witness in a finite realization")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("reduce", help="normalize a word over a group file")
    p.add_argument("--group", required=True)
    p.add_argument("word")
    add_format(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("finite-check", help="class-product counting identity")
    p.add_argument("--group", required=True)
    p.add_argument("--s", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_finite_check)

    p = sub.add_parser("orevkov", help="solvability of an elliptic class triple")
    p.add_argument("angles", nargs=3, metavar="p/q")
    p.add_argument("--numeric", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_orevkov)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        NotCoprimeError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR
    except groups.InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
