"""Command-line interface.

    hsmult dual|length|mult|reduce|member|selftest FILE [EXPR] [flags]

One command per process; reports go to stdout (--json for the canonical
machine form, which is byte-identical across runs when --no-timing is set).
The flags may come before, between or after FILE and EXPR.
Exit codes: 0 success, 2 parse/validation (including ValueError from input
checks), 3 resource caps, 4 search exhausted, 5 engine fault: a broken
invariant (InternalInconsistency, UnexpectedNullity), arithmetic that should
not fail (ArithmeticError, ZeroDivisionError, DenominatorVanishes),
RingMismatch / ZeroElement, or any other exception (a bug), printed with its
class.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .errors import (
    CapExceeded,
    DenominatorVanishes,
    HsmultError,
    InternalInconsistency,
    NonUnitDenominator,
    NotStabilized,
    NotZeroDimensional,
    ParseError,
    RingMismatch,
    SearchExhausted,
    UnexpectedNullity,
    ZeroElement,
)
from .instance import (
    checked_caps,
    instance_to_jsonable,
    parse_instance,
    parse_member_expression,
)
from .matlis import compute_dual_basis
from .modp import ModpStats
from .orders import MonomialOrder
from .reduction import (
    _shared,
    find_reduction,
    generator_to_str,
    membership,
    multiplicity,
)

REPORT_SCHEMA = "hsmult-report/1"

COMMANDS = ("dual", "length", "mult", "reduce", "member", "selftest")


def run_command(command, inst, options, member_expr=None):
    """Execute one command; returns the result payload and engine stats.

    The caps ride on inst; of the options only search_bound is read here.
    A dim that contradicts the quotient ideal raises ValueError from
    multiplicity (mult, reduce, member); length and dual ignore dim.
    """
    if command in ("dual", "length"):
        stats = ModpStats()
        gens = list(inst.j_gens) + list(inst.i_gens)
        dual = compute_dual_basis(gens, inst.order, inst.caps, stats=stats)
        result = {"length": dual.length, "t1_size": len(dual.t1_points),
                  "xi_count": len(dual.elements)}
        if command == "dual":
            result["basis"] = [
                [[list(e), c] for e, c in eta.to_pairs(inst.order)]
                for eta in dual.basis()
            ]
        return result, stats
    if command == "mult":
        res = multiplicity(inst, use_cache=False)
        return _mult_payload(res), res.modp_stats
    if command == "reduce":
        res = multiplicity(inst, use_cache=False)
        cert = find_reduction(res, bound=options["search_bound"])
        payload = _mult_payload(res)
        payload["reduction"] = {
            "a": _shared(
                tuple(
                    _shared(tuple(sys.intern(inst.base.to_str(v)) for v in row))
                    for row in cert.a
                )
            ),
            "mode": cert.mode,
            "generators": _shared(
                tuple(
                    sys.intern(generator_to_str(g, inst.var_names))
                    for g in cert.generators
                )
            ),
        }
        return payload, res.modp_stats
    if command == "member":
        h = parse_member_expression(member_expr, inst)
        res = membership(inst, h)
        # reports are kept by long-running callers, which ask about the same
        # elements again, so the element string is interned
        payload = {
            "element": sys.intern(h.to_str(inst.var_names)),
            "e": res.e,
            "member": res.member,
            "decided_by": res.decided_by,
        }
        if res.decided_by == "point-length":
            payload["point_length"] = res.point_length
        elif res.decided_by == "multiplicity":
            payload["e_extended"] = res.e_extended
        return payload, res.modp_stats
    raise ValueError(f"unknown command {command!r}")


def _mult_payload(res):
    """The mult report.  Reports are kept by long-running callers and repeat
    across requests, so their strings are interned and their sequences are
    shared tuples (``reduction._shared``), as the MatList grids are."""
    return {
        "e": res.e,
        "t1_size": res.t1_size,
        "xi_count": res.xi_count,
        "params": res.params,
        "polylist": _shared(tuple(map(sys.intern, res.polylist_strings()))),
        "matlist": res.matlist_grids(),
    }


def run_selftest(seed=20240811):
    """Oracle-equivalence suites on randomly generated m-primary monomial ideals."""
    import random

    from fractions import Fraction

    from .oracles import (
        INFINITE,
        monomial_length,
        monomial_multiplicity_fit,
        vector_space_length,
    )
    from .poly import SparsePoly
    from .reduction import ProblemInstance
    from .scalars import QQ

    rng = random.Random(seed)
    order = MonomialOrder("glex")
    suites = []

    length_cases = 0
    fit_cases = 0
    ok = True
    for _ in range(200):
        if length_cases >= 40 and fit_cases >= 10:
            break
        n = rng.choice([1, 2, 2, 3, 3])
        gens = {
            tuple(b if i == j else 0 for j in range(n))
            for i, b in enumerate(rng.randint(1, 5) for _ in range(n))
        }
        for _ in range(rng.randint(0, 3)):
            gens.add(tuple(rng.randint(0, 4) for _ in range(n)))
        gens = {g for g in gens if any(g)}
        expected = monomial_length(gens)
        if expected is INFINITE or expected > 40:
            continue
        polys = [SparsePoly.monomial(QQ, g) for g in sorted(gens)]
        got = compute_dual_basis(polys, order).length
        ok = ok and got == expected
        length_cases += 1
        if fit_cases < 10:
            try:
                e_fit = monomial_multiplicity_fit(sorted(gens), n)
            except HsmultError:
                continue
            if e_fit > 30:
                continue
            inst = ProblemInstance(
                base=QQ,
                nvars=n,
                var_names=tuple(f"x{i}" for i in range(n)),
                i_gens=(),
                j_gens=tuple(polys),
                d=n,
                order=order,
            )
            e = multiplicity(inst, use_cache=False).e
            ok = ok and e == e_fit
            fit_cases += 1
    suites.append({"name": "monomial-length-vs-engine", "cases": length_cases, "ok": ok})
    suites.append({"name": "multiplicity-vs-power-fit", "cases": fit_cases, "ok": ok})

    def P(d, n):
        return SparsePoly(QQ, n, {e: Fraction(c) for e, c in d.items()})

    vsl_ok = True
    fixtures = [
        ([P({(3, 0): 1, (1, 1): 1}, 2), P({(0, 2): 1, (1, 1): 1}, 2)], 5),
        ([P({(3, 0): 1, (1, 1): 1}, 2), P({(0, 2): 1}, 2)], 6),
        ([P({(1, 0): 1}, 2), P({(0, 1): 1}, 2)], 1),
    ]
    for gens, expected in fixtures:
        vsl_ok = vsl_ok and vector_space_length(gens) == expected
        vsl_ok = vsl_ok and compute_dual_basis(gens, order).length == expected
    suites.append({"name": "vector-space-length-vs-engine", "cases": len(fixtures), "ok": vsl_ok})

    return {"suites": suites, "ok": all(s["ok"] for s in suites)}


def _apply_flag_overrides(inst, options, args):
    if args.order:
        inst = dataclasses.replace(
            inst, order=MonomialOrder(args.order, tuple(range(inst.nvars)))
        )
    for key in ("max_terms", "max_degree", "search_bound"):
        value = getattr(args, key)
        if value is not None:
            options[key] = value
    return dataclasses.replace(inst, caps=checked_caps(options)), options


def _human_lines(command, result):
    lines = []
    if command in ("dual", "length"):
        lines.append(f"length = {result['length']}")
        lines.append(
            f"staircase terms = {result['t1_size']}, extra elements = {result['xi_count']}"
        )
        if command == "dual":
            for k, eta in enumerate(result["basis"]):
                body = " + ".join(f"({c})*1/x^{tuple(x+1 for x in e)}" for e, c in eta)
                lines.append(f"basis[{k}] = {body}")
    elif command in ("mult", "reduce"):
        lines.append(f"e = {result['e']}")
        lines.append(
            f"split: {result['t1_size']} staircase terms + {result['xi_count']} elements"
        )
        lines.append(f"PolyList = {list(result['polylist'])}")
        lines.append(f"MatList: {len(result['matlist'])} matrices")
        if "reduction" in result:
            lines.append(f"reduction a = {list(map(list, result['reduction']['a']))}")
            lines.append(f"reduction generators = {list(result['reduction']['generators'])}")
            lines.append(f"mode = {result['reduction']['mode']}")
    elif command == "member":
        if result["decided_by"] == "in-ideal":
            evidence = f"e = {result['e']}; it lies in the ideal"
        elif result["decided_by"] == "point-length":
            evidence = f"e = {result['e']}; colength {result['point_length']} at a point"
        else:
            evidence = f"e = {result['e']} vs {result['e_extended']}"
        lines.append(
            f"{result['element']} is{'' if result['member'] else ' not'} "
            f"in the integral closure ({evidence})"
        )
    elif command == "selftest":
        for suite in result["suites"]:
            lines.append(
                f"{'PASS' if suite['ok'] else 'FAIL'} {suite['name']} ({suite['cases']} cases)"
            )
        lines.append("all suites passed" if result["ok"] else "SELFTEST FAILED")
    return lines


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="hsmult",
        description="Hilbert-Samuel multiplicities, reductions, and integral closure membership",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", nargs="?", help="instance file (JSON or text)")
    parser.add_argument("expr", nargs="?", help="element expression (member command)")
    parser.add_argument("--order", choices=("glex", "grevlex", "lex"))
    parser.add_argument("--max-terms", type=int, dest="max_terms")
    parser.add_argument("--max-degree", type=int, dest="max_degree")
    parser.add_argument("--search-bound", type=int, dest="search_bound")
    parser.add_argument("--no-timing", action="store_true")
    parser.add_argument("--json", action="store_true")
    return parser


EXIT_PARSE = 2
EXIT_CAPS = 3
EXIT_SEARCH = 4
EXIT_INTERNAL = 5


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_intermixed_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "selftest":
            report_input = None
            result = run_selftest()
            stats = None
        else:
            if not args.file:
                parser.error(f"command {args.command!r} requires an instance file")
            if args.command == "member" and not args.expr:
                parser.error("command 'member' requires an element expression")
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
            inst, options = parse_instance(text)
            inst, options = _apply_flag_overrides(inst, options, args)
            report_input = instance_to_jsonable(inst, options)
            result, stats = run_command(args.command, inst, options, args.expr)
    except (ParseError, NonUnitDenominator, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (CapExceeded, NotZeroDimensional, NotStabilized) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAPS
    except SearchExhausted as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEARCH
    except (
        InternalInconsistency,
        UnexpectedNullity,
        ArithmeticError,
        DenominatorVanishes,
        RingMismatch,
        ZeroElement,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed = time.perf_counter() - started
    report = {
        "schema": REPORT_SCHEMA,
        "command": args.command,
        "input": report_input,
        "result": result,
    }
    if stats is not None:
        report["stats"] = stats.as_dict()
    if not args.no_timing:
        report["timing"] = {"seconds": round(elapsed, 6)}
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in _human_lines(args.command, result):
            print(line)
    if args.command == "selftest" and not result["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
