"""Command-line front end: parse a session file, run computations and checks.

Exit codes: 0 when the computation succeeded and every checked residual was
zero, 1 when a checked identity or claim failed, 2 on usage, parse or validation errors.
All numeric output is exact rational text; JSON reports are byte-identical
across runs with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .calculus import (
    hessian_form,
    hessian_operator,
    jacobi_bracket,
    jacobi_bracket_coord,
    linearize,
)
from .dsl import parse
from .expressions import PolyExpr
from .identities import IDENTITIES, check_commutation, run_check, run_random_suite
from .multiindex import MultiIndex, check_order
from .printing import cdiff_text, latex, poly_text, vector_text
from .structures import (
    AuxClaim,
    SymmetryClaim,
    aux_residual,
    evaluate_claim_file,
    nonhomogeneous_diagonal_pair,
    symmetry_residual,
)
from .vectorops import VectorOperator


class UsageError(ValueError):
    pass


def _load_session(args):
    if not getattr(args, "session", None):
        raise UsageError("this command needs --session FILE")
    path = Path(args.session)
    if not path.exists():
        raise UsageError(f"session file {path} does not exist")
    return parse(path.read_text())


def _named_op(session, name: str) -> VectorOperator:
    if name not in session.operators:
        raise UsageError(f"operator {name!r} is not defined in the session")
    return session.operators[name]


def _render(obj, fmt: str) -> str:
    if fmt == "latex":
        return latex(obj)
    if isinstance(obj, VectorOperator):
        return vector_text(obj)
    if isinstance(obj, PolyExpr):
        return poly_text(obj)
    return cdiff_text(obj)


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2))


# -- command handlers ----------------------------------------------------------


def _cmd_linearize(args) -> int:
    session = _load_session(args)
    op = _named_op(session, args.op)
    lin = linearize(op)
    if args.format == "json":
        _emit_json({"command": "linearize", "op": args.op, "linearization": lin.to_json()})
    else:
        print(f"linearization: {_render(lin, args.format)}")
    return 0


def _cmd_bracket(args) -> int:
    session = _load_session(args)
    f = _named_op(session, args.left)
    g = _named_op(session, args.right)
    via_lin = jacobi_bracket(f, g)
    via_coord = jacobi_bracket_coord(f, g)
    agree = via_lin == via_coord
    if args.format == "json":
        _emit_json(
            {
                "command": "bracket",
                "left": args.left,
                "right": args.right,
                "bracket": via_lin.to_json(),
                "coordinate": via_coord.to_json(),
                "agree": agree,
            }
        )
    else:
        body = _render(via_lin, args.format) if f.rank > 1 else _render(via_lin[0], args.format)
        coord_body = (
            _render(via_coord, args.format) if f.rank > 1 else _render(via_coord[0], args.format)
        )
        print(f"bracket: {body}")
        print(f"coordinate: {coord_body}")
        print(f"agree: {str(agree).lower()}")
    return 0 if agree else 1


def _cmd_hessian(args) -> int:
    session = _load_session(args)
    f = _named_op(session, args.f)
    g = _named_op(session, args.g)
    op = hessian_operator(f, g)
    doc = {"command": "hessian", "f": args.f, "g": args.g, "operator": op.to_json()}
    lines = [f"operator: {_render(op, args.format)}"]
    if args.h:
        h = _named_op(session, args.h)
        form = hessian_form(f, g, h)
        doc["h"] = args.h
        doc["form"] = form.to_json()
        lines.append(f"form: {_render(form, args.format)}")
    if args.format == "json":
        _emit_json(doc)
    else:
        print("\n".join(lines))
    return 0


def _cmd_anomaly(args) -> int:
    session = _load_session(args)
    f = _named_op(session, args.f)
    g = _named_op(session, args.g)
    lf, lg = linearize(f), linearize(g)
    lhs = lf.commutator(lg) - linearize(jacobi_bracket(f, g))
    rhs = hessian_operator(g, f) - hessian_operator(f, g)
    equal = lhs == rhs
    if args.format == "json":
        _emit_json(
            {
                "command": "anomaly",
                "f": args.f,
                "g": args.g,
                "commutator_minus_linearized_bracket": lhs.to_json(),
                "hessian_difference": rhs.to_json(),
                "equal": equal,
            }
        )
    else:
        print(f"commutator minus linearized bracket: {_render(lhs, args.format)}")
        print(f"hessian difference: {_render(rhs, args.format)}")
        print(f"equal: {str(equal).lower()}")
    return 0 if equal else 1


def _comma_index(text: str, what: str) -> MultiIndex:
    try:
        index = MultiIndex(tuple(int(s) for s in text.split(",")))
        check_order(index.order, "order")
    except ValueError as e:
        raise UsageError(f"bad {what} {text!r}: {e}") from None
    return index


def _verify_explicit(args) -> dict:
    session = _load_session(args)
    names = args.operands
    identity = args.identity
    count = len(IDENTITIES[identity][1])
    if len(names) != count:
        raise UsageError(f"verify {identity} needs {count} operand names, got {len(names)}")
    ops = [_named_op(session, n) for n in names]
    if identity == "commutation-lemma":
        if args.zeta is None or args.tau is None:
            raise UsageError("verify commutation-lemma needs --zeta and --tau")
        zeta = _comma_index(args.zeta, "--zeta")
        tau = _comma_index(args.tau, "--tau")
        res = check_commutation(zeta, tau, args.fiber - 1, ops[0][0])
    else:
        res = run_check(identity, ops, args.probe_order)
    return {
        "identity": identity,
        "trials": 1,
        "seed": None,
        "failures": []
        if res.holds
        else [{"operands": names, "residual": res.value.to_json()}],
        "holds": res.holds,
    }


def _cmd_verify(args) -> int:
    if args.operands:
        report = _verify_explicit(args)
    else:
        report = run_random_suite(
            args.identity,
            trials=args.random,
            seed=args.seed,
            max_jet_order=args.max_order,
            max_degree=args.max_degree,
            probe_order=args.probe_order,
        )
    if args.format == "json":
        _emit_json(report)
    else:
        print(f"identity: {report['identity']}")
        print(f"seed: {report['seed']}")
        failed = {f["trial"] for f in report["failures"] if "trial" in f}
        for k in range(report["trials"]):
            print(f"trial {k}: " + ("FAIL" if k in failed else "pass"))
        print(f"trials: {report['trials']}")
        print(f"failures: {len(report['failures'])}")
        print(f"holds: {str(report['holds']).lower()}")
    return 0 if report["holds"] else 1


def _cmd_check_symmetry(args) -> int:
    if args.fixtures:
        return _run_fixtures(args, kind="symmetry")
    if not (args.f and args.h and args.theta):
        raise UsageError("check-symmetry needs --f, --h and --theta (or --fixtures)")
    session = _load_session(args)
    claim = SymmetryClaim(
        _named_op(session, args.f), _named_op(session, args.h), _named_op(session, args.theta)
    )
    res = symmetry_residual(claim)
    if args.format == "json":
        _emit_json(
            {
                "command": "check-symmetry",
                "bracket_form": res.value.to_json(),
                "module_form": res.context["module_form"].to_json(),
                "holds": res.holds,
            }
        )
    else:
        print(f"bracket form: {_render(res.value, args.format)}")
        print(f"module form: {_render(res.context['module_form'], args.format)}")
        print(f"holds: {str(res.holds).lower()}")
    return 0 if res.holds else 1


def _cmd_check_aux(args) -> int:
    if args.fixtures:
        return _run_fixtures(args, kind="aux")
    if not (args.f and args.g and args.lam and args.mu):
        raise UsageError("check-aux needs --f, --g, --lambda and --mu (or --fixtures)")
    session = _load_session(args)
    claim = AuxClaim(
        _named_op(session, args.f),
        _named_op(session, args.g),
        _named_op(session, args.lam),
        _named_op(session, args.mu),
    )
    res = aux_residual(claim)
    if args.format == "json":
        _emit_json(
            {
                "command": "check-aux",
                "residual": res.value.to_json(),
                "order_mu": res.context["order_mu"],
                "order_f": res.context["order_f"],
                "scalar_order_ok": res.context["scalar_order_ok"],
                "holds": res.holds,
            }
        )
    else:
        print(f"residual: {_render(res.value, args.format)}")
        print(f"order(mu): {res.context['order_mu']}, order(f): {res.context['order_f']}")
        print(f"holds: {str(res.holds).lower()}")
    return 0 if res.holds else 1


def _run_fixtures(args, kind: str) -> int:
    path = Path(args.fixtures)
    if not path.exists():
        raise UsageError(f"fixtures file {path} does not exist")
    try:
        report = evaluate_claim_file(path, kind=kind)
    except (KeyError, ValueError, json.JSONDecodeError) as e:
        raise UsageError(f"bad fixtures file {path}: {e}") from None
    if args.format == "json":
        _emit_json(report)
    else:
        for claim in report["claims"]:
            got = "zero" if claim["holds"] else "nonzero"
            verdict = "match" if claim["matches"] else "MISMATCH"
            print(f"claim {claim['name']} ({claim['kind']}): expect {claim['expect']}, got {got}: {verdict}")
        print(f"all match: {str(report['all_match']).lower()}")
    return 0 if report["all_match"] else 1


def _cmd_section4(args) -> int:
    ex = nonhomogeneous_diagonal_pair()
    note = (
        "the free-term-stripped parts commute, but the constant free terms make "
        "the full bracket nonzero; the pair passes the symmetry test only if the "
        "free terms are ignored"
    )
    if args.format == "json":
        _emit_json(
            {
                "command": "section4",
                "f": ex.f.to_json(),
                "g": ex.g.to_json(),
                "linearization_f": linearize(ex.f).to_json(),
                "full_bracket": ex.full_bracket.to_json(),
                "full_bracket_coordinate": ex.full_bracket_coord.to_json(),
                "linear_part_bracket": ex.linear_part_bracket.to_json(),
                "note": note,
            }
        )
    else:
        fmt = args.format
        print(f"f: {_render(ex.f, fmt)}")
        print(f"g: {_render(ex.g, fmt)}")
        print(f"linearization of f: {_render(linearize(ex.f), fmt)}")
        print(f"full bracket: {_render(ex.full_bracket, fmt)}")
        print(f"full bracket (coordinate formula): {_render(ex.full_bracket_coord, fmt)}")
        print(f"linear-part bracket: {_render(ex.linear_part_bracket, fmt)}")
        print(f"note: {note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcalc",
        description="Exact symbolic calculus on jet spaces: brackets, linearizations, Hessians and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--session", help="session file declaring variables and operators")
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p = sub.add_parser("linearize", help="universal linearization of a named operator")
    common(p)
    p.add_argument("--op", required=True)
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("bracket", help="Jacobi bracket, both implementations")
    common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("hessian", help="Hessian operator (and trilinear form with --h)")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h")
    p.set_defaults(func=_cmd_hessian)

    p = sub.add_parser("anomaly", help="both sides of the linearization-anomaly identity")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_anomaly)

    p = sub.add_parser("verify", help="verify an identity on random or named operands")
    common(p)
    p.add_argument("identity", choices=IDENTITIES)
    p.add_argument("--random", type=int, default=100, metavar="N", help="number of random trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--operands", nargs="+", metavar="NAME", help="named operands instead of random trials")
    p.add_argument("--max-order", type=int, default=2, dest="max_order")
    p.add_argument("--max-degree", type=int, default=2, dest="max_degree")
    p.add_argument("--probe-order", type=int, default=4, dest="probe_order")
    p.add_argument("--zeta", help="multi-index for commutation-lemma, e.g. 1,0")
    p.add_argument("--tau", help="multi-index for commutation-lemma, e.g. 2,0")
    p.add_argument("--fiber", type=int, default=1, help="1-based fiber index for commutation-lemma")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-symmetry", help="symmetry claim residual")
    common(p)
    p.add_argument("--f")
    p.add_argument("--h")
    p.add_argument("--theta")
    p.add_argument("--fixtures", help="claims file; checks every symmetry claim in it")
    p.set_defaults(func=_cmd_check_symmetry)

    p = sub.add_parser("check-aux", help="auxiliary-integral claim residual")
    common(p)
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--mu")
    p.add_argument("--fixtures", help="claims file; checks every aux claim in it")
    p.set_defaults(func=_cmd_check_aux)

    p = sub.add_parser("section4", help="the non-homogeneous diagonal pair example")
    common(p)
    p.set_defaults(func=_cmd_section4)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one instance serves every call
    # of main in a process; build_parser stays public and returns a fresh one.
    return build_parser()


def main(argv=None) -> int:
    """Run one jetcalc command and return its exit code (0, 1 or 2).

    Safe to call repeatedly in one process: the argument parser is built on
    the first call and reused afterwards.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
