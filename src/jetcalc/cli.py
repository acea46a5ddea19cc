"""Command-line front end: parse a session file, run computations and checks.

Exit codes: 0 when the computation succeeded and every checked residual was
zero, 1 when a checked identity or claim failed, 2 on usage, parse or validation
errors and when stdout cannot be written.  Outside 0/1/2: 141 when the reader
of stdout closes it early (as a shell reports a process killed by SIGPIPE),
and 130 on Ctrl-C; neither prints a traceback.
All numeric output is exact rational text; JSON reports are byte-identical
across runs with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

from . import printing
from .calculus import hessian_form, hessian_operator, jacobi_bracket, jacobi_bracket_coord, linearize
from .dsl import parse
from .identities import IDENTITIES, OPERANDS, anomaly_operators, run_random_suite, trial, verification_report
from .multiindex import MultiIndex, check_order
from .structures import CLAIMS, claim_residual, evaluate_claim_file, nonhomogeneous_diagonal_pair
from .vectorops import VectorOperator


class UsageError(ValueError):
    pass


def _load_session(args):
    if not getattr(args, "session", None):
        raise UsageError("this command needs --session FILE")
    try:
        with open(args.session, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        path = Path(args.session)
        if not path.exists():
            raise UsageError(f"session file {path} does not exist") from None
        raise UsageError(f"cannot read session file {path}: {e}") from None
    return parse(text)


def _named_op(session, name: str) -> VectorOperator:
    if name not in session.operators:
        raise UsageError(f"operator {name!r} is not defined in the session")
    return session.operators[name]


def _render(value, fmt: str) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if not hasattr(value, "to_json"):
        return str(value)
    return printing.latex(value) if fmt == "latex" else printing.text(value)


def _emit(args, head: dict, rows: list, ok: bool = True) -> int:
    """Print one result and return its exit code: 0 if ok, else 1.

    JSON is head followed by the rows; text and LaTeX print one
    "label: value" line per row.  A row is (JSON key, text label, value), and
    a None key or label leaves the row out of that output.
    """
    if args.format == "json":
        doc = dict(head)
        for key, _, value in rows:
            if key is not None:
                doc[key] = value.to_json() if hasattr(value, "to_json") else value
        print(printing.json_text(doc))
    else:
        for _, label, value in rows:
            if label is not None:
                print(f"{label}: {_render(value, args.format)}")
    return 0 if ok else 1


# -- command handlers ----------------------------------------------------------


def _cmd_linearize(args) -> int:
    session = _load_session(args)
    rows = [("linearization", "linearization", linearize(_named_op(session, args.op)))]
    return _emit(args, {"command": "linearize", "op": args.op}, rows)


def _cmd_bracket(args) -> int:
    session = _load_session(args)
    f = _named_op(session, args.left)
    g = _named_op(session, args.right)
    via_lin = jacobi_bracket(f, g)
    via_coord = jacobi_bracket_coord(f, g)
    agree = via_lin == via_coord
    if f.rank == 1 and args.format != "json":  # text and LaTeX print a scalar bracket bare
        via_lin, via_coord = via_lin[0], via_coord[0]
    rows = [
        ("bracket", "bracket", via_lin),
        ("coordinate", "coordinate", via_coord),
        ("agree", "agree", agree),
    ]
    return _emit(args, {"command": "bracket", "left": args.left, "right": args.right}, rows, agree)


def _cmd_hessian(args) -> int:
    session = _load_session(args)
    f = _named_op(session, args.f)
    g = _named_op(session, args.g)
    rows = [("operator", "operator", hessian_operator(f, g))]
    if args.h:
        form = hessian_form(f, g, _named_op(session, args.h))
        rows += [("h", None, args.h), ("form", "form", form)]
    return _emit(args, {"command": "hessian", "f": args.f, "g": args.g}, rows)


def _cmd_anomaly(args) -> int:
    session = _load_session(args)
    lhs, rhs = anomaly_operators(_named_op(session, args.f), _named_op(session, args.g))
    equal = lhs == rhs
    rows = [
        ("commutator_minus_linearized_bracket", "commutator minus linearized bracket", lhs),
        ("hessian_difference", "hessian difference", rhs),
        ("equal", "equal", equal),
    ]
    return _emit(args, {"command": "anomaly", "f": args.f, "g": args.g}, rows, equal)


def _option_input(args, name: str, r: int):
    """A verify input read from its option: --probe-order as given, the 1-based
    --fiber as a 0-based index of r fibers, --zeta or --tau as a multi-index."""
    if name == "probe_order":
        return args.probe_order
    if name == "fiber":
        if not 1 <= args.fiber <= r:
            raise UsageError(f"--fiber {args.fiber} is out of range 1..{r}")
        return args.fiber - 1
    text = getattr(args, name)
    try:
        index = MultiIndex(tuple(int(s) for s in text.split(",")))
        check_order(index.order, "order")
    except ValueError as e:
        raise UsageError(f"bad --{name} {text!r}: {e}") from None
    return index


def _verify_explicit(args) -> dict:
    session = _load_session(args)
    identity, names = args.identity, args.operands
    inputs = IDENTITIES[identity][1]
    operands = [key for key in inputs if key in OPERANDS]
    if len(names) != len(operands):
        raise UsageError(f"verify {identity} needs {len(operands)} operand names, got {len(names)}")
    ops = {key: _named_op(session, n) for key, n in zip(operands, names)}
    indices = [key for key in inputs if key in ("zeta", "tau")]
    if any(getattr(args, key) is None for key in indices):
        raise UsageError(f"verify {identity} needs {' and '.join('--' + key for key in indices)}")
    values = {key: ops[key] if key in ops else _option_input(args, key, session.bundle.r) for key in inputs}
    if "e" in values:  # an expression: the named operator's first component
        values["e"] = values["e"][0]
    record = trial(identity, values)[1]
    return verification_report(identity, 1, None, [record] if record else [])


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
    failed = {f["trial"] for f in report["failures"]}
    rows = [
        (None, "identity", report["identity"]),
        (None, "seed", report["seed"]),
        *((None, f"trial {k}", "FAIL" if k in failed else "pass") for k in range(report["trials"])),
        (None, "trials", report["trials"]),
        (None, "failures", len(report["failures"])),
        (None, "holds", report["holds"]),
    ]
    return _emit(args, report, rows, report["holds"])


def _cmd_check(args) -> int:
    """check-symmetry and check-aux: every claim of one kind in a fixtures
    file, or one claim built from named session operators."""
    kind = args.command.removeprefix("check-")
    if args.fixtures:
        return _run_fixtures(args, kind)
    claim_type, _, fields = CLAIMS[kind]
    names = [getattr(args, field) for field in fields]
    if not all(names):
        flags = [f"--{field}" for field in fields]
        raise UsageError(f"{args.command} needs {', '.join(flags[:-1])} and {flags[-1]} (or --fixtures)")
    session = _load_session(args)
    res = claim_residual(kind, claim_type(*(_named_op(session, n) for n in names)))
    if kind == "symmetry":
        rows = [
            ("bracket_form", "bracket form", res.value),
            ("module_form", "module form", res.context["module_form"]),
        ]
    else:
        ctx = res.context
        rows = [
            ("residual", "residual", res.value),
            (None, "order(mu)", f"{ctx['order_mu']}, order(f): {ctx['order_f']}"),
            *((key, None, ctx[key]) for key in ("order_mu", "order_f", "scalar_order_ok")),
        ]
    return _emit(args, {"command": args.command}, [*rows, ("holds", "holds", res.holds)], res.holds)


def _run_fixtures(args, kind: str) -> int:
    path = Path(args.fixtures)
    if not path.exists():
        raise UsageError(f"fixtures file {path} does not exist")
    try:
        report = evaluate_claim_file(path, kind=kind)
    except (KeyError, OSError, ValueError, json.JSONDecodeError) as e:
        raise UsageError(f"bad fixtures file {path}: {e}") from None
    rows = []
    for claim in report["claims"]:
        got = "zero" if claim["holds"] else "nonzero"
        verdict = "match" if claim["matches"] else "MISMATCH"
        outcome = f"expect {claim['expect']}, got {got}: {verdict}"
        rows.append((None, f"claim {claim['name']} ({claim['kind']})", outcome))
    rows.append((None, "all match", report["all_match"]))
    return _emit(args, report, rows, report["all_match"])


def _cmd_section4(args) -> int:
    ex = nonhomogeneous_diagonal_pair()
    note = (
        "the free-term-stripped parts commute, but the constant free terms make "
        "the full bracket nonzero; the pair passes the symmetry test only if the "
        "free terms are ignored"
    )
    rows = [
        ("f", "f", ex.f),
        ("g", "g", ex.g),
        ("linearization_f", "linearization of f", linearize(ex.f)),
        ("full_bracket", "full bracket", ex.full_bracket),
        ("full_bracket_coordinate", "full bracket (coordinate formula)", ex.full_bracket_coord),
        ("linear_part_bracket", "linear-part bracket", ex.linear_part_bracket),
        ("note", "note", note),
    ]
    return _emit(args, {"command": "section4"}, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcalc",
        description="Exact symbolic calculus on jet spaces: brackets, linearizations, Hessians and identity checks.",
        # A fixed metavar and help column give the same --help on 3.10-3.13;
        # 3.13's argparse wraps the usage line and sets the help column anew.
        formatter_class=lambda prog: argparse.HelpFormatter(prog, max_help_position=18),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--session", help="session file declaring variables and operators")
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        p.set_defaults(func=func)
        return p

    p = command("linearize", _cmd_linearize, "universal linearization of a named operator")
    p.add_argument("--op", required=True)

    p = command("bracket", _cmd_bracket, "Jacobi bracket, both implementations")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = command("hessian", _cmd_hessian, "Hessian operator (and trilinear form with --h)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h")

    p = command("anomaly", _cmd_anomaly, "both sides of the linearization-anomaly identity")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = command("verify", _cmd_verify, "verify an identity on random or named operands")
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

    for kind, help in (("symmetry", "symmetry claim residual"), ("aux", "auxiliary-integral claim residual")):
        p = command(f"check-{kind}", _cmd_check, help)
        claim_type, _, fields = CLAIMS[kind]
        for field, attr in zip(fields, claim_type._fields):  # --lambda's metavar is LAM
            p.add_argument(f"--{field}", metavar=attr.upper())
        p.add_argument("--fixtures", help=f"claims file; checks every {kind} claim in it")

    command("section4", _cmd_section4, "the non-homogeneous diagonal pair example")

    parser.commands = sub.choices  # command name -> its parser, see _parse_args
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one instance serves every call
    # of main in a process; build_parser stays public and returns a fresh one.
    return build_parser()


def _parse_args(argv: list) -> argparse.Namespace:
    """The arguments of argv, as the full parser's parse_args gives them.

    After a command name the command's own parser reads the rest, the way the
    full parser hands it over, so the arguments are sorted once, not twice.
    Any other argv goes through the full parser.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one jetcalc command and return its exit code: 0, 1 or 2 as in the
    module docstring, 141 when the reader of stdout has closed it, 130 on
    Ctrl-C.

    Safe to call repeatedly in one process: the argument parser is built on
    the first call and reused afterwards.
    """
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else list(argv))
            code = args.func(args)
        except SystemExit as e:
            code = int(e.code or 0)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            code = 2
        sys.stdout.flush()  # inside the guard, so a failed write is caught here
        return code
    except OSError as e:
        # The interpreter flushes stdout again at exit; point it at devnull so
        # that flush cannot fail too (see the note on SIGPIPE in the signal docs).
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(e, BrokenPipeError):
            return 141
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
