"""Symmetry and auxiliary-integral membership residuals.

A symmetry claim asserts that bracketing f with h reproduces the action of
a witness operator theta on f; an auxiliary-integral claim asserts that the
bracket {f, g} splits as linearize(lambda) f + linearize(mu) g.  Both are
verified equationally for user-supplied witnesses and reported as exact
residuals; no search is attempted.  Claims can be batch-loaded from a JSON
fixture file whose expressions are written in the session DSL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .calculus import jacobi_bracket, jacobi_bracket_coord, linearize
from .expressions import Bundle
from .identities import Residual, _residual
from .vectorops import VectorOperator


@dataclass(frozen=True)
class SymmetryClaim:
    f: VectorOperator
    h: VectorOperator
    theta: VectorOperator


@dataclass(frozen=True)
class AuxClaim:
    f: VectorOperator
    g: VectorOperator
    lam: VectorOperator
    mu: VectorOperator


def symmetry_residual(claim: SymmetryClaim) -> Residual:
    """Defect of the symmetry condition, in both of its equivalent forms.

    The bracket form is {f,h} - linearize(theta) f; the module form is
    linearize(f) h - linearize(theta + h) f.  They agree identically because
    linearization is additive in its operator argument; both are reported.
    """
    f, h, theta = claim.f, claim.h, claim.theta
    bracket_form = jacobi_bracket(f, h) - linearize(theta).apply(f)
    module_form = linearize(f).apply(h) - linearize(theta + h).apply(f)
    res = _residual("symmetry", bracket_form, f=f, h=h, theta=theta)
    res.context["module_form"] = module_form
    res.context["forms_agree"] = bracket_form == module_form
    return res


def aux_residual(claim: AuxClaim) -> Residual:
    """Defect of the auxiliary-integral condition {f,g} = l_lambda f + l_mu g.

    For scalar operators the context reports whether order(mu) < order(f),
    the normalization available in rank one; nothing is enforced.
    """
    f, g, lam, mu = claim.f, claim.g, claim.lam, claim.mu
    value = jacobi_bracket(f, g) - linearize(lam).apply(f) - linearize(mu).apply(g)
    res = _residual("aux", value, f=f, g=g, lam=lam, mu=mu)
    res.context["order_mu"] = mu.order
    res.context["order_f"] = f.order
    res.context["scalar_order_ok"] = mu.order < f.order if f.bundle.r == 1 else None
    return res


def graded_additivity_check(
    f: VectorOperator,
    h1: VectorOperator,
    theta1: VectorOperator,
    h2: VectorOperator,
    theta2: VectorOperator,
) -> Residual:
    """The symmetry residual is additive in the (h, theta) pair."""
    combined = symmetry_residual(SymmetryClaim(f, h1 + h2, theta1 + theta2)).value
    first = symmetry_residual(SymmetryClaim(f, h1, theta1)).value
    second = symmetry_residual(SymmetryClaim(f, h2, theta2)).value
    value = combined - first - second
    return _residual("graded-additivity", value, f=f, h1=h1, theta1=theta1, h2=h2, theta2=theta2)


@dataclass(frozen=True)
class DiagonalPairExample:
    """The non-homogeneous constant-coefficient diagonal pair in two base and
    two fiber variables, with its bracket computed by both implementations."""

    f: VectorOperator
    g: VectorOperator
    full_bracket: VectorOperator
    full_bracket_coord: VectorOperator
    linear_part_bracket: VectorOperator


def nonhomogeneous_diagonal_pair() -> DiagonalPairExample:
    """Two diagonal operators with constant free terms.

    The free-term-stripped (homogeneous linear) parts commute exactly, but
    the full bracket is a nonzero constant vector: the bracket sees the free
    terms that linearization discards.
    """
    bundle = Bundle(("x", "y"), ("u", "v"))
    u = lambda sigma: bundle.jet(0, sigma)
    v = lambda sigma: bundle.jet(1, sigma)
    f = VectorOperator(
        [
            u((2, 0)) - u((0, 1)) - 1,
            v((1, 1)) + v((0, 0)),
        ]
    )
    g = VectorOperator(
        [
            u((1, 1)) - u((0, 0)),
            v((0, 2)) - v((1, 0)) + 1,
        ]
    )
    return DiagonalPairExample(
        f=f,
        g=g,
        full_bracket=jacobi_bracket(f, g),
        full_bracket_coord=jacobi_bracket_coord(f, g),
        linear_part_bracket=jacobi_bracket(f.strip_free_terms(), g.strip_free_terms()),
    )


# -- claim fixture files -----------------------------------------------------


def parse_claim(record: dict) -> tuple[str, Union[SymmetryClaim, AuxClaim], str]:
    """Build one claim from its JSON record; returns (name, claim, expect)."""
    from .dsl import parse_expression

    bundle = Bundle.from_json(record["signature"])

    def op(key: str) -> VectorOperator:
        return VectorOperator(parse_expression(s, bundle) for s in record[key])

    kind = record["kind"]
    expect = record["expect"]
    if expect not in ("zero", "nonzero"):
        raise ValueError(f"expect must be 'zero' or 'nonzero', got {expect!r}")
    if kind == "symmetry":
        claim: Union[SymmetryClaim, AuxClaim] = SymmetryClaim(op("f"), op("h"), op("theta"))
    elif kind == "aux":
        claim = AuxClaim(op("f"), op("g"), op("lambda"), op("mu"))
    else:
        raise ValueError(f"unknown claim kind {kind!r}")
    return record.get("name", kind), claim, expect


def evaluate_claim_file(path: Union[str, Path], kind: Optional[str] = None) -> dict:
    """Evaluate every claim in a fixture file against its expect field.

    Returns a report with one entry per claim (residual shown in text form)
    and an all_match verdict; kind restricts to "symmetry" or "aux" claims.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    results = []
    for record in data["claims"]:
        if kind is not None and record["kind"] != kind:
            continue
        name, claim, expect = parse_claim(record)
        res = symmetry_residual(claim) if isinstance(claim, SymmetryClaim) else aux_residual(claim)
        matches = res.holds == (expect == "zero")
        results.append(
            {
                "name": name,
                "kind": record["kind"],
                "expect": expect,
                "holds": res.holds,
                "matches": matches,
                "residual": str(res.value),
            }
        )
    return {"file": str(path), "claims": results, "all_match": all(r["matches"] for r in results)}
