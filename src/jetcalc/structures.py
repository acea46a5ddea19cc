"""Symmetry and auxiliary-integral membership residuals.

A symmetry claim asserts that bracketing f with h reproduces the action of
a witness operator theta on f; an auxiliary-integral claim asserts that the
bracket {f, g} splits as linearize(lambda) f + linearize(mu) g.  Both are
verified equationally for user-supplied witnesses and reported as exact
residuals; no search is attempted.  Claims can be batch-loaded from a JSON
fixture file whose expressions are written in the session DSL.

CLAIMS is the one description of each claim kind's inputs, which the claims
reader and the CLI read.  Residuals are looked up by name at call time, so
rebinding a module attribute (a tracer, a monkeypatch) reaches every caller.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .calculus import jacobi_bracket, jacobi_bracket_coord, linearize
from .expressions import Bundle, _check_type, _field
from .identities import Residual, _residual
from .operators import InputChains
from .vectorops import VectorOperator


class SymmetryClaim(NamedTuple):
    f: VectorOperator
    h: VectorOperator
    theta: VectorOperator


class AuxClaim(NamedTuple):
    f: VectorOperator
    g: VectorOperator
    lam: VectorOperator
    mu: VectorOperator


# Claim kind -> (claim type, name of its residual function in this module,
# its operator fields as claims files and options name them, in field order).
CLAIMS = {
    "symmetry": (SymmetryClaim, "symmetry_residual", ("f", "h", "theta")),
    "aux": (AuxClaim, "aux_residual", ("f", "g", "lambda", "mu")),
}


def claim_residual(kind: str, claim: Union[SymmetryClaim, AuxClaim]) -> Residual:
    """The residual of a claim of the given kind."""
    return globals()[CLAIMS[kind][1]](claim)


def symmetry_residual(claim: SymmetryClaim) -> Residual:
    """Defect of the symmetry condition, in both of its equivalent forms.

    The bracket form is {f,h} - linearize(theta) f; the module form is
    linearize(f) h - linearize(theta + h) f.  They agree identically because
    linearization is additive in its operator argument; both are reported,
    the module form on derivative chains of its own, and holds needs both to
    vanish and agree.
    """
    _check_type(claim, SymmetryClaim, "claim")
    f, h, theta = claim
    _check_type(theta, VectorOperator, "theta")
    chains = InputChains(f=f, h=h)
    bracket_form = jacobi_bracket(f, h, chains) - linearize(theta).apply(f, chains)
    module_form = linearize(f).apply(h) - linearize(theta + h).apply(f)
    res = _residual("symmetry", bracket_form, f=f, h=h, theta=theta)
    res.context["module_form"] = module_form
    res.context["forms_agree"] = forms_agree = bracket_form == module_form
    res.holds = res.holds and forms_agree
    return res


def aux_residual(claim: AuxClaim) -> Residual:
    """Defect of the auxiliary-integral condition {f,g} = l_lambda f + l_mu g.

    For scalar operators the context reports whether order(mu) < order(f),
    the normalization available in rank one; nothing is enforced.
    """
    _check_type(claim, AuxClaim, "claim")
    f, g, lam, mu = claim
    _check_type(lam, VectorOperator, "lam")
    _check_type(mu, VectorOperator, "mu")
    chains = InputChains(f=f, g=g)
    value = jacobi_bracket(f, g, chains) - linearize(lam).apply(f, chains) - linearize(mu).apply(g, chains)
    res = _residual("aux", value, f=f, g=g, lam=lam, mu=mu)
    res.context["order_mu"] = mu.order
    res.context["order_f"] = f.order
    res.context["scalar_order_ok"] = mu.order < f.order if f.bundle.r == 1 else None
    return res


class DiagonalPairExample(NamedTuple):
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

# Deepest nesting of arrays and objects in a claims file.  json's decoder
# recurses once per level, and the depth at which that ends in RecursionError
# differs between Python versions, so the reader checks its own bound first.
MAX_JSON_NESTING = 100
# A string (an unterminated one runs to the end of the text), or one bracket.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|[][{}]')


def _json_depth(text: str) -> int:
    """Deepest nesting of [ and { in a JSON text; brackets inside strings do
    not count."""
    depth = deepest = 0
    for m in _JSON_TOKEN.finditer(text):
        c = m.group()
        if c in ("[", "{"):
            depth += 1
            deepest = max(deepest, depth)
        elif c in ("]", "}"):
            depth -= 1
    return deepest


def _claim_kind(record: dict) -> str:
    kind = _field(record, "kind")
    if not isinstance(kind, str) or kind not in CLAIMS:
        raise ValueError(f"unknown claim kind {kind!r}")
    return kind


def parse_claim(record: dict) -> tuple[str, Union[SymmetryClaim, AuxClaim], str]:
    """Build one claim from its JSON record; returns (name, claim, expect)."""
    from .dsl import parse_expression

    bundle = Bundle.from_json(_field(record, "signature"))
    kind = _claim_kind(record)
    expect = _field(record, "expect")
    if expect not in ("zero", "nonzero"):
        raise ValueError(f"expect must be 'zero' or 'nonzero', got {expect!r}")
    claim_type, _, fields = CLAIMS[kind]
    name = _field(record, "name", str) if "name" in record else kind
    ops = (VectorOperator(parse_expression(s, bundle) for s in _field(record, key, list, str)) for key in fields)
    return name, claim_type(*ops), expect


def evaluate_claim_file(path: Union[str, Path], kind: Optional[str] = None) -> dict:
    """Evaluate every claim in a fixture file against its expect field.

    Returns a report with one entry per claim (residual shown in text form)
    and an all_match verdict; kind restricts to "symmetry" or "aux" claims.
    Unknown kinds and files with no claim to evaluate raise a ValueError.
    """
    text = Path(path).read_text(encoding="utf-8")
    if _json_depth(text) > MAX_JSON_NESTING:
        raise ValueError("JSON nested too deeply")
    data = json.loads(text)
    records = data.get("claims") if isinstance(data, dict) else None
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ValueError("a claims file must be an object whose field 'claims' is a list of objects")
    kinds = [_claim_kind(record) for record in records]
    results = []
    for record, record_kind in zip(records, kinds):
        if kind is not None and record_kind != kind:
            continue
        name, claim, expect = parse_claim(record)
        res = claim_residual(record_kind, claim)
        results.append({"name": name, "kind": record_kind, "expect": expect, "holds": res.holds,
                        "matches": res.holds == (expect == "zero"), "residual": str(res.value)})
    if not results:
        raise ValueError(f"no {kind} claims in the file" if kind else "no claims in the file")
    return {"file": str(path), "claims": results, "all_match": all(r["matches"] for r in results)}
