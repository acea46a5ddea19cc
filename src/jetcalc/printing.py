"""Text, LaTeX and JSON-token printers with stable, pinned ordering.

Terms print highest total degree first, ties broken by the canonical
coordinate order (parameters, base variables, jet coordinates).  Jet
coordinates use the suffix notation u_xxy whenever every base variable
name is a single letter, and the explicit form u[2,1] otherwise; both
forms are accepted back by the DSL parser.
"""

from __future__ import annotations

from typing import NamedTuple

from .expressions import _one_based
from .multiindex import MultiIndex


def _coord_display_key(v):
    return (v.kind, v.index, v.sigma.order, v.sigma)


def display_order(terms) -> list:
    """Monomials in print order: total degree descending, then by coordinate
    rank with higher derivative order first, so derivatives lead and
    constants trail."""

    def key(mono):
        return (
            sum(k for _, k in mono),
            tuple((_coord_display_key(v), k) for v, k in mono),
        )

    return sorted(terms, key=key, reverse=True)


def coord_token(bundle, v) -> str:
    """Positional token used in JSON documents."""
    from .expressions import BASE, PARAM

    if v.kind == PARAM:
        return bundle.params[v.index]
    if v.kind == BASE:
        return f"x[{v.index + 1}]"
    return f"p[{v.index + 1}]^(" + ",".join(str(e) for e in v.sigma) + ")"


def parse_coord_token(bundle, token: str):
    """Inverse of coord_token."""

    def number(text: str) -> int:
        # int() alone would also take signs, spaces and underscores.
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"coordinate token {token!r} has index {text!r}, not a string of digits")
        return int(text)

    if token.startswith("x[") and token.endswith("]"):
        return bundle.base_coord(_one_based(number(token[2:-1]), bundle.n, f"index of {token!r}"))
    if token.startswith("p[") and "]^(" in token and token.endswith(")"):
        head, tail = token.split("]^(", 1)
        j = _one_based(number(head[2:]), bundle.r, f"index of {token!r}")
        body = tail[:-1]
        entries = tuple(number(s) for s in body.split(",")) if body else ()
        if len(entries) != bundle.n:
            raise ValueError(f"coordinate token {token!r} has {len(entries)} multi-index entries, not {bundle.n}")
        return bundle.jet_coord(j, MultiIndex(entries))
    if token in bundle.params:
        return bundle.param_coord(token)
    raise ValueError(f"unrecognized coordinate token {token!r}")


class Style(NamedTuple):
    """The notation of one output format; TEXT and LATEX are the only two."""

    times: str  # between the factors of a term
    power: str  # exponent, %-formatted with the power
    fraction: str  # non-integral coefficient, %-formatted with (num, den)
    long_name: str  # multi-letter base or parameter name
    suffix: tuple  # subscript of letters, as in u_xxy
    bracket: tuple  # subscript of entries, as in u[2,1]
    derivative: str  # total-derivative symbol
    group: tuple  # parentheses around a multi-term coefficient
    vector: tuple  # (open, separator, close) of a column of entries
    row: tuple  # (open, separator, close) of one matrix row


TEXT = Style(
    times="*",
    power="^%d",
    fraction="%d/%d",
    long_name="%s",
    suffix=("_", ""),
    bracket=("[", "]"),
    derivative="D",
    group=("(", ")"),
    vector=("[", ", ", "]"),
    row=("[", ", ", "]"),
)

LATEX = Style(
    times=r"\,",
    power="^{%d}",
    fraction=r"\tfrac{%d}{%d}",
    long_name=r"\mathit{%s}",
    suffix=("_{", "}"),
    bracket=("_{(", ")}"),
    derivative=r"\mathcal{D}",
    group=(r"\left(", r"\right)"),
    vector=(r"\begin{pmatrix}", r" \\ ", r"\end{pmatrix}"),
    row=("", " & ", ""),
)


def _subscript(style: Style, bundle, sigma: MultiIndex) -> str:
    """Letter suffix when every base name is one letter, entry list otherwise."""
    if all(len(name) == 1 for name in bundle.base):
        opening, closing = style.suffix
        return opening + "".join(bundle.base[i] * e for i, e in enumerate(sigma)) + closing
    opening, closing = style.bracket
    return opening + ",".join(str(e) for e in sigma) + closing


def coord_name(style: Style, bundle, v) -> str:
    """Display name of one coordinate."""
    from .expressions import JET, PARAM

    if v.kind == JET:
        name = bundle.fiber[v.index]
        return name if v.sigma.order == 0 else name + _subscript(style, bundle, v.sigma)
    name = bundle.params[v.index] if v.kind == PARAM else bundle.base[v.index]
    return name if len(name) == 1 else style.long_name % name


def _term(style: Style, bundle, mono: tuple, coeff):
    """(sign, body) for one monomial term."""
    neg = coeff < 0
    mag = -coeff if neg else coeff
    parts = []
    if not mono or mag != 1:
        frac = (mag.numerator, mag.denominator)
        parts.append(str(mag) if mag.denominator == 1 else style.fraction % frac)
    for v, k in mono:
        name = coord_name(style, bundle, v)
        parts.append(name if k == 1 else name + style.power % k)
    return neg, style.times.join(parts)


def _signed_sum(terms) -> str:
    """Join (sign, body) pairs: a leading minus, then " + " or " - "."""
    chunks = []
    for neg, body in terms:
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append((" - " if neg else " + ") + body)
    return "".join(chunks)


def _poly(style: Style, e) -> str:
    if e.is_zero():
        return "0"
    terms = e.terms
    return _signed_sum(_term(style, e.bundle, m, terms[m]) for m in display_order(terms))


def _join(brackets: tuple, entries) -> str:
    opening, sep, closing = brackets
    return opening + sep.join(entries) + closing


def _vector(style: Style, v) -> str:
    return _join(style.vector, (_poly(style, c) for c in v.components))


def _cdiff_entry(style: Style, bundle, terms: dict) -> str:
    if not terms:
        return "0"
    pieces = []
    for sigma in sorted(terms, key=lambda s: (s.order, s), reverse=True):
        coeff = terms[sigma]
        coeff_terms = coeff.terms
        if len(coeff_terms) == 1:
            ((mono, c),) = coeff_terms.items()
            neg, body = _term(style, bundle, mono, c)
        else:
            neg, body = False, style.group[0] + _poly(style, coeff) + style.group[1]
        if sigma.order:
            dword = style.derivative + _subscript(style, bundle, sigma)
            body = dword if body == "1" else body + style.times + dword
        pieces.append((neg, body))
    return _signed_sum(pieces)


def _cdiff(style: Style, op) -> str:
    if op.rows == 1 and op.cols == 1:
        return _cdiff_entry(style, op.bundle, op.entry(0, 0))
    rows = (
        _join(style.row, (_cdiff_entry(style, op.bundle, op.entry(i, j)) for j in range(op.cols)))
        for i in range(op.rows)
    )
    return _join(style.vector, rows)


def poly_text(e) -> str:
    return _poly(TEXT, e)


def vector_text(v) -> str:
    return _vector(TEXT, v)


def cdiff_text(op) -> str:
    return _cdiff(TEXT, op)


def _printer(obj, printers: tuple, what: str):
    """The one of printers (for a PolyExpr, VectorOperator, CDiffOperator) that fits obj."""
    from .expressions import PolyExpr
    from .operators import CDiffOperator
    from .vectorops import VectorOperator

    for cls, printer in zip((PolyExpr, VectorOperator, CDiffOperator), printers):
        if isinstance(obj, cls):
            return printer
    raise TypeError(f"cannot render {type(obj).__name__} as {what}")


def text(obj) -> str:
    """Text form of a PolyExpr, VectorOperator or CDiffOperator."""
    return _printer(obj, (poly_text, vector_text, cdiff_text), "text")(obj)


def latex(obj) -> str:
    """LaTeX form of a PolyExpr, VectorOperator or CDiffOperator."""
    return _printer(obj, (_poly, _vector, _cdiff), "LaTeX")(LATEX, obj)
