"""Text, LaTeX and JSON-token printers with stable, pinned ordering.

Terms print highest total degree first, ties broken by the canonical
coordinate order (parameters, base variables, jet coordinates).  Jet
coordinates use the suffix notation u_xxy whenever every base variable
name is a single letter, and the explicit form u[2,1] otherwise; both
forms are accepted back by the DSL parser.

Every printer reads the id-form terms (PolyExpr._terms) through print_order.
Each id's display key is computed once per process, and each coordinate's
name once per (style, bundle) in a table keyed on the bundle: ids are global
to the process, names belong to a bundle.  json_text writes the reports.
"""

from __future__ import annotations

import functools
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .expressions import _COORDS, BASE, JET, PARAM, PolyExpr, _one_based
from .multiindex import MultiIndex
from .operators import CDiffOperator
from .vectorops import VectorOperator


class _Table(dict):
    """id -> fill(coordinate of the id), computed on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, v: int):
        got = self[v] = self.fill(_COORDS[v])
        return got


# Display key of each id: its coordinate's rank with higher derivative order first.
_DISPLAY_KEY = _Table(lambda c: (c.kind, c.index, c.sigma.order, c.sigma))


def print_order(e) -> list:
    """(pairs, coeff) of each term of e in print order: total degree
    descending, then by coordinate rank with higher derivative order first,
    so derivatives lead and constants trail.  pairs are the monomial's
    (id, power) in coordinate order."""
    key = _DISPLAY_KEY
    rows = []
    for mono, c in e._terms.items():
        pairs = [(v, mono.count(v)) for v in sorted(set(mono), key=_COORDS.__getitem__)]
        rows.append(((len(mono), tuple([(key[v], k) for v, k in pairs])), pairs, c))
    rows.sort(reverse=True)  # distinct monomials have distinct keys: pairs are never compared
    return [(pairs, c) for _, pairs, c in rows]


@functools.lru_cache(maxsize=256)
def name_table(style, bundle) -> _Table:
    """id -> name of bundle's coordinates in style, or their JSON token when
    style is None, filled through coord_name or coord_token."""
    if style is None:
        return _Table(functools.partial(coord_token, bundle))
    return _Table(functools.partial(coord_name, style, bundle))


def coord_token(bundle, v) -> str:
    """Positional token used in JSON documents."""
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
    if v.kind == JET:
        name = bundle.fiber[v.index]
        return name if v.sigma.order == 0 else name + _subscript(style, bundle, v.sigma)
    name = bundle.params[v.index] if v.kind == PARAM else bundle.base[v.index]
    return name if len(name) == 1 else style.long_name % name


def _term(style: Style, names: dict, pairs: list, coeff):
    """(sign, body) for one monomial term; names maps ids to names."""
    neg = coeff < 0
    mag = -coeff if neg else coeff
    parts = []
    if not pairs or mag != 1:
        frac = (mag.numerator, mag.denominator)
        parts.append(str(mag) if mag.denominator == 1 else style.fraction % frac)
    for v, k in pairs:
        name = names[v]
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
    if not e._terms:
        return "0"
    table = name_table(style, e.bundle)
    return _signed_sum(_term(style, table, pairs, c) for pairs, c in print_order(e))


def _join(brackets: tuple, entries) -> str:
    opening, sep, closing = brackets
    return opening + sep.join(entries) + closing


def _vector(style: Style, v) -> str:
    return _join(style.vector, (_poly(style, c) for c in v.components))


def _cdiff_entry(style: Style, bundle, terms: dict) -> str:
    if not terms:
        return "0"
    table = name_table(style, bundle)
    pieces = []
    for sigma in sorted(terms, key=lambda s: (s.order, s), reverse=True):
        coeff = terms[sigma]
        if len(coeff._terms) == 1:
            ((pairs, c),) = print_order(coeff)
            neg, body = _term(style, table, pairs, c)
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


def json_text(doc, indent: str = "\n") -> str:
    """json.dumps(doc, indent=2), byte for byte, for a document of dicts with
    str keys, lists, tuples, str, int, bool and None.  A float or any other
    type raises TypeError: exact output never holds a float."""
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    inner = indent + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = (inner + encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in doc.items())
        return "{" + ",".join(items) + indent + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        return "[" + ",".join(inner + json_text(v, inner) for v in doc) + indent + "]"
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
