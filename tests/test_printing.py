import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc import Bundle, CDiffOperator, VectorOperator, hessian_operator, jacobi_bracket, linearize, random_expr
from jetcalc.expressions import _IDS, JET, JetCoordinate
from jetcalc.multiindex import MultiIndex
from jetcalc.printing import (
    LATEX,
    TEXT,
    _join,
    _signed_sum,
    _subscript,
    cdiff_text,
    coord_name,
    coord_token,
    json_text,
    latex,
    parse_coord_token,
    poly_text,
    text,
    vector_text,
)


class TestText:
    def test_running_example_bracket(self, intro_pair):
        b, f, g = intro_pair
        assert poly_text(jacobi_bracket(f, g)[0]) == "2*c*u_x"

    def test_zero_and_constants(self, scalar_bundle):
        b = scalar_bundle
        assert poly_text(b.zero()) == "0"
        assert poly_text(b.const(Fraction(-3, 2))) == "-3/2"

    def test_term_order_derivatives_first(self, plane_bundle):
        b = plane_bundle
        e = b.jet(1, (0, 2)) - b.jet(1, (1, 0)) + 1
        assert poly_text(e) == "v_yy - v_x + 1"

    def test_powers_and_coefficients(self, scalar_bundle):
        b = scalar_bundle
        p, u = b.jet(0, (1,)), b.fiber_var(0)
        assert poly_text(p**2 - u) == "u_x^2 - u"
        assert poly_text((u * p).scale(Fraction(1, 2))) == "1/2*u*u_x"

    def test_vector(self, plane_bundle):
        b = plane_bundle
        v = VectorOperator([b.const(-1), b.const(1)])
        assert vector_text(v) == "[-1, 1]"

    def test_cdiff_scalar(self, intro_pair):
        b, f, g = intro_pair
        assert cdiff_text(linearize(f)) == "2*u_x*D_x"
        assert cdiff_text(linearize(g)) == "D_x"
        assert cdiff_text(CDiffOperator(b, 1, 1)) == "0"
        assert cdiff_text(CDiffOperator(b, 1, 1, {(0, 0): {(0,): 1}})) == "1"

    def test_cdiff_multi_term_coefficient(self, scalar_bundle):
        b = scalar_bundle
        coeff = 2 * b.jet(0, (2,)) + 2 * b.param("c")
        op = CDiffOperator(b, 1, 1, {(0, 0): {(1,): coeff}})
        assert cdiff_text(op) == "(2*u_xx + 2*c)*D_x"

    def test_cdiff_matrix(self):
        ex_bundle = Bundle(("x", "y"), ("u", "v"))
        one = ex_bundle.one()
        op = CDiffOperator(
            ex_bundle,
            2,
            2,
            {(0, 0): {(2, 0): one, (0, 1): -one}, (1, 1): {(1, 1): one, (0, 0): one}},
        )
        assert cdiff_text(op) == "[[D_xx - D_y, 0], [0, D_xy + 1]]"

    def test_multichar_base_names_fall_back_to_brackets(self):
        b = Bundle(("xx",), ("u",))
        assert poly_text(b.jet(0, (2,))) == "u[2]"
        op = CDiffOperator(b, 1, 1, {(0, 0): {(2,): 1}})
        assert cdiff_text(op) == "D[2]"


class TestLatex:
    def test_poly(self, intro_pair):
        b, f, g = intro_pair
        assert latex(jacobi_bracket(f, g)[0]) == r"2\,c\,u_{x}"
        assert latex(b.const(Fraction(1, 2))) == r"\tfrac{1}{2}"
        assert latex(b.jet(0, (1,)) ** 2 - 1) == r"u_{x}^{2} - 1"

    def test_cdiff(self, intro_pair):
        b, f, g = intro_pair
        assert latex(linearize(f)) == r"2\,u_{x}\,\mathcal{D}_{x}"
        assert latex(linearize(g)) == r"\mathcal{D}_{x}"

    def test_vector(self, plane_bundle):
        b = plane_bundle
        v = VectorOperator([b.const(-1), b.const(1)])
        assert latex(v) == r"\begin{pmatrix}-1 \\ 1\end{pmatrix}"

    def test_cdiff_matrix(self, plane_bundle):
        one = plane_bundle.one()
        op = CDiffOperator(
            plane_bundle,
            2,
            2,
            {(0, 0): {(2, 0): one, (0, 1): -one}, (1, 1): {(1, 1): one, (0, 0): one}},
        )
        assert latex(op) == (
            r"\begin{pmatrix}\mathcal{D}_{xx} - \mathcal{D}_{y} & 0"
            r" \\ 0 & \mathcal{D}_{xy} + 1\end{pmatrix}"
        )

    def test_multichar_names(self):
        b = Bundle(("xx", "t"), ("u",), ("cc", "d"))
        e = b.param("cc") * b.base_var(0) ** 2 - b.param("d") * b.jet(0, (2, 1)) + b.base_var(1)
        assert poly_text(e) == "cc*xx^2 - d*u[2,1] + t"
        assert latex(e) == r"\mathit{cc}\,\mathit{xx}^{2} - d\,u_{(2,1)} + t"
        op = CDiffOperator(b, 1, 1, {(0, 0): {(2, 0): 1}})
        assert latex(op) == r"\mathcal{D}_{(2,0)}"

    def test_cdiff_multi_term_coefficient(self, scalar_bundle):
        b = scalar_bundle
        coeff = 2 * b.jet(0, (2,)) + 2 * b.param("c")
        op = CDiffOperator(b, 1, 1, {(0, 0): {(1,): coeff, (0,): -b.one()}})
        assert latex(op) == r"\left(2\,u_{xx} + 2\,c\right)\,\mathcal{D}_{x} - 1"

    def test_negative_fractions(self, scalar_bundle):
        b = scalar_bundle
        assert latex(b.const(Fraction(-3, 2))) == r"-\tfrac{3}{2}"
        assert latex(b.fiber_var(0) - b.base_var(0).scale(Fraction(1, 2))) == (
            r"u - \tfrac{1}{2}\,x"
        )
        assert latex(b.jet(0, (1,)).scale(Fraction(-2, 3))) == r"-\tfrac{2}{3}\,u_{x}"
        op = CDiffOperator(b, 1, 1, {(0, 0): {(1,): b.const(Fraction(-1, 2))}})
        assert latex(op) == r"-\tfrac{1}{2}\,\mathcal{D}_{x}"


class TestJson:
    def test_poly_document_shape(self, intro_pair):
        b, f, g = intro_pair
        doc = jacobi_bracket(f, g)[0].to_json()
        assert doc == {
            "monomials": [
                {"coeff": "2", "vars": [{"var": "c", "pow": 1}, {"var": "p[1]^(1)", "pow": 1}]}
            ]
        }

    def test_vector_document_has_signature(self, plane_bundle):
        v = VectorOperator([plane_bundle.base_var(0), plane_bundle.const(2)])
        doc = v.to_json()
        assert doc["signature"] == {"base": ["x", "y"], "fiber": ["u", "v"], "params": []}
        assert doc["components"][0]["monomials"][0]["vars"] == [{"var": "x[1]", "pow": 1}]

    def test_cdiff_document_shape(self, intro_pair):
        b, f, _ = intro_pair
        doc = linearize(f).to_json()
        assert doc["shape"] == [1, 1]
        assert doc["entries"][0]["i"] == 1
        assert doc["entries"][0]["j"] == 1
        assert doc["entries"][0]["terms"][0]["sigma"] == [1]


# -- a reference printer on the decoded PolyExpr.terms view ----------------------


def ref_display_order(terms) -> list:
    """Monomials of a decoded terms dict in print order, keyed on nested tuples."""

    def key(mono):
        return (sum(k for _, k in mono), tuple(((v.kind, v.index, v.sigma.order, v.sigma), k) for v, k in mono))

    return sorted(terms, key=key, reverse=True)


def ref_term(style, bundle, mono, coeff):
    neg = coeff < 0
    mag = -coeff if neg else coeff
    parts = []
    if not mono or mag != 1:
        parts.append(str(mag) if mag.denominator == 1 else style.fraction % (mag.numerator, mag.denominator))
    for v, k in mono:
        name = coord_name(style, bundle, v)
        parts.append(name if k == 1 else name + style.power % k)
    return neg, style.times.join(parts)


def ref_poly(style, e) -> str:
    terms = e.terms
    if not terms:
        return "0"
    return _signed_sum(ref_term(style, e.bundle, m, terms[m]) for m in ref_display_order(terms))


def ref_cdiff(style, op) -> str:
    def entry(terms):
        if not terms:
            return "0"
        pieces = []
        for sigma in sorted(terms, key=lambda s: (s.order, s), reverse=True):
            coeff_terms = terms[sigma].terms
            if len(coeff_terms) == 1:
                ((mono, c),) = coeff_terms.items()
                neg, body = ref_term(style, op.bundle, mono, c)
            else:
                neg, body = False, style.group[0] + ref_poly(style, terms[sigma]) + style.group[1]
            if sigma.order:
                dword = style.derivative + _subscript(style, op.bundle, sigma)
                body = dword if body == "1" else body + style.times + dword
            pieces.append((neg, body))
        return _signed_sum(pieces)

    cells = [[entry(op.entry(i, j)) for j in range(op.cols)] for i in range(op.rows)]
    if op.rows == op.cols == 1:
        return cells[0][0]
    return _join(style.vector, (_join(style.row, row) for row in cells))


def ref_poly_json(e) -> dict:
    terms = e.terms
    return {
        "monomials": [
            {"coeff": str(Fraction(terms[m])), "vars": [{"var": coord_token(e.bundle, v), "pow": k} for v, k in m]}
            for m in ref_display_order(terms)
        ]
    }


BUNDLES = [Bundle(("x", "y", "z")[:n], ("u", "v", "w")[:r], ("c",)) for n in (1, 2, 3) for r in (1, 2, 3)]
BUNDLES.append(Bundle(("xa", "t", "yb"), ("u", "vv"), ("cc",)))  # u[2,1,0] and \mathit{} forms
POOL = (-2, -1, Fraction(1, 2), Fraction(-3, 4), 1, 3)


def draw(seed, bundle):
    return random_expr(bundle, seed, max_jet_order=2, max_degree=3, coeff_pool=POOL, max_terms=6)


class TestAgainstReference:
    """The id-form printers agree with the reference byte for byte."""

    @given(seed=st.integers(0, 2**20), bundle=st.sampled_from(BUNDLES))
    @settings(max_examples=60, deadline=None)
    def test_expressions(self, seed, bundle):
        e = draw(seed, bundle)
        assert text(e) == ref_poly(TEXT, e)
        assert latex(e) == ref_poly(LATEX, e)
        assert e.to_json() == ref_poly_json(e)
        assert json.dumps(e.to_json()) == json.dumps(ref_poly_json(e))

    @given(seed=st.integers(0, 2**20), bundle=st.sampled_from(BUNDLES))
    @settings(max_examples=60, deadline=None)
    def test_operators(self, seed, bundle):
        f = VectorOperator([draw(seed + k, bundle) for k in range(bundle.r)])
        g = VectorOperator([draw(seed + bundle.r + k, bundle) for k in range(bundle.r)])
        for op in (linearize(f), hessian_operator(f, g)):
            assert text(op) == ref_cdiff(TEXT, op)
            assert latex(op) == ref_cdiff(LATEX, op)
            doc = op.to_json()
            coeffs = [
                (term["coeff"], op.entry(rec["i"] - 1, rec["j"] - 1)[MultiIndex(tuple(term["sigma"]))])
                for rec in doc["entries"]
                for term in rec["terms"]
            ]
            assert len(coeffs) == sum(len(op.entry(i, j)) for i in range(op.rows) for j in range(op.cols))
            assert all(got == ref_poly_json(coeff) for got, coeff in coeffs)


class TestNameTables:
    """Ids are global to the process; names belong to a bundle and a style."""

    def test_bundles_sharing_ids_print_their_own_names(self):
        a, b = Bundle(("x",), ("u",), ("c",)), Bundle(("t",), ("w",), ("d",))
        ea = a.param("c") * a.base_var(0) * a.jet(0, (2,)) ** 2
        eb = b.param("d") * b.base_var(0) * b.jet(0, (2,)) ** 2
        assert ea._terms == eb._terms
        for _ in range(2):
            assert text(ea) == "c*x*u_xx^2"
            assert text(eb) == "d*t*w_tt^2"
            assert latex(ea) == r"c\,x\,u_{xx}^{2}"
            assert latex(eb) == r"d\,t\,w_{tt}^{2}"
            assert [v["var"] for v in ea.to_json()["monomials"][0]["vars"]] == ["c", "x[1]", "p[1]^(2)"]
            assert [v["var"] for v in eb.to_json()["monomials"][0]["vars"]] == ["d", "x[1]", "p[1]^(2)"]

    def test_text_and_latex_names_never_mix(self):
        b = Bundle(("xa",), ("u",), ("cc",))
        e = b.param("cc") * b.base_var(0) * b.jet(0, (2,))
        for _ in range(2):
            assert text(e) == "cc*xa*u[2]"
            assert latex(e) == r"\mathit{cc}\,\mathit{xa}\,u_{(2)}"

    def test_coordinate_interned_between_prints(self):
        a, b = Bundle(("x",), ("u",)), Bundle(("t",), ("w",))
        assert text(a.jet(0, (1,))) == "u_x" and text(b.jet(0, (1,))) == "w_t"
        k = next(k for k in range(2, 1000) if JetCoordinate(JET, 0, MultiIndex((k,))) not in _IDS)
        fresh = b.jet(0, (k,))
        assert text(fresh) == "w_" + "t" * k
        assert text(a.jet(0, (k,))) == "u_" + "x" * k
        assert latex(fresh) == "w_{" + "t" * k + "}"


# -- the report writer -----------------------------------------------------------

strings = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\ud800 é€𝄞aZ') | st.characters(), max_size=8)
leaves = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | strings
documents = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(strings, kids, max_size=4),
    max_leaves=15,
)


class TestJsonText:
    @given(doc=st.dictionaries(strings, documents, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_equals_json_dumps_indent_2(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2)

    def test_edge_values(self):
        doc = {"a": {}, "b": [], "c": (), "d": [[], {}], "e": -(2**65), "f": 2**64 + 1, "g": [True, False, None]}
        assert json_text(doc) == json.dumps(doc, indent=2)
        assert json_text({}) == "{}"

    @pytest.mark.parametrize("bad", [1.5, {"x": [0.0]}, object(), {"k": {1, 2}}, {1: "int key"}])
    def test_rejects_what_has_no_exact_json_form(self, bad):
        with pytest.raises(TypeError):
            json_text(bad)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: parse_coord_token(Bundle(("x",), ("u",)), "q[1]"), ValueError, "unrecognized coordinate token 'q[1]'"),
        (lambda: text(3), TypeError, "cannot render int as text"),
    ],
    ids=["coordinate token", "text of an int"],
)
def test_printing_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
