from fractions import Fraction

from jetcalc import Bundle, CDiffOperator, VectorOperator, linearize, jacobi_bracket
from jetcalc.printing import cdiff_text, latex, poly_text, vector_text


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
        assert cdiff_text(CDiffOperator.zero(b, 1, 1)) == "0"
        assert cdiff_text(CDiffOperator.identity(b)) == "1"

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
        op = CDiffOperator.total_derivative(b, (2,))
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
        op = CDiffOperator.total_derivative(b, (2, 0))
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
