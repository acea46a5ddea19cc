from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc import Bundle, VectorOperator
from jetcalc.calculus import random_vector_operator
from jetcalc.dsl import DslError, SessionFile, parse, parse_expression, print_session
from jetcalc.expressions import MAX_DEGREE
from jetcalc.multiindex import MAX_ORDER

INTRO = """base x;
fiber u;
param c;
op F = [u_x^2];
op G = [u_x + c*x];
"""


class TestParse:
    def test_intro_session(self):
        session = parse(INTRO)
        b = session.bundle
        assert b == Bundle(("x",), ("u",), ("c",))
        p = b.jet(0, (1,))
        assert session.operators["F"] == VectorOperator([p * p])
        assert session.operators["G"] == VectorOperator([p + b.param("c") * b.base_var(0)])

    def test_jet_suffix_and_explicit_index_agree(self):
        session = parse("base x y; fiber u; op A = [u_xxy]; op B = [u[2,1]];")
        assert session.operators["A"] == session.operators["B"]

    def test_suffix_order_is_immaterial(self):
        session = parse("base x y; fiber u; op A = [u_xyx]; op B = [u_xxy];")
        assert session.operators["A"] == session.operators["B"]

    def test_vector_components(self):
        session = parse("base x y; fiber u v; op F = [u_xx - u_y - 1, v_xy + v];")
        f = session.operators["F"]
        b = session.bundle
        assert f == VectorOperator(
            [b.jet(0, (2, 0)) - b.jet(0, (0, 1)) - 1, b.jet(1, (1, 1)) + b.fiber_var(1)]
        )

    def test_rational_literals(self):
        session = parse("base x; fiber u; op F = [3/2*u - 1/3];")
        b = session.bundle
        assert session.operators["F"] == VectorOperator(
            [b.fiber_var(0).scale(Fraction(3, 2)) - Fraction(1, 3)]
        )

    def test_precedence_and_unary_minus(self):
        session = parse("base x; fiber u; op F = [-u_x^2 + 2*u*(u - 1)];")
        b = session.bundle
        p, u = b.jet(0, (1,)), b.fiber_var(0)
        assert session.operators["F"] == VectorOperator([-(p**2) + 2 * u * (u - 1)])

    def test_bare_name_and_multi_index_in_one_session(self):
        # Names are resolved once per session, but u[1] is not u.
        session = parse("base x; fiber u; op F = [u + u[1] + u]; op G = [u[1] - u_x];")
        b = session.bundle
        assert session.operators["F"] == VectorOperator([2 * b.fiber_var(0) + b.jet(0, (1,))])
        assert session.operators["G"] == VectorOperator([b.zero()])

    def test_names_that_spell_token_kinds(self):
        session = parse("base x; fiber int; param eof ident; op F = [int*eof + ident];")
        b = session.bundle
        assert session.operators["F"] == VectorOperator(
            [b.fiber_var(0) * b.param("eof") + b.param("ident")]
        )
        with pytest.raises(DslError) as err:
            parse("base x; fiber int; op F = [int[int]];")
        assert "expected 'int', found 'int'" in str(err.value)

    def test_parameters_used_in_expressions(self):
        session = parse("base x; fiber u; param a b; op F = [a*u + b];")
        b = session.bundle
        assert session.operators["F"] == VectorOperator(
            [b.param("a") * b.fiber_var(0) + b.param("b")]
        )


class TestErrors:
    def test_unbalanced_bracket(self):
        with pytest.raises(DslError) as err:
            parse("base x; fiber u; op F = [u_x")
        assert "end of input" in str(err.value)

    def test_undeclared_symbol_position(self):
        with pytest.raises(DslError) as err:
            parse("base x; fiber u; op F = [v];")
        assert err.value.line == 1
        assert err.value.col == 26
        assert "undeclared" in str(err.value)

    def test_duplicate_name(self):
        with pytest.raises(DslError) as err:
            parse("base x; fiber x; op F = [x];")
        assert "duplicate" in str(err.value)

    def test_duplicate_operator_name(self):
        with pytest.raises(DslError):
            parse("base x; fiber u; op F = [u]; op F = [u];")

    def test_reserved_word(self):
        with pytest.raises(DslError):
            parse("base op; fiber u; op F = [u];")

    def test_declaration_after_operator(self):
        with pytest.raises(DslError) as err:
            parse("base x; fiber u; op F = [u]; param c;")
        assert "precede" in str(err.value)

    def test_missing_fiber(self):
        with pytest.raises(DslError):
            parse("base x; op F = [1];")

    def test_unknown_suffix_letter(self):
        with pytest.raises(DslError) as err:
            parse("base x; fiber u; op F = [u_t];")
        assert "jet suffix" in str(err.value)

    def test_wrong_multi_index_arity(self):
        with pytest.raises(DslError) as err:
            parse("base x y; fiber u; op F = [u[1]];")
        assert "2 entries" in str(err.value)

    def test_zero_denominator(self):
        with pytest.raises(DslError):
            parse("base x; fiber u; op F = [1/0];")

    def test_unexpected_character(self):
        with pytest.raises(DslError) as err:
            parse("base x; fiber u; op F = [u ? 1];")
        assert err.value.line == 1

    def test_position_after_crlf_and_tabs(self):
        with pytest.raises(DslError) as err:
            parse("base x;\r\nfiber u;\r\n\top F = [u @];")
        assert (err.value.line, err.value.col) == (3, 12)

    def test_end_of_input_position(self):
        with pytest.raises(DslError) as err:
            parse("base x;\nfiber u;\nop F = [u ")
        assert (err.value.line, err.value.col) == (3, 11)
        assert "end of input" in str(err.value)

    def test_names_with_underscores_rejected(self):
        with pytest.raises(DslError):
            parse("base x; fiber u; param c_0; op F = [u];")

    @pytest.mark.parametrize(
        "body, col",
        [("[²]", 26), ("[u^²]", 28), ("[u[²]]", 28), ("[u[1]*³]", 31)],
    )
    def test_non_decimal_digit_has_a_position(self, body, col):
        with pytest.raises(DslError) as err:
            parse(f"base x; fiber u; op F = {body};")
        assert (err.value.line, err.value.col) == (1, col)
        assert "unexpected character" in str(err.value)

    def test_decimal_digits_of_any_script(self):
        # '٣' (ARABIC-INDIC DIGIT THREE) is a decimal digit: it reads as 3.
        assert parse("base x; fiber u; op F = [٣*u_x^٢];") == parse(
            "base x; fiber u; op F = [3*u_x^2];"
        )

    def test_overlong_integer_literal_has_a_position(self):
        with pytest.raises(DslError) as err:
            parse("base x; fiber u;\nop F = [u^" + "1" * 5000 + "];")
        assert (err.value.line, err.value.col) == (2, 11)

    def test_exponent_beyond_max_degree_has_a_position(self):
        with pytest.raises(DslError) as err:
            parse("base x; fiber u; op F = [u^1001];")
        assert (err.value.line, err.value.col) == (1, 28)

    def test_product_at_max_degree(self):
        session = parse("base x; fiber u; op F = [u^600*u^400*1];")
        assert session.operators["F"][0].degree == MAX_DEGREE

    def test_product_beyond_max_degree_has_a_position(self):
        with pytest.raises(DslError) as err:
            parse("base x; fiber u;\nop F = [u^600*(u^300*u^100)*u];")
        assert (err.value.line, err.value.col) == (2, 28)
        assert "product of degree 1001" in str(err.value)

    @pytest.mark.parametrize(
        "jet",
        [f"u[{MAX_ORDER}]", "u_" + "x" * MAX_ORDER],
    )
    def test_jet_order_at_the_limit(self, jet):
        session = parse(f"base x; fiber u; op F = [{jet}];")
        assert session.operators["F"] == VectorOperator(
            [session.bundle.jet(0, (MAX_ORDER,))]
        )

    @pytest.mark.parametrize(
        "jet",
        [f"u[{MAX_ORDER + 1}]", "u_" + "x" * (MAX_ORDER + 1), f"u[{MAX_ORDER},1]"],
    )
    def test_jet_order_beyond_the_limit(self, jet):
        base = "x y" if "," in jet else "x"
        with pytest.raises(DslError) as err:
            parse(f"base {base};\nfiber u; op F = [1 + {jet}];")
        assert (err.value.line, err.value.col) == (2, 22)
        assert f"jet order {MAX_ORDER + 1} exceeds the limit {MAX_ORDER}" in str(err.value)


class TestRoundTrip:
    def test_intro_roundtrip(self):
        session = parse(INTRO)
        assert parse(print_session(session)) == session

    def test_roundtrip_is_idempotent(self):
        session = parse(INTRO)
        once = print_session(session)
        twice = print_session(parse(once))
        assert once == twice

    def test_two_variable_roundtrip(self):
        src = "base x y; fiber u v; param a; op F = [u_xx - a*v_y + 1/2, v[1,1]*u];"
        session = parse(src)
        assert parse(print_session(session)) == session

    def test_expression_parser(self, scalar_bundle):
        e = parse_expression("u_x^2 - c*u + 2", scalar_bundle)
        b = scalar_bundle
        assert e == b.jet(0, (1,)) ** 2 - b.param("c") * b.fiber_var(0) + 2
        with pytest.raises(DslError):
            parse_expression("u_x^2 extra", scalar_bundle)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2), r=st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_random_sessions_roundtrip(self, seed, n, r):
        bundle = Bundle(("x", "y")[:n], ("u", "v")[:r], ("c",))
        ops = {
            name: random_vector_operator(
                bundle, seed + k, max_jet_order=3, max_degree=3,
                coeff_pool=[-3, -1, Fraction(1, 2), 2, Fraction(-7, 3)], max_terms=5,
            )
            for k, name in enumerate("FGH")
        }
        session = SessionFile(bundle, ops)
        assert parse(print_session(session)) == session
