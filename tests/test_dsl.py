import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcalc import Bundle, VectorOperator
from jetcalc.calculus import random_vector_operator
from jetcalc.dsl import MAX_NESTING, MAX_POWER_BITS, DslError, SessionFile, parse, parse_expression, print_session
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

    def test_product_whose_terms_cancel(self):
        # (u+1)*(u-1) cancels its u terms; the sum around it must still parse.
        session = parse("base x; fiber u; op F = [1 + (u+1)*(u-1)];")
        b = session.bundle
        assert session.operators["F"] == VectorOperator([b.fiber_var(0) ** 2])
        assert parse_expression("(u+1)*(u-1) - u^2", b) == -1

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


def test_session_operators_default_to_a_fresh_dict():
    bundle = Bundle(("x",), ("u",))
    first, second = SessionFile(bundle), SessionFile(bundle)
    first.operators["F"] = VectorOperator([bundle.fiber_var(0)])
    assert second.operators == {}


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

    def test_nesting_at_and_beyond_the_bound(self, scalar_bundle):
        u = scalar_bundle.fiber_var(0)
        assert parse_expression("(" * MAX_NESTING + "u" + ")" * MAX_NESTING, scalar_bundle) == u
        # Depth counts open parentheses, not parentheses seen.
        flat = " + ".join(["(" * MAX_NESTING + "u" + ")" * MAX_NESTING] * 3)
        assert parse_expression(flat, scalar_bundle) == 3 * u
        with pytest.raises(DslError) as err:
            parse_expression("(" * (MAX_NESTING + 1) + "u" + ")" * (MAX_NESTING + 1), scalar_bundle)
        assert (err.value.line, err.value.col) == (1, MAX_NESTING + 1)
        assert f"nested deeper than MAX_NESTING = {MAX_NESTING}" in str(err.value)

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

    @pytest.mark.parametrize(
        "source, position, message",
        [
            ("base ; fiber u; op F = [u];", (1, 6), "expected a name after 'base'"),
            ("fiber u; op F = [u];", (1, 10), "no base variables declared"),
            ("base a b c d e f g h i; fiber u; op F = [u];", (1, 34), "at most 8 base variables supported"),
            ("base x; fiber u; F = [u];", (1, 18), "expected 'op', found 'F'"),
            ("base x; fiber u;\nop F = [u,\n  *u];", (3, 3), "expected an expression, found '*'"),
            ("base x; fiber u; op F = [w_x];", (1, 26), "undeclared fiber variable 'w'"),
            ("base x; fiber u; op F = [u + w[1]];", (1, 30), "undeclared fiber variable 'w'"),
        ],
    )
    def test_message_and_position(self, source, position, message):
        with pytest.raises(DslError) as err:
            parse(source)
        assert (err.value.line, err.value.col) == position
        assert str(err.value) == f"line {position[0]}, col {position[1]}: {message}"

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

    # exp * B is 14 * 1000 = MAX_POWER_BITS, B being the bit length of the
    # base's largest numerator or denominator: 8192 = 2^13 has 14 bits.
    @pytest.mark.parametrize("body", ["8192^1000", "(1/8192*u)^1000", "-(-8192*u)^1000"])
    def test_power_at_max_power_bits(self, body):
        assert 14 * 1000 == MAX_POWER_BITS
        session = parse(f"base x; fiber u; op F = [{body}];")
        assert parse(print_session(session)) == session

    # 274877906944 = 2^38 has 39 bits, and 39 * 359 = MAX_POWER_BITS + 1; the
    # two nested powers were bounded by nothing before MAX_POWER_BITS.
    @pytest.mark.parametrize("body, exp, bits", [
        ("274877906944^359", 359, 39),
        (str(2**14000) + "^1", 1, 14001),
        ("((9)^1000)^1000", 1000, 3170),
        ("(9^1000*u)^1000", 1000, 3170),
    ], ids=["39 bits", "14001 bits", "constant", "degree 1"])
    def test_power_beyond_max_power_bits_has_a_position(self, body, exp, bits):
        assert exp * bits > MAX_POWER_BITS
        with pytest.raises(DslError) as err:
            parse(f"base x; fiber u; op F = [{body}];")
        # The error points at the exponent of the last power.
        assert (err.value.line, err.value.col) == (1, 27 + body.rindex("^"))
        assert str(err.value).endswith(f"power {exp} of a {bits}-bit coefficient exceeds MAX_POWER_BITS = 14000")

    def test_degree_bound_comes_before_the_power_bound(self):
        with pytest.raises(DslError, match="power 1001 of a degree-0 expression exceeds MAX_DEGREE = 1000$"):
            parse("base x; fiber u; op F = [(9^1000)^1001];")
        with pytest.raises(DslError, match="power 1000 of a degree-2 expression exceeds MAX_DEGREE = 1000$"):
            parse("base x; fiber u; op F = [(9^1000*u^2)^1000];")

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


def test_cancelled_terms_are_dropped_before_the_degree_bound():
    # u^600 - u^600 cancels inside the parentheses, so the product has
    # degree 601, not 1200.
    b = Bundle(("x",), ("u",))
    u = b.fiber_var(0)
    assert parse_expression("(u^600 - u^600 + u) * u^600", b) == u**601


# -- the parser against PolyExpr's own arithmetic ----------------------------
#
# A tree is a leaf, ("+" | "-" | "*", left, right), ("^", base, k), ("neg", a)
# or ("paren", a).  A leaf is a jet coordinate (u_xy or u[1,1]), a base
# variable, the parameter, a number (k or k/m) or a zero sum (u - u).  show()
# prints a tree with the parentheses that the grammar's precedence needs, and
# value() computes it with PolyExpr's + - * **.

# Precedence of printed text: sum 1, product 2, "-" factor 3, power 4, atom 5.
PREC = {"+": 1, "-": 1, "*": 2, "neg": 3, "^": 4}
# Most "^" nodes on one path from the root; capped() turns the deeper ones
# into parentheses.  With at most 8 leaves, literals at most 12/6 and
# exponents at most 3, a power's base then has degree at most 8 * 3^2 and
# coefficients far below MAX_POWER_BITS / 3 bits, so every draw is inside
# both DSL power bounds, where the parser and ** must agree.  Uncapped, the
# generator drew nested constant powers such as ((((12^3)^3)^3)^3)^3... past
# MAX_POWER_BITS, which the parser rejects and ** computes.
MAX_NESTED_POWERS = 3


def capped(tree, powers=MAX_NESTED_POWERS):
    kind = tree[0]
    if kind == "^":
        return ("^", capped(tree[1], powers - 1), tree[2]) if powers else ("paren", capped(tree[1], 0))
    if kind in ("+", "-", "*"):
        return (kind, capped(tree[1], powers), capped(tree[2], powers))
    if kind in ("neg", "paren"):
        return (kind, capped(tree[1], powers))
    return tree


def chain(factors):
    """The left-nested product of factors, printed as one flat product."""
    tree = factors[0]
    for factor in factors[1:]:
        tree = ("*", tree, factor)
    return tree


@st.composite
def expression_trees(draw):
    n, r = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    bundle = Bundle(("x", "y")[:n], ("u", "v")[:r], ("c",))
    sigmas = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    leaves = st.one_of(
        st.tuples(st.just("jet"), st.integers(0, r - 1), sigmas, st.booleans()),
        st.tuples(st.just("base"), st.integers(0, n - 1)),
        st.tuples(st.just("param")),
        st.tuples(st.just("num"), st.integers(0, 12), st.none() | st.integers(1, 6)),
        st.tuples(st.just("zero"), st.integers(0, r - 1)),
    )
    tree = draw(st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.lists(sub, min_size=3, max_size=5).map(chain),
        st.tuples(st.just("^"), sub, st.integers(0, 3)),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("paren"), sub),
    ), max_leaves=8))
    return bundle, capped(tree)


def show(tree, bundle) -> tuple:
    """(text, precedence) of a tree."""
    kind = tree[0]
    if kind == "jet":
        _, j, sigma, suffix = tree
        name = bundle.fiber[j]
        if not suffix:
            return f"{name}[{','.join(map(str, sigma))}]", 5
        letters = "".join(x * k for x, k in zip(bundle.base, sigma))
        return (f"{name}_{letters}" if letters else name), 5
    if kind == "base":
        return bundle.base[tree[1]], 5
    if kind == "param":
        return "c", 5
    if kind == "num":
        return (str(tree[1]) if tree[2] is None else f"{tree[1]}/{tree[2]}"), 5
    if kind == "paren":
        return f"({show(tree[1], bundle)[0]})", 5
    if kind == "zero":
        name = bundle.fiber[tree[1]]
        return f"({name} - {name})", 5

    def operand(sub, least):
        text, prec = show(sub, bundle)
        return text if prec >= least else f"({text})"

    if kind == "^":
        return f"{operand(tree[1], 5)}^{tree[2]}", 4
    if kind == "neg":
        return "-" + operand(tree[1], 3), 3
    # Left-associative: the right operand binds one level tighter.
    prec = PREC[kind]
    return f"{operand(tree[1], prec)} {kind} {operand(tree[2], prec + 1)}", prec


def value(tree, bundle):
    kind = tree[0]
    if kind == "jet":
        return bundle.jet(tree[1], tree[2])
    if kind == "base":
        return bundle.base_var(tree[1])
    if kind == "param":
        return bundle.param("c")
    if kind == "num":
        return bundle.const(Fraction(tree[1], tree[2] or 1))
    if kind == "paren":
        return value(tree[1], bundle)
    if kind == "zero":
        return bundle.zero()
    if kind == "neg":
        return -value(tree[1], bundle)
    if kind == "^":
        return value(tree[1], bundle) ** tree[2]
    a, b = value(tree[1], bundle), value(tree[2], bundle)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


@given(expression_trees())
@settings(max_examples=300, deadline=None)
def test_parser_agrees_with_polyexpr_arithmetic(case):
    bundle, tree = case
    text = show(tree, bundle)[0]
    assert parse_expression(text, bundle) == value(tree, bundle), text


@pytest.mark.parametrize(
    "source",
    ["(u - u)*u^1000*u", "u^500*(u - u)*u^600", "-(u - u)^1000*u^1000*u", "u*(x - x)*u^1000", "0*u^1000*u^1000"],
)
def test_a_zero_factor_has_degree_zero(source, scalar_bundle):
    # The product is zero from its zero factor on, so the bound then counts
    # only the factors that follow it.
    assert parse_expression(source, scalar_bundle) == 0


def test_a_zero_product_keeps_no_monomial(scalar_bundle):
    # A zero product drops the coordinates it has read, so 200 factors of
    # degree 1000 after a 0 hold at most one factor's 1000 ids, not 200,000.
    source = "0*" + "*".join(["u^1000"] * 200)
    tracemalloc.start()
    try:
        assert parse_expression(source, scalar_bundle) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


# Errors of the product path, each pinned with its line and column over one
# bundle: the degree bound at the "*", the two power bounds at the exponent,
# and the errors of the factors themselves.
PRODUCT_ERRORS = [
    ("u^600*u^401", 6, "product of degree 1001 exceeds MAX_DEGREE = 1000"),
    ("u*v^1000", 2, "product of degree 1001 exceeds MAX_DEGREE = 1000"),
    ("-u^500*-v^501", 7, "product of degree 1001 exceeds MAX_DEGREE = 1000"),
    ("u^1000 * 0^0 * u", 14, "product of degree 1001 exceeds MAX_DEGREE = 1000"),
    ("u*v*x*y*c*(u+v)^999", 10, "product of degree 1004 exceeds MAX_DEGREE = 1000"),
    ("u*2^1001", 5, "power 1001 of a degree-0 expression exceeds MAX_DEGREE = 1000"),
    ("u*(2^7000)^2", 6, "power 7000 of a degree-0 expression exceeds MAX_DEGREE = 1000"),
    ("c*(u+1)^1001", 9, "power 1001 of a degree-1 expression exceeds MAX_DEGREE = 1000"),
    ("2*(9^1000*u)^1000", 14, "power 1000 of a 3170-bit coefficient exceeds MAX_POWER_BITS = 14000"),
    ("u*1/0", 5, "zero denominator"),
    ("u*u_q", 3, "'q' in jet suffix is not a declared base variable"),
    ("u*u[1]", 6, "multi-index needs 2 entries, got 1"),
    ("u*u[16,1]", 3, "jet order 17 exceeds the limit 16"),
    ("u**v", 3, "expected an expression, found '*'"),
    ("u*(v", 5, "expected ')', found end of input"),
]


@pytest.mark.parametrize("source, col, message", PRODUCT_ERRORS, ids=[row[0] for row in PRODUCT_ERRORS])
def test_product_path_errors(source, col, message):
    b = Bundle(("x", "y"), ("u", "v"), ("c",))
    with pytest.raises(DslError) as err:
        parse_expression(source, b)
    assert (err.value.line, err.value.col) == (1, col)
    assert str(err.value) == f"line 1, col {col}: {message}"
