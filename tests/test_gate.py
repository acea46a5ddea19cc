"""The operand type gate, over every public callable of jetcalc.

Each operand slot is read from the callable's type hints: VectorOperator,
PolyExpr, SymmetryClaim, AuxClaim, Bundle, Sequence[PolyExpr], a Union of
these or an Optional one.  The slot gets 3, None unless the hint is
Optional, and an operand of the wrong kind (a bundle slot the plain tuple of
a bundle's names) while every other argument is valid, and the call must
raise a TypeError whose message starts with the slot's name.  The size
slots rows and cols of CDiffOperator are int slots that a bool does not fill,
as a coefficient slot (see _as_coeff); each gets 1.5, True and None.  Index
slots (zeta, tau, fiber, probe_order, seed) and the input of a reader or
parser get valid values only; they have their own tests.
"""

import collections.abc
import inspect
import typing

import pytest

import jetcalc
from jetcalc import AuxClaim, Bundle, CDiffOperator, PolyExpr, SymmetryClaim, VectorOperator
from jetcalc.dsl import parse_expression

_B = Bundle(("x",), ("u",), ("c",))
_E = _B.fiber_var(0) * _B.jet(0, (1,)) + _B.param("c")
_F = VectorOperator([_E])
# One valid value of each operand kind.
VALID = {
    VectorOperator: _F,
    PolyExpr: _E,
    SymmetryClaim: SymmetryClaim(_F, _F, _F),
    AuxClaim: AuxClaim(_F, _F, _F, _F),
    Bundle: _B,
}
INDICES = {"zeta": (1,), "tau": (1,), "fiber": 0, "probe_order": 1, "seed": 0}
SIZES = ("rows", "cols")
NONE = type(None)


def operand_kinds(hint) -> tuple:
    """The operand kinds a hint admits, NoneType among them if it is
    Optional, (list,) for Sequence[PolyExpr], or () if the slot takes no
    operand."""
    if hint in VALID:
        return (hint,)
    if typing.get_origin(hint) is typing.Union and all(a in VALID or a is NONE for a in typing.get_args(hint)):
        return typing.get_args(hint)
    if typing.get_origin(hint) is collections.abc.Sequence and typing.get_args(hint) == (PolyExpr,):
        return (list,)
    return ()


def valid(kinds: tuple):
    if kinds == (int,):
        return 1
    return [_B.base_var(0)] if kinds == (list,) else VALID[kinds[0]]


def wrong_kinds(kinds: tuple) -> list:
    """Operands of a kind the slot does not admit: 3, None unless the slot is
    Optional, and another operand; a sequence slot also gets a lone
    expression and a list holding an operator, a size slot a float, a bool
    and None."""
    if kinds == (int,):
        return [1.5, True, None]
    common = [3] + [None] * (NONE not in kinds)
    if kinds == (list,):
        return common + [_E, [_F]]
    if Bundle in kinds:
        return common + [tuple(_B)]
    return common + [next(v for kind, v in VALID.items() if kind not in kinds)]


def public_callables() -> dict:
    """name -> (callable, valid values of its slots that are neither operands
    nor indices): every function of jetcalc.__all__, CDiffOperator.apply bound
    to an operator, and the constructors, JSON readers and expression parser
    outside __all__ that take a bundle.  Other classes are records or
    validate their own constructor input."""
    out = {name: (getattr(jetcalc, name), {}) for name in jetcalc.__all__}
    out = {name: c for name, c in out.items() if callable(c[0]) and not isinstance(c[0], type)}
    out["CDiffOperator.apply"] = (jetcalc.linearize(_F).apply, {})
    out["PolyExpr"] = (PolyExpr, {})
    out["CDiffOperator"] = (CDiffOperator, {})
    out["PolyExpr.from_json"] = (PolyExpr.from_json, {"data": _E.to_json()})
    out["VectorOperator.from_json"] = (VectorOperator.from_json, {"data": _F.to_json()})
    out["CDiffOperator.from_json"] = (CDiffOperator.from_json, {"data": jetcalc.linearize(_F).to_json()})
    out["parse_expression"] = (parse_expression, {"source": "c*u_x"})
    return out


def valid_calls() -> dict:
    """name -> (callable, its operand slots with their kinds, valid keyword
    arguments), for each public callable with an operand slot."""
    out = {}
    for name, (call, others) in public_callables().items():
        hints = typing.get_type_hints(call.__init__ if isinstance(call, type) else call)
        params = inspect.signature(call).parameters
        slots = {p: kinds for p in params if (kinds := (int,) if p in SIZES else operand_kinds(hints.get(p)))}
        if not slots:
            continue
        kwargs = {**{p: INDICES[p] for p in params if p in INDICES}, **others}
        kwargs.update((p, valid(kinds)) for p, kinds in slots.items())
        missing = [p for p, par in params.items()
                   if p not in kwargs and par.default is par.empty and par.kind is not par.VAR_KEYWORD]
        assert not missing, f"{name}: no valid value for {missing}"
        out[name] = (call, slots, kwargs)
    return out


VALID_CALLS = valid_calls()
CASES = [
    pytest.param(call, slot, {**kwargs, slot: bad}, id=f"{name}-{slot}-{type(bad).__name__}")
    for name, (call, slots, kwargs) in VALID_CALLS.items()
    for slot, kinds in slots.items()
    for bad in wrong_kinds(kinds)
]
BUNDLE_SLOTS = {"PolyExpr-bundle", "CDiffOperator-bundle", "PolyExpr.from_json-bundle",
                "VectorOperator.from_json-bundle", "CDiffOperator.from_json-bundle", "random_expr-bundle",
                "random_vector_operator-bundle", "parse_expression-bundle"}


def test_every_operand_slot_is_covered():
    assert len(VALID_CALLS) == 26
    slots = {f"{name}-{slot}" for name, (_, slots, _) in VALID_CALLS.items() for slot in slots}
    assert {"linearize-f", "evolutionary_apply-target", "substitute_section-sections", "aux_residual-claim",
            "check_commutation-e", "CDiffOperator.apply-g", "CDiffOperator-rows",
            "CDiffOperator-cols"} | BUNDLE_SLOTS <= slots
    assert {slot for slot in slots if slot.endswith("-bundle")} == BUNDLE_SLOTS
    assert len(slots) == 47


@pytest.mark.parametrize("name", VALID_CALLS)
def test_valid_arguments_pass_the_gate(name):
    # Each case differs from this valid call in its one slot.
    call, _, kwargs = VALID_CALLS[name]
    call(**kwargs)


@pytest.mark.parametrize("call, slot, kwargs", CASES)
def test_wrong_operand_type_names_its_slot(call, slot, kwargs):
    with pytest.raises(TypeError) as caught:
        call(**kwargs)
    assert str(caught.value).startswith(slot), str(caught.value)


@pytest.mark.parametrize("rows, cols, message", [
    (1.5, 1, "rows must be an int, got float"),
    (1, True, "cols must be an int, got bool"),
    (True, True, "rows must be an int, got bool"),
])
def test_operator_shape_is_two_ints(rows, cols, message):
    # A float or bool shape once built an operator that to_json wrote and
    # from_json rejected.
    with pytest.raises(TypeError, match=f"^{message}$"):
        CDiffOperator(_B, rows, cols)
