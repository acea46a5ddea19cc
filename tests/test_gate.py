"""The operand type gate, over every public callable of jetcalc.

Each operand slot is read from the callable's type hints: VectorOperator,
PolyExpr, SymmetryClaim, AuxClaim, Sequence[PolyExpr] or a Union of these.
The slot gets 3, None and an operand of the wrong kind while every other
argument is valid, and the call must raise a TypeError whose message starts
with the slot's name.  Index slots (zeta, tau, fiber, probe_order) get valid
values only; they have their own TypeError and ValueError tests.
"""

import collections.abc
import inspect
import typing

import pytest

import jetcalc
from jetcalc import AuxClaim, Bundle, PolyExpr, SymmetryClaim, VectorOperator

_B = Bundle(("x",), ("u",), ("c",))
_E = _B.fiber_var(0) * _B.jet(0, (1,)) + _B.param("c")
_F = VectorOperator([_E])
# One valid value of each operand kind.
VALID = {
    VectorOperator: _F,
    PolyExpr: _E,
    SymmetryClaim: SymmetryClaim(_F, _F, _F),
    AuxClaim: AuxClaim(_F, _F, _F, _F),
}
INDICES = {"zeta": (1,), "tau": (1,), "fiber": 0, "probe_order": 1}


def operand_kinds(hint) -> tuple:
    """The operand kinds a hint admits, (list,) for Sequence[PolyExpr], or ()
    if the slot takes no operand."""
    if hint in VALID:
        return (hint,)
    if typing.get_origin(hint) is typing.Union and all(a in VALID for a in typing.get_args(hint)):
        return typing.get_args(hint)
    if typing.get_origin(hint) is collections.abc.Sequence and typing.get_args(hint) == (PolyExpr,):
        return (list,)
    return ()


def valid(kinds: tuple):
    return [_B.base_var(0)] if kinds == (list,) else VALID[kinds[0]]


def wrong_kinds(kinds: tuple) -> list:
    """Operands of a kind the slot does not admit; a sequence slot also gets
    a lone expression and a list holding an operator."""
    if kinds == (list,):
        return [_E, [_F]]
    return [next(v for kind, v in VALID.items() if kind not in kinds)]


def public_callables() -> dict:
    """Every function of jetcalc.__all__, and CDiffOperator.apply bound to an
    operator; classes are records or validate their own constructor input."""
    out = {name: getattr(jetcalc, name) for name in jetcalc.__all__}
    out = {name: obj for name, obj in out.items() if callable(obj) and not isinstance(obj, type)}
    out["CDiffOperator.apply"] = jetcalc.linearize(_F).apply
    return out


def valid_calls() -> dict:
    """name -> (callable, its operand slots with their kinds, valid keyword
    arguments), for each public callable with an operand slot."""
    out = {}
    for name, call in public_callables().items():
        hints = typing.get_type_hints(call)
        params = inspect.signature(call).parameters
        slots = {p: kinds for p in params if (kinds := operand_kinds(hints.get(p)))}
        if not slots:
            continue
        kwargs = {p: valid(slots[p]) if p in slots else INDICES[p] for p in params if p in slots or p in INDICES}
        missing = [p for p in params if p not in kwargs and params[p].default is inspect.Parameter.empty]
        assert not missing, f"{name}: no valid value for {missing}"
        out[name] = (call, slots, kwargs)
    return out


VALID_CALLS = valid_calls()
CASES = [
    pytest.param(call, slot, {**kwargs, slot: bad}, id=f"{name}-{slot}-{type(bad).__name__}")
    for name, (call, slots, kwargs) in VALID_CALLS.items()
    for slot, kinds in slots.items()
    for bad in [3, None] + wrong_kinds(kinds)
]


def test_every_operand_slot_is_covered():
    assert len(VALID_CALLS) == 18
    slots = {f"{name}-{slot}" for name, (_, slots, _) in VALID_CALLS.items() for slot in slots}
    assert {"linearize-f", "evolutionary_apply-target", "substitute_section-sections", "aux_residual-claim",
            "check_commutation-e", "CDiffOperator.apply-g"} <= slots
    assert len(slots) == 37


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
