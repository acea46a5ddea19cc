"""Executable verification of the bracket/Hessian identities.

Every check instantiates concrete polynomial operators, computes the exact
defect of one identity and wraps it in a Residual; holds is true exactly
when the canonical form of the defect is zero.  Checks sum each defect into
one accumulator per component (see calculus).  A check gates its
operands once, before it reads them, through its InputChains or
calculus._sums (see calculus for the rule), and its kernels check nothing.
Only inner brackets that are operands of another term are built as values.
The commutation lemma's defect starts from a copy of its direct side and takes
each closed-form term through expressions._add_terms.

Each check builds one InputChains over its input operands, which makes each
input's cache at once, and hands it to every kernel it calls; operators
states how long each cache lives.  Two
sides a check compares as independent oracles never read one cache:
bracket-oracle's two brackets both run on fresh caches, and prop2's operator
form (anomaly_operators) builds its own InputChains apart from that of its
applied form.  The antihom check probes the jet coordinates alone, which
suffices because its defect is a derivation.  It derives the bracket by a
depth-first walk of the derivative tree instead of a cache, so one chain of
bracket derivatives is alive at a time, and each defect's accumulator is
released before the next coordinate derives its bracket term.

IDENTITIES is the one description of each check's inputs: trial(), the
suites and `verify --operands` loop over them, never naming an identity.
Checks and samplers are looked up by name at call time, so rebinding a module
attribute (a tracer, a monkeypatch) reaches every caller.
trial() runs one check on random or explicit inputs; a failing trial, of
either kind, is recorded as {trial, seed, inputs, residual} with the inputs
in JSON form, replayable through trial(), and seed None for explicit inputs.
The randomized suites draw inputs from a seeded regime (default: 100 trials,
jet order and degree at most 2, coefficients in -2..2; always one or two base
and fiber variables and commutation indices of order at most 3).  Trial k of
a suite with master seed s uses seed s * 1_000_003 + k.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

from .calculus import (
    _bracket_coord_into,
    _bracket_into,
    _evolutionary_into,
    _hessian_into,
    _hessian_operator_into,
    _sums,
    jacobi_bracket,
    linearize,
    random_vector_operator,
)
from .expressions import Bundle, PolyExpr, _add_terms, _check_type, _Record, indices_up_to, random_expr
from .multiindex import MultiIndex, binom_product, check_order, sub_indices
from .operators import CDiffOperator, InputChains
from .vectorops import VectorOperator

# Identity name -> (name of its check function in this module, its inputs in
# parameter order).  An input's name is its kind: f, g, h and mu are vector
# operators, e an expression, zeta and tau multi-indices, fiber a 0-based
# fiber index, probe_order the order of the jet coordinates used as probes.
IDENTITIES = {
    "hess-sym": ("check_hessian_symmetry", ("f", "g", "h")),
    "prop2": ("check_linearization_anomaly", ("f", "g", "h")),
    "prop3": ("check_bracket_leibniz", ("f", "g", "h")),
    "jacobi": ("check_jacobi_identity", ("f", "g", "h")),
    "antihom": ("check_evolutionary_antihomomorphism", ("f", "g", "probe_order")),
    "commutation-lemma": ("check_commutation", ("zeta", "tau", "fiber", "e")),
    "mu-lemma": ("check_multiplier_identity", ("g", "h", "mu")),
    "bracket-oracle": ("check_bracket_oracle", ("f", "g")),
}
OPERANDS = ("f", "g", "h", "mu", "e")  # the inputs a caller names

SUITE_IDENTITIES = tuple(IDENTITIES)

DEFAULT_COEFF_POOL = (-2, -1, 0, 1, 2)


class Residual(_Record):
    """Exact defect of one identity instance.

    value is a VectorOperator (for antihom, one component per probed jet
    coordinate) or a CDiffOperator; holds is true iff the canonical form of
    value is zero (for prop2, also of its operator form); context records
    the identity name and its inputs.
    """

    def __init__(self, value: Union[VectorOperator, CDiffOperator], holds: bool, context: Optional[dict] = None):
        self.value = value
        self.holds = holds
        self.context = {} if context is None else context


def _residual(name: str, value, **context) -> Residual:
    return Residual(value=value, holds=value.is_zero(), context={"identity": name, **context})


def check_hessian_symmetry(f: VectorOperator, g: VectorOperator, h: VectorOperator) -> Residual:
    """The Hessian form is symmetric in its two derivative slots:
    hessian_form(f, g, h) - hessian_form(f, h, g) vanishes."""
    chains = InputChains(f=f, g=g, h=h)
    accs = [{} for _ in range(f.rank)]
    _hessian_into(accs, f, g, h, 1, chains)
    _hessian_into(accs, f, h, g, -1, chains)
    return _residual("hess-sym", VectorOperator._make(f.bundle, accs), f=f, g=g, h=h)


def anomaly_operators(
    f: VectorOperator, g: VectorOperator
) -> tuple[CDiffOperator, CDiffOperator]:
    """Both sides of the linearization anomaly as matrix operators: the
    commutator of linearizations minus the linearized bracket, and the
    difference of Hessian operators Hess(g, f) - Hess(f, g).  Both sides
    read one InputChains over f and g, and each is summed into one id-form
    operator sum."""
    chains = InputChains(f=f, g=g)
    lhs: dict = {}
    linearize(f)._commutator_into(lhs, linearize(g))
    linearize(jacobi_bracket(f, g, chains))._add_into(lhs, -1)
    rhs: dict = {}
    _hessian_operator_into(rhs, g, f, 1, chains)
    _hessian_operator_into(rhs, f, g, -1, chains)
    bundle = f.bundle
    return tuple(CDiffOperator._wrap(bundle, bundle.r, bundle.r, acc) for acc in (lhs, rhs))


def check_linearization_anomaly(
    f: VectorOperator, g: VectorOperator, h: VectorOperator
) -> Residual:
    """Commutator of linearizations minus linearized bracket equals the
    difference of Hessians (applied to a third operator h).

    The left side goes through the operator algebra, the right side through
    the trilinear form, so the two sides cannot share a bug.  Both sides are
    also assembled as matrix operators (anomaly_operators) and compared
    canonically; holds needs both comparisons, and the context records the
    operator one.
    """
    chains = InputChains(f=f, g=g, h=h)
    lhs_op, rhs_op = anomaly_operators(f, g)
    accs = [{} for _ in range(f.rank)]
    lhs_op._apply_into(accs, h, 1, chains)
    _hessian_into(accs, g, f, h, -1, chains)
    _hessian_into(accs, f, g, h, 1, chains)
    value = VectorOperator._make(f.bundle, accs)
    operator_form_equal = lhs_op == rhs_op
    res = _residual("prop2", value, f=f, g=g, h=h, operator_form_equal=operator_form_equal)
    res.holds = res.holds and operator_form_equal
    return res


def check_bracket_leibniz(f: VectorOperator, g: VectorOperator, h: VectorOperator) -> Residual:
    """Leibniz rule for the bracket against a composed operator, compensated
    by the Hessian of the outer operator:

        {f, l_g h} - l_{f,g} h - l_g {f, h} + hessian_form(f, g, h)  =  0
    """
    chains = InputChains(f=f, g=g, h=h)
    lg = linearize(g)
    lgh = lg.apply(h, chains)
    fg = jacobi_bracket(f, g, chains)
    fh = jacobi_bracket(f, h, chains)
    accs = [{} for _ in range(f.rank)]
    _bracket_into(accs, f, lgh, 1, chains)
    linearize(fg)._apply_into(accs, h, -1, chains)
    lg._apply_into(accs, fh, -1, chains)
    _hessian_into(accs, f, g, h, 1, chains)
    return _residual("prop3", VectorOperator._make(f.bundle, accs), f=f, g=g, h=h)


def check_jacobi_identity(f: VectorOperator, g: VectorOperator, h: VectorOperator) -> Residual:
    """Cyclic sum of nested brackets vanishes:
    {f, {g, h}} + {g, {h, f}} + {h, {f, g}} = 0."""
    chains = InputChains(f=f, g=g, h=h)
    gh = jacobi_bracket(g, h, chains)
    fg = jacobi_bracket(f, g, chains)
    hf = jacobi_bracket(h, f, chains)
    accs = [{} for _ in range(f.rank)]
    _bracket_into(accs, f, gh, 1, chains)
    _bracket_into(accs, g, hf, 1, chains)
    _bracket_into(accs, h, fg, 1, chains)
    return _residual("jacobi", VectorOperator._make(f.bundle, accs), f=f, g=g, h=h)


def check_evolutionary_antihomomorphism(f: VectorOperator, g: VectorOperator, probe_order: int) -> Residual:
    """Commutator of evolutionary derivations is minus the derivation of the bracket.

    The defect E_{f,g} + [E_f, E_g] is a derivation, so it vanishes on every
    expression of jet order at most probe_order exactly when it vanishes on
    the jet coordinates p^j_sigma with |sigma| <= probe_order (on a base
    variable every evolutionary derivation is zero).  The residual has one
    component per coordinate, in jet_coordinates_up_to order: the defect
    D_sigma{f,g}_j + E_f(D_sigma g_j) - E_g(D_sigma f_j), summed into one
    accumulator in that order.
    """
    if probe_order < 0:
        raise ValueError("need at least one probe expression")
    check_order(probe_order, "probe order")
    chains = InputChains(f=f, g=g)
    bracket = jacobi_bracket(f, g, chains)
    bundle = f.bundle
    fc, gc = chains.of(f), chains.of(g)
    place = {(v.index, v.sigma): k for k, v in enumerate(bundle.jet_coordinates_up_to(probe_order))}
    defects = [None] * len(place)
    # Walk the bracket's derivative tree depth first: D_sigma{f,g} is built by
    # one total derivative from its parent, sigma minus one at its first
    # nonzero entry, so the children of sigma are sigma + 1_i for i up to that
    # entry.  Each entry holds its parent's derivative, so one chain of them
    # is alive at a time, where lex order would keep a whole row.
    zero = MultiIndex.zero(bundle.n)
    stack = [(j, zero, bracket[j], None) for j in reversed(range(bundle.r))]
    while stack:
        j, sigma, d, i = stack.pop()
        if i is not None:
            d = d.total_derivative(i)
        # d is read again by the children: copy it.
        acc = dict(d._terms)
        _evolutionary_into(acc, gc.get(j, sigma), fc)
        _evolutionary_into(acc, fc.get(j, sigma), gc, -1)
        defects[place[j, sigma]] = PolyExpr._make(bundle, acc)
        # A sum with zeros was replaced by a new dict; drop its table before
        # the next coordinate derives its bracket term.
        del acc
        if sigma.order < probe_order:
            first = next((k for k, e in enumerate(sigma) if e), bundle.n - 1)
            stack += [(j, sigma.bump(k), d, k) for k in range(first, -1, -1)]
    return _residual("antihom", VectorOperator(defects), f=f, g=g, probe_order=probe_order)


def check_commutation(zeta, tau, fiber: int, e: PolyExpr) -> Residual:
    """Pushing a jet partial through an iterated total derivative.

    The closed form sums over common sub-indices kappa with multiplicity
    binom_product(tau, kappa); the residual compares it against the direct
    computation on e.  The defect starts from the terms of the direct side
    and subtracts each term of the closed form into that one accumulator.
    """
    _check_type(e, PolyExpr, "e")
    bundle = e.bundle
    zeta = zeta if isinstance(zeta, MultiIndex) else MultiIndex(zeta)
    tau = tau if isinstance(tau, MultiIndex) else MultiIndex(tau)
    acc = dict(e.total_derivative_multi(tau).partial(bundle.jet_coord(fiber, zeta))._terms)
    for kappa in sub_indices(tau):
        rem = zeta.checked_sub(kappa)
        if rem is None:
            continue
        part = e.partial(bundle.jet_coord(fiber, rem))
        if part:
            _add_terms(acc, part.total_derivative_multi(tau.checked_sub(kappa))._terms, -binom_product(tau, kappa))
    value = VectorOperator._make(bundle, [acc])
    return _residual(
        "commutation-lemma", value, zeta=list(zeta), tau=list(tau), fiber=fiber, e=e
    )


def check_multiplier_identity(
    g: VectorOperator, h: VectorOperator, mu: VectorOperator
) -> Residual:
    """Unconditional exchange identity between a multiplier mu, an operator h
    and an argument g:

        linearize({mu,h}) g + ad_h(linearize(mu) g)
        + hessian_form(h, mu, g) + linearize(mu) {g,h}  =  0
    """
    chains = InputChains(g=g, h=h, mu=mu)
    l_mu = linearize(mu)
    muh = jacobi_bracket(mu, h, chains)
    lmug = l_mu.apply(g, chains)
    gh = jacobi_bracket(g, h, chains)
    accs = [{} for _ in range(mu.rank)]
    linearize(muh)._apply_into(accs, g, 1, chains)
    _bracket_into(accs, h, lmug, 1, chains)
    _hessian_into(accs, h, mu, g, 1, chains)
    l_mu._apply_into(accs, gh, 1, chains)
    return _residual("mu-lemma", VectorOperator._make(mu.bundle, accs), g=g, h=h, mu=mu)


def check_bracket_oracle(f: VectorOperator, g: VectorOperator) -> Residual:
    """The operator-algebra bracket against the coordinate-formula bracket.

    The two sides are independent oracles, so each reads fresh caches."""
    accs = _sums(f=f, g=g)
    _bracket_into(accs, f, g)
    _bracket_coord_into(accs, f, g, -1)
    return _residual("bracket-oracle", VectorOperator._make(f.bundle, accs), f=f, g=g)


# -- randomized suites ---------------------------------------------------------


def trial_seed(master_seed: int, k: int) -> int:
    return master_seed * 1_000_003 + k


def trial(identity: str, inputs: dict, k: int = 0, seed: Optional[int] = None) -> tuple:
    """Run one trial on live inputs; returns (residual, failure record or None).

    inputs are the check's arguments, named and ordered as in IDENTITIES."""
    res = globals()[IDENTITIES[identity][0]](*inputs.values())
    if res.holds:
        return res, None
    # Serializing the inputs is not free, so only failing trials do it.
    fixture = {
        key: v.to_json() if hasattr(v, "to_json") else list(v) if isinstance(v, tuple) else v
        for key, v in inputs.items()
    }
    if "e" in inputs:
        fixture["signature"] = inputs["e"].bundle.to_json()
    return res, {"trial": k, "seed": seed, "inputs": fixture, "residual": res.value.to_json()}


def verification_report(identity: str, trials: int, seed: Optional[int], failures: list) -> dict:
    """The head every verify report starts with."""
    return {"identity": identity, "trials": trials, "seed": seed, "failures": failures, "holds": not failures}


def run_random_suite(
    identity: str,
    trials: int = 100,
    seed: int = 0,
    max_jet_order: int = 2,
    max_degree: int = 2,
    coeff_pool: Sequence = DEFAULT_COEFF_POOL,
    probe_order: int = 4,
) -> dict:
    """Run one identity's randomized suite; returns the verification report.

    The report is deterministic for a fixed seed and carries a replay
    fixture (inputs and residual, JSON form) for every failing trial.
    """
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; pick one of {SUITE_IDENTITIES}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    check_order(max_jet_order, "max jet order")
    regime = dict(max_jet_order=max_jet_order, max_degree=max_degree, coeff_pool=list(coeff_pool))
    failures = []
    for k in range(trials):
        tseed = trial_seed(seed, k)
        rng = random.Random(tseed)
        n, r = rng.choice((1, 2)), rng.choice((1, 2))
        bundle = Bundle(("x", "y")[:n], ("u", "v")[:r])
        inputs = {}
        for name in IDENTITIES[identity][1]:  # drawn in order, each from the trial's rng
            if name in ("zeta", "tau"):
                inputs[name] = rng.choice(indices_up_to(n, 3))
            elif name == "fiber":
                inputs[name] = rng.randrange(r)
            elif name == "probe_order":
                inputs[name] = probe_order
            else:
                draw = random_expr if name == "e" else random_vector_operator
                inputs[name] = draw(bundle, rng.randrange(2**32), **regime)
        record = trial(identity, inputs, k, tseed)[1]
        if record:
            failures.append(record)
    return {
        **verification_report(identity, trials, seed, failures),
        "regime": {"n": [1, 2], "r": [1, 2], "max_jet_order": max_jet_order, "max_degree": max_degree,
                   "coeff_pool": [str(c) for c in coeff_pool]},
    }
