"""Linearization, evolutionary derivations, Jacobi brackets and Hessians.

In coordinates, for a rank-r operator F over a rank-r bundle:

    linearize(F)           entry (i,j) holds dF_i/dp^j_sigma at key sigma
    evolutionary_apply(G,e)   sum over j,sigma of D_sigma(G_j) * de/dp^j_sigma
    jacobi_bracket(F,G)       linearize(F) applied to G  minus  linearize(G) applied to F
    jacobi_bracket_coord      the same value from the expanded coordinate sums,
                              kept as an independent code path for cross-checking
    hessian_form(F,G,H)_i     sum of d2F_i/(dp^j_zeta dp^k_tau) * D_zeta(G_j) * D_tau(H_k)
    hessian_operator(F,G)     the matrix operator with entry (i,j), key sigma equal to
                              evolutionary_apply(G, dF_i/dp^j_sigma); applying it to H
                              reproduces hessian_form(F,G,H)

All results are canonical, so identity checking is exact zero testing.

linearize and the Hessians take their partials from PolyExpr._jet_partials;
the evolutionary kernel builds none and reads its target's terms itself.  So
jacobi_bracket_coord, which sums evolutionary derivatives, shares no
partials code with linearize, and a fault in either shows in their
comparison.

An identity's defect is a signed sum of brackets, applied operators and
Hessians.  A check sums it into one list of id-form term dicts, one per
component, through the kernels that add k times a term: _bracket_into,
_bracket_coord_into, _hessian_into, _evolutionary_into and
CDiffOperator._apply_into; VectorOperator._make then wraps the sums.  An
operator-valued side sums the same way into one id-form operator sum (see
operators), here through _hessian_operator_into.

Every section operand of a public call passes one gate,
vectorops._check_sections, where the call first touches it (at _sums, which
returns the accumulators, at its InputChains, or at the top): it is a
VectorOperator over the first slot's signature whose rank is that bundle's
fiber count.  evolutionary_apply's target, a PolyExpr or a VectorOperator
of any rank, passes only the gate's signature pass, _check_signatures.
The kernels check nothing, since their operands are gated inputs or
intermediates built from them.  _evolutionary_into takes a cache; the
other kernels take the derivatives of their operands from an optional
InputChains; operators states how long each cache lives.
jacobi_bracket, jacobi_bracket_coord, hessian_form, hessian_operator and
CDiffOperator.apply are those kernels on fresh accumulators; jacobi_bracket
and apply also take the optional chains, and without it, like the other
three, derive on fresh caches.  evolutionary_apply derives its generator on
one fresh cache, which every component of a vector target reads.
"""

from __future__ import annotations

import random
from typing import Sequence, Union

from .expressions import (
    _COORDS,
    _KIND,
    JET,
    Bundle,
    PolyExpr,
    SignatureMismatchError,
    _check_type,
    _mul_into,
    random_expr,
)
from .operators import FRESH, CDiffOperator, DerivativeCache, InputChains
from .vectorops import RankMismatchError, VectorOperator, _check_sections, _check_signatures


def _sums(**operands: VectorOperator) -> list:
    """The accumulators of a public call, one empty id-form term dict per
    component of its first operand, once the operands passed the gate."""
    _check_sections(**operands)
    return [{} for _ in next(iter(operands.values())).components]


def linearize(f: VectorOperator) -> CDiffOperator:
    """Universal linearization: the total-derivative operator of partials of f.

    For f linear in the jet coordinates with constant coefficients and no
    free term, applying the result to g reproduces f's own linear action.
    """
    _check_type(f, VectorOperator, "f")
    bundle = f.bundle
    entries: dict = {}
    for i, comp in enumerate(f.components):
        for v, coeff in comp._jet_partials().items():
            entries.setdefault((i, v.index), {})[v.sigma] = coeff
    return CDiffOperator._make(bundle, f.rank, bundle.r, entries)


def evolutionary_apply(g: VectorOperator, target: Union[PolyExpr, VectorOperator]):
    """Evolutionary derivation generated by g, applied to an expression.

    Acts as sum over j, sigma of D_sigma(g_j) * d(target)/dp^j_sigma; the sum
    is finite because the target has finite jet order.  Vector operators are
    handled componentwise, on one cache of g's derivatives.
    """
    _check_sections(g=g)
    _check_type(target, (PolyExpr, VectorOperator), "target")
    _check_signatures(g=g, target=target)
    vector = isinstance(target, VectorOperator)
    targets = target if vector else VectorOperator([target])
    cache = DerivativeCache(g)
    accs = [{} for _ in targets.components]
    for acc, comp in zip(accs, targets.components):
        _evolutionary_into(acc, comp, cache)
    out = VectorOperator._make(g.bundle, accs)
    return out if vector else out[0]


def _evolutionary_into(acc: dict, target: PolyExpr, cache: DerivativeCache, k: int = 1) -> None:
    """Add k times the evolutionary derivative of target, generated by the
    operator behind cache, into the id-form term dict acc.

    One pass over target's terms builds no partials: each factor v^m of a
    term c * mono adds k * m * c * (mono without one v) * D(v) straight into
    acc.  D(v) = D_sigma(g_j) for v = p^j_sigma is fetched from the cache
    once per distinct coordinate of the target."""
    get = acc.get
    derivs: dict = {}  # id -> term dict of D(v)
    for mono, c in target._terms.items():
        # Each run of equal ids is one factor v^m, handled at its last position.
        last = len(mono) - 1
        start = 0
        for pos, v in enumerate(mono):
            if pos < last and mono[pos + 1] == v:
                continue
            end = pos + 1
            m = end - start
            start = end
            if _KIND[v] != JET:
                continue
            dg = derivs.get(v)
            if dg is None:
                w = _COORDS[v]
                dg = derivs[v] = cache.get(w.index, w.sigma)._terms
            if not dg:
                continue
            km = k * m
            c1 = c if km == 1 else km * c
            rest = mono[:pos] + mono[end:]
            if not rest:
                for m2, c2 in dg.items():
                    acc[m2] = get(m2, 0) + c1 * c2
                continue
            for m2, c2 in dg.items():
                key = tuple(sorted(rest + m2))
                acc[key] = get(key, 0) + c1 * c2


def _bracket_into(accs: list, f: VectorOperator, g: VectorOperator, k: int = 1, chains: InputChains = FRESH) -> None:
    """Add k * {f, g}, via linearization, into accs (one id-form term dict per
    component)."""
    linearize(f)._apply_into(accs, g, k, chains)
    linearize(g)._apply_into(accs, f, -k, chains)


def _bracket_coord_into(
    accs: list, f: VectorOperator, g: VectorOperator, k: int = 1, chains: InputChains = FRESH
) -> None:
    """Add k * {f, g}, from the coordinate sums E_g(f_i) - E_f(g_i), into accs."""
    fcache, gcache = chains.of(f), chains.of(g)
    for i, acc in enumerate(accs):
        _evolutionary_into(acc, f[i], gcache, k)
        _evolutionary_into(acc, g[i], fcache, -k)


def _hessian_into(
    accs: list, f: VectorOperator, g: VectorOperator, h: VectorOperator, k: int = 1, chains: InputChains = FRESH
) -> None:
    """Add k * hessian_form(f, g, h) into accs."""
    gcache, hcache = chains.of(g), chains.of(h)
    for acc, comp in zip(accs, f.components):
        for v, first in comp._jet_partials().items():
            dg = gcache.get(v.index, v.sigma)
            if not dg:
                continue
            for w, second in first._jet_partials().items():
                dh = hcache.get(w.index, w.sigma)
                if dh:
                    _mul_into(acc, (second * dg)._terms, dh._terms, k)


def jacobi_bracket(f: VectorOperator, g: VectorOperator, chains: InputChains = FRESH) -> VectorOperator:
    """Higher Jacobi bracket {f, g}, via linearization; the derivatives of f
    and g come from chains."""
    accs = _sums(f=f, g=g)
    _bracket_into(accs, f, g, 1, chains)
    return VectorOperator._make(f.bundle, accs)


def jacobi_bracket_coord(f: VectorOperator, g: VectorOperator) -> VectorOperator:
    """Jacobi bracket from the expanded coordinate sums: component i is
    E_g(f_i) - E_f(g_i), summed into one accumulator.

    Independent of the operator-algebra code path; serves as its oracle.
    """
    accs = _sums(f=f, g=g)
    _bracket_coord_into(accs, f, g)
    return VectorOperator._make(f.bundle, accs)


def hessian_form(f: VectorOperator, g: VectorOperator, h: VectorOperator) -> VectorOperator:
    """Trilinear Hessian: second partials of f contracted with derivatives of g and h."""
    accs = _sums(f=f, g=g, h=h)
    _hessian_into(accs, f, g, h)
    return VectorOperator._make(f.bundle, accs)


def hessian_operator(f: VectorOperator, g: VectorOperator) -> CDiffOperator:
    """The Hessian as a matrix operator; applying it to h gives hessian_form(f, g, h).

    Entry (i, j) at key sigma is the evolutionary derivative along g of
    dF_i/dp^j_sigma; it vanishes identically when f is linear.
    """
    _check_sections(f=f, g=g)
    acc: dict = {}
    _hessian_operator_into(acc, f, g, 1, FRESH)
    return CDiffOperator._wrap(f.bundle, f.rank, f.bundle.r, acc)


def _hessian_operator_into(acc: dict, f: VectorOperator, g: VectorOperator, k: int, chains: InputChains) -> None:
    """Add k * hessian_operator(f, g) into acc, an id-form operator sum."""
    cache = chains.of(g)
    for i, comp in enumerate(f.components):
        for v, first in comp._jet_partials().items():
            _evolutionary_into(acc.setdefault((i, v.index), {}).setdefault(v.sigma, {}), first, cache, k)


def substitute_section(e: PolyExpr, sections: Sequence[PolyExpr]) -> PolyExpr:
    """Pull an expression back along a section of the bundle.

    Each jet coordinate p^j_sigma is replaced by the sigma-th derivative of
    sections[j]; the sections must be jet-free (base variables and parameters
    only), one per fiber variable.
    """
    _check_type(e, PolyExpr, "e")
    _check_type(sections, Sequence, "sections")
    bundle = e.bundle
    if len(sections) != bundle.r:
        raise RankMismatchError(f"need {bundle.r} section components, got {len(sections)}")
    for k, s in enumerate(sections):
        _check_type(s, PolyExpr, f"sections[{k}]")
        if s.bundle != bundle:
            raise SignatureMismatchError("section carries a different signature")
        if s.jet_coordinates():
            raise ValueError("sections must not contain jet coordinates")
    cache = DerivativeCache(sections)
    return e.substitute({v: cache.get(v.index, v.sigma) for v in e.jet_coordinates()})


def random_vector_operator(bundle: Bundle, seed: int, **bounds) -> VectorOperator:
    """Deterministic random operator of rank bundle.r; component seeds derive
    from the master seed, and bounds are random_expr's keyword bounds."""
    _check_type(bundle, Bundle, "bundle")
    rng = random.Random(seed)
    return VectorOperator(random_expr(bundle, rng.randrange(2**32), **bounds) for _ in range(bundle.r))
