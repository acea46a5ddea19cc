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
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

from .expressions import (
    Bundle,
    JetCoordinate,
    PolyExpr,
    Rational,
    SignatureMismatchError,
    _mul_into,
    random_expr,
)
from .operators import CDiffOperator, DerivativeCache
from .vectorops import RankMismatchError, VectorOperator


def _require_section_rank(f: VectorOperator, role: str) -> None:
    if f.rank != f.bundle.r:
        raise RankMismatchError(
            f"{role} has rank {f.rank}, but the bundle has {f.bundle.r} fiber variables"
        )


def _require_same(f: VectorOperator, g: VectorOperator) -> None:
    if f.bundle != g.bundle:
        raise SignatureMismatchError("operands carry different signatures")
    if f.rank != g.rank:
        raise RankMismatchError(f"rank mismatch: {f.rank} vs {g.rank}")


def linearize(f: VectorOperator) -> CDiffOperator:
    """Universal linearization: the total-derivative operator of partials of f.

    For f linear in the jet coordinates with constant coefficients and no
    free term, applying the result to g reproduces f's own linear action.
    """
    bundle = f.bundle
    entries: dict = {}
    for i, comp in enumerate(f.components):
        for v, coeff in comp._jet_partials().items():
            entries.setdefault((i, v.index), {})[v.sigma] = coeff
    return CDiffOperator._make(bundle, f.rank, bundle.r, entries)


def evolutionary_apply(
    g: VectorOperator,
    target: Union[PolyExpr, VectorOperator],
    cache: Optional[DerivativeCache] = None,
):
    """Evolutionary derivation generated by g, applied to an expression.

    Acts as sum over j, sigma of D_sigma(g_j) * d(target)/dp^j_sigma; the sum
    is finite because the target has finite jet order.  Vector operators are
    handled componentwise.  Passing a DerivativeCache for g lets repeated
    applications share the derivative chains.
    """
    _require_section_rank(g, "generating operator")
    if cache is None:
        cache = DerivativeCache(g)
    if isinstance(target, VectorOperator):
        if target.bundle != g.bundle:
            raise SignatureMismatchError("operands carry different signatures")
        return VectorOperator(evolutionary_apply(g, c, cache) for c in target.components)
    if target.bundle != g.bundle:
        raise SignatureMismatchError("operands carry different signatures")
    acc: dict = {}
    _evolutionary_into(acc, target, cache)
    return PolyExpr._make(g.bundle, acc)


def _evolutionary_into(acc: dict, target: PolyExpr, cache: DerivativeCache, k: int = 1) -> None:
    """Add k times the evolutionary derivative of target, generated by the
    operator behind cache, into the id-form term dict acc.  The caller
    checks signatures and ranks."""
    for v, dv in target._jet_partials().items():
        dg = cache.get(v.index, v.sigma)
        if dg:
            _mul_into(acc, dg, dv, k)


def jacobi_bracket(f: VectorOperator, g: VectorOperator) -> VectorOperator:
    """Higher Jacobi bracket {f, g}, via linearization."""
    _require_same(f, g)
    _require_section_rank(f, "left operand")
    return linearize(f).apply(g) - linearize(g).apply(f)


def jacobi_bracket_coord(f: VectorOperator, g: VectorOperator) -> VectorOperator:
    """Jacobi bracket from the expanded coordinate sums: component i is
    E_g(f_i) - E_f(g_i), summed into one accumulator.

    Independent of the operator-algebra code path; serves as its oracle.
    """
    _require_same(f, g)
    _require_section_rank(f, "left operand")
    fcache, gcache = DerivativeCache(f), DerivativeCache(g)
    comps = []
    for i in range(f.rank):
        acc: dict = {}
        _evolutionary_into(acc, f[i], gcache)
        _evolutionary_into(acc, g[i], fcache, -1)
        comps.append(PolyExpr._make(f.bundle, acc))
    return VectorOperator(comps)


def hessian_form(f: VectorOperator, g: VectorOperator, h: VectorOperator) -> VectorOperator:
    """Trilinear Hessian: second partials of f contracted with derivatives of g and h."""
    _require_same(f, g)
    _require_same(f, h)
    _require_section_rank(f, "operator")
    gcache, hcache = DerivativeCache(g), DerivativeCache(h)
    comps = []
    for i in range(f.rank):
        acc: dict = {}
        for v, first in f[i]._jet_partials().items():
            dg = gcache.get(v.index, v.sigma)
            if not dg:
                continue
            for w, second in first._jet_partials().items():
                dh = hcache.get(w.index, w.sigma)
                if dh:
                    _mul_into(acc, second * dg, dh)
        comps.append(PolyExpr._make(f.bundle, acc))
    return VectorOperator(comps)


def hessian_operator(f: VectorOperator, g: VectorOperator) -> CDiffOperator:
    """The Hessian as a matrix operator; applying it to h gives hessian_form(f, g, h).

    Entry (i, j) at key sigma is the evolutionary derivative along g of
    dF_i/dp^j_sigma; it vanishes identically when f is linear.
    """
    _require_same(f, g)
    _require_section_rank(f, "operator")
    cache = DerivativeCache(g)
    entries: dict = {}
    for i, comp in enumerate(f.components):
        for v, first in comp._jet_partials().items():
            coeff = evolutionary_apply(g, first, cache)
            if coeff:
                cell = entries.setdefault((i, v.index), {})
                cell[v.sigma] = coeff
    return CDiffOperator._make(f.bundle, f.rank, f.bundle.r, entries)


def ad_apply(h: VectorOperator, g: VectorOperator) -> VectorOperator:
    """Adjoint action of h: the bracket {h, g}."""
    return jacobi_bracket(h, g)


def substitute_section(e: PolyExpr, sections: Sequence[PolyExpr]) -> PolyExpr:
    """Pull an expression back along a section of the bundle.

    Each jet coordinate p^j_sigma is replaced by the sigma-th derivative of
    sections[j]; the sections must be jet-free (base variables and parameters
    only), one per fiber variable.
    """
    bundle = e.bundle
    if len(sections) != bundle.r:
        raise RankMismatchError(f"need {bundle.r} section components, got {len(sections)}")
    for s in sections:
        if s.bundle != bundle:
            raise SignatureMismatchError("section carries a different signature")
        if s.jet_coordinates():
            raise ValueError("sections must not contain jet coordinates")
    cache = DerivativeCache(sections)
    return e.substitute({v: cache.get(v.index, v.sigma) for v in e.jet_coordinates()})


def random_vector_operator(
    bundle: Bundle,
    seed: int,
    rank: Optional[int] = None,
    max_jet_order: int = 2,
    max_degree: int = 2,
    coeff_pool: Sequence[Rational] = (-2, -1, 1, 2),
    max_terms: int = 4,
) -> VectorOperator:
    """Deterministic random operator; component seeds derive from the master seed."""
    rank = bundle.r if rank is None else rank
    rng = random.Random(seed)
    return VectorOperator(
        random_expr(
            bundle,
            rng.randrange(2**32),
            max_jet_order=max_jet_order,
            max_degree=max_degree,
            coeff_pool=coeff_pool,
            max_terms=max_terms,
        )
        for _ in range(rank)
    )
