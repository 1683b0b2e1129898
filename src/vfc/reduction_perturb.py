"""Reductions, pruned categories, perturbations, adaptedness constants.

A *reduction* selects per-index sample subsets V_I of the chart domains
(plus optional membership predicates for floating-point queries and
optional declared closures).  A *perturbation* assigns obstruction-valued
data ν_I on V_I, as declared exact sample values and/or smooth ASTs.

Metric conventions: the atlas metric lives on intermediate keys
``(I, class_index)``; a "hat" ball in chart J is the preimage of the
metric ball at quotient level (hence automatically Γ_J-invariant).
Balls read the integer matrix of the metric, a :class:`RationalArray`,
against one threshold per radius (:meth:`RationalArray.threshold`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .charts_atlas import (
    TAU_RANK,
    AtlasModel,
    CheckReport,
    FiniteCategory,
    RationalArray,
    _index_from_key,
    _equal,
    _index_key,
    _matmul,
    _scaled,
    check_category,
    composition_table,
    realize_intermediate,
)
from .exterior_engine import RationalMatrix, parse_rat, rat_str
from .expressions import compile_vector, eval_pred, eval_vector, evaluate_until_raise

__all__ = [
    "TAU_EQ",
    "Reduction",
    "Perturbation",
    "EquivariantNorms",
    "AdaptednessConstants",
    "epsilon_closure_radius",
    "closure_of",
    "v_tilde",
    "v_tilde_via_projection",
    "hij_identity_holds",
    "check_reduction",
    "build_pruned_category",
    "PrunedResult",
    "check_perturbation",
    "compute_adaptedness_constants",
    "check_adapted",
    "reduction_to_json",
    "reduction_from_json",
    "perturbation_to_json",
    "perturbation_from_json",
    "norms_to_json",
    "norms_from_json",
]

TAU_EQ = 1e-9

Vec = tuple


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class Reduction:
    """Sample subsets V_I ⊆ U_I with optional predicates and closures."""

    sets: dict  # I -> frozenset of sample indices
    preds: dict = field(default_factory=dict)  # I -> predicate AST
    closures: dict = field(default_factory=dict)  # I -> frozenset (declared)

    def contains_float(self, I: tuple, coords: Sequence[float]) -> bool:
        pred = self.preds.get(I)
        if pred is None:
            return False
        return eval_pred(pred, list(coords))


@dataclass
class Perturbation:
    """ν_I on V_I: declared exact sample values and/or smooth ASTs."""

    asts: dict = field(default_factory=dict)  # I -> tuple of ASTs
    samples: dict = field(default_factory=dict)  # I -> {sample idx -> value tuple}

    def value_at(self, atlas: AtlasModel, I: tuple, idx: int):
        """Value of ν_I at a domain sample; exact where declared."""
        declared = self.samples.get(I)
        if declared is not None and idx in declared:
            return tuple(declared[idx])
        chart = atlas.charts[I]
        if chart.obstruction_dim == 0:
            return ()
        asts = self.asts.get(I)
        if asts is None:
            return None
        coords = [Fraction(c) for c in chart.domain.points[idx]]
        return tuple(eval_vector(asts, coords))


@dataclass
class EquivariantNorms:
    """Per-basic-chart norms: max of coordinates after a declared
    Γ_i-invariant rational linear change; product charts take the max over
    the summands.  ``maps`` holds the changes as (rows, m_i)
    :class:`RationalArray` s; the constructor also takes ``RationalMatrix``
    values and converts them once."""

    maps: dict  # basic index -> RationalArray

    def __post_init__(self):
        self.maps = {
            i: RationalArray.of(T, f"norm of chart {i}", (-1, -1)) for i, T in self.maps.items()
        }

    def _blocks(self, atlas: AtlasModel, I: tuple):
        """(i, start, end) of each summand E_i of E_I = ⊕_{i∈I} E_i."""
        offset = 0
        for i in I:
            if (i,) in atlas.charts:
                m_i = atlas.charts[(i,)].obstruction_dim
            elif i in self.maps:
                m_i = self.maps[i].num.shape[1]
            else:
                m_i = 0
            yield i, offset, offset + m_i
            offset += m_i

    def norms(self, atlas: AtlasModel, I: tuple, values: RationalArray) -> RationalArray:
        """The norm of each vector of ``values`` (..., dim E_I), exactly."""
        where = f"norm on chart {I}"
        parts = [
            _matmul(RationalArray(values.num[..., lo:hi], values.den), self.maps[i].mT, where)
            for i, lo, hi in self._blocks(atlas, I)
            if hi > lo
        ]
        den = math.lcm(1, *(p.den for p in parts))
        out = np.zeros(values.num.shape[:-1], dtype=np.int64)
        for p in parts:
            out = np.maximum(out, np.abs(_scaled(p, den, where)).max(axis=-1, initial=0))
        return RationalArray(out, den)

    def norm(self, atlas: AtlasModel, I: tuple, e: Sequence):
        """Norm of one value on E_I (max over blocks), exact for rationals."""
        out = Fraction(0)
        for i, lo, hi in self._blocks(atlas, I):
            if hi == lo or self.maps[i].num.shape[1] == 0:
                continue
            T, block = self.maps[i], e[lo:hi]
            if all(isinstance(c, (int, Fraction)) for c in block):
                rows = T.num.tolist()
                val = Fraction(
                    max((abs(sum(t * c for t, c in zip(r, block))) for r in rows), default=0),
                    T.den,
                )
            else:
                rows = T.floats().tolist()
                val = max(
                    (abs(sum(r[k] * float(block[k]) for k in range(len(block)))) for r in rows),
                    default=0.0,
                )
            out = val if val > out else out
        return out

    def validate(self, atlas: AtlasModel) -> CheckReport:
        rep = CheckReport("equivariant_norms")
        for i, T in self.maps.items():
            chart = atlas.charts.get((i,))
            if chart is None:
                rep.fail("norm_for_unknown_chart", index=i)
                continue
            if T.num.shape[1] != chart.obstruction_dim:
                rep.fail("norm_shape", index=i)
                continue
            rank = RationalMatrix.from_rows(T.fractions()).rank()
            if chart.obstruction_dim and rank != chart.obstruction_dim:
                rep.fail("norm_degenerate", index=i)
            # the norm at γ·e against the norm at e, for every grid point e
            grid, where = chart.obstruction_points, f"chart {(i,)}"
            moved = _matmul(grid, chart.obstruction_action.mT, where)
            bad = ~_equal(self.norms(atlas, (i,), moved), self.norms(atlas, (i,), grid), where)
            for g in np.flatnonzero(bad.any(axis=1)).tolist():
                rep.fail("norm_not_invariant", index=i, element=chart.group.elements[g])
        return rep


@dataclass
class AdaptednessConstants:
    delta_V: Fraction
    delta: Fraction
    eta: dict  # k (int or half-integer as Fraction) -> float
    v_k: dict  # (I, k) -> frozenset of sample indices
    n_k: dict  # (J, I, k) -> frozenset
    c_tilde: dict  # J -> frozenset
    sigma: Fraction | None  # None = empty complement (no constraint)
    sigma_witness: tuple | None
    sigma_representative: bool
    max_depth: int


# ---------------------------------------------------------------------------
# derived sets
# ---------------------------------------------------------------------------


def epsilon_closure_radius(atlas: AtlasModel):
    """Default closure-ball radius: half the minimal nonzero spacing, or
    ``None`` without a metric (:attr:`AtlasModel.closure_radius`)."""
    return atlas.closure_radius


def closure_of(atlas: AtlasModel, red: Reduction, I: tuple, eps) -> frozenset:
    """Declared closure if present, else the metric ε-ball, else V_I.

    ``eps`` is :func:`epsilon_closure_radius` of the atlas, which callers
    compute once for all their indices."""
    if I in red.closures:
        return red.closures[I]
    if eps is not None:
        return _hat_ball(atlas, I, frozenset(red.sets[I]), eps)
    return frozenset(red.sets[I])


def v_tilde(atlas: AtlasModel, red: Reduction, I: tuple, J: tuple) -> frozenset:
    """Ṽ_IJ = V_J ∩ ρ_IJ⁻¹(V_I) (with Ṽ_II = V_I)."""
    if I == J:
        return frozenset(red.sets[I])
    change = atlas.changes[(I, J)]
    v_I = red.sets[I]
    v_J = red.sets[J]
    return frozenset(
        y for y in change.tilde_indices if y in v_J and change.rho_idx[y] in v_I
    )


def v_tilde_via_projection(
    atlas: AtlasModel, red: Reduction, I: tuple, J: tuple
) -> frozenset:
    """Ṽ_IJ computed as V_J ∩ π_K⁻¹(π_K(V_I)) via the realization."""
    if I == J:
        return frozenset(red.sets[I])
    inter = realize_intermediate(atlas)
    cls_I = atlas.charts[I].domain.class_index_of()
    cls_J = atlas.charts[J].domain.class_index_of()
    target_classes = {inter.class_of[(I, cls_I[x])] for x in red.sets[I]}
    return frozenset(
        y
        for y in red.sets[J]
        if inter.class_of[(J, cls_J[y])] in target_classes
    )


def hij_identity_holds(
    atlas: AtlasModel, red: Reduction, F: tuple, I: tuple, J: tuple
) -> bool:
    """V_J ∩ ρ_IJ⁻¹(Ṽ_FI) = Ṽ_IJ ∩ Ṽ_FJ for F ⊂ I ⊂ J."""
    change = atlas.changes[(I, J)]
    vt_FI = v_tilde(atlas, red, F, I)
    lhs = frozenset(
        y
        for y in change.tilde_indices
        if y in red.sets[J] and change.rho_idx[y] in vt_FI
    )
    rhs = v_tilde(atlas, red, I, J) & v_tilde(atlas, red, F, J)
    return lhs == rhs


# ---------------------------------------------------------------------------
# reduction checks
# ---------------------------------------------------------------------------


def check_reduction(atlas: AtlasModel, red: Reduction) -> CheckReport:
    """Clauses of the reduction definition, checked extensionally."""
    rep = CheckReport("reduction")
    indices = atlas.index_sets()
    for I in indices:
        if I not in red.sets:
            rep.fail("missing_set", index=I)
    if not rep.ok:
        return rep
    # (i) Γ-invariance (equivalently: pulled back from the quotient)
    for I in indices:
        chart = atlas.charts[I]
        v = red.sets[I]
        for name, perm in zip(chart.group.elements, chart.domain.perms.tolist()):
            if any(perm[x] not in v for x in v):
                rep.fail("not_invariant", index=I, element=name)
                break
        pred = red.preds.get(I)
        if pred is not None:
            for x, p in enumerate(chart.domain.points):
                if eval_pred(pred, list(p)) != (x in v):
                    rep.fail("predicate_mismatch", index=I, point=x)
                    break
    eps = epsilon_closure_radius(atlas)
    closures = {I: closure_of(atlas, red, I, eps) for I in indices}
    # (ii) precompact surrogate + zero intersection
    for I in indices:
        chart = atlas.charts[I]
        n = len(chart.domain.points)
        if any(x >= n for x in closures[I]):
            rep.fail("closure_escapes_domain", index=I)
        v = red.sets[I]
        if v and not (set(v) & set(chart.zero_sample_indices())):
            rep.fail("misses_zero_set", index=I)
    # (iii) closure overlaps only for nested indices
    inter = realize_intermediate(atlas)
    proj_closure = {}
    for I in indices:
        cls = atlas.charts[I].domain.class_index_of()
        proj_closure[I] = {inter.class_of[(I, cls[x])] for x in closures[I]}
    for I in indices:
        for J in indices:
            if I >= J:
                continue
            nested = set(I) <= set(J) or set(J) <= set(I)
            if not nested and (proj_closure[I] & proj_closure[J]):
                rep.fail("closure_overlap_not_nested", pair=(I, J))
    # (iv) zero-set coverage
    covered = set()
    for I in indices:
        chart = atlas.charts[I]
        zset = set(chart.zero_sample_indices())
        for x in red.sets[I]:
            if x in zset:
                covered.add(chart.footprint_map[x])
    missing = set(atlas.x_labels) - covered
    if missing:
        rep.fail("zero_set_not_covered", missing=sorted(missing))
    # (v) partial isotropy acts freely on Ṽ_FI (needed downstream)
    for F in indices:
        for I in indices:
            if not set(F) < set(I):
                continue
            if (F, I) not in atlas.changes:
                rep.fail("missing_change", pair=(F, I))
                continue
            chart = atlas.charts[I]
            vt = v_tilde(atlas, red, F, I)
            for g in atlas.kernel(F, I).tolist():
                if g == chart.group.identity:
                    continue
                if any(chart.domain.act(g, y) == y for y in vt):
                    element = chart.group.elements[g]
                    rep.fail("partial_isotropy_not_free", pair=(F, I), element=element)
                    break
    return rep


# ---------------------------------------------------------------------------
# pruned category
# ---------------------------------------------------------------------------


@dataclass
class PrunedResult:
    category: FiniteCategory
    report: CheckReport


def build_pruned_category(atlas: AtlasModel, red: Reduction) -> PrunedResult:
    """Objects ⨆V_I, morphisms Ṽ_IJ with the isotropy dropped.

    A morphism (I, J, y) is read back from its endpoints ((I, ρ_IJ(y)),
    (J, y)), so the category is nonsingular by construction."""
    rep = CheckReport("pruned_category")
    indices = atlas.index_sets()
    objects = [(I, x) for I in indices for x in sorted(red.sets[I])]
    morphisms = []
    src: dict = {}
    tgt: dict = {}
    for I in indices:
        for J in indices:
            if not set(I) <= set(J):
                continue
            if I != J and (I, J) not in atlas.changes:
                continue
            # Ṽ_IJ ⊆ V_J with ρ_IJ(Ṽ_IJ) ⊆ V_I: both endpoints are objects
            for y in sorted(v_tilde(atlas, red, I, J)):
                m = (I, J, y)
                morphisms.append(m)
                src[m] = (I, y if I == J else atlas.changes[(I, J)].rho_idx[y])
                tgt[m] = (J, y)
    identity_of = {(I, x): (I, I, x) for (I, x) in objects}
    compose = composition_table(
        rep, "composition_escapes", morphisms, src, tgt,
        lambda f, g: (f[0], g[1], g[2]),
    )
    cat = FiniteCategory.from_labels(objects, morphisms, src, tgt, compose, identity_of)
    rep.merge(check_category(cat))
    return PrunedResult(category=cat, report=rep)


# ---------------------------------------------------------------------------
# perturbation checks
# ---------------------------------------------------------------------------


def _phi_apply(phi: RationalArray, v):
    """Apply φ̂ to an obstruction value, exactly when rational."""
    if all(isinstance(c, (int, Fraction)) for c in v):
        return tuple(
            Fraction(sum(a * c for a, c in zip(row, v)), phi.den) for row in phi.num.tolist()
        )
    return tuple(
        sum(a * float(c) for a, c in zip(row, v)) for row in phi.floats().tolist()
    )


def _values_equal(a, b, tol: float = TAU_EQ) -> bool:
    if a is None or b is None:
        return False
    if len(a) != len(b):
        return False
    exact = all(isinstance(v, (int, Fraction)) for v in list(a) + list(b))
    if exact:
        return tuple(Fraction(v) for v in a) == tuple(Fraction(v) for v in b)
    return all(abs(float(x) - float(y)) <= tol for x, y in zip(a, b))


def check_perturbation(
    atlas: AtlasModel,
    red: Reduction,
    nu: Perturbation,
    C: Reduction | None = None,
    zeros: Sequence | None = None,
) -> CheckReport:
    """Compatibility, partial equivariance, admissibility; transversality
    at found zeros; precompactness of the zero set relative to C."""
    rep = CheckReport("perturbation")
    indices = atlas.index_sets()
    nested = [
        (I, J)
        for I in indices
        for J in indices
        if set(I) < set(J) and (I, J) in atlas.changes
    ]
    # compatibility ν_J = φ̂_IJ∘ν_I∘ρ_IJ on Ṽ_IJ
    for (I, J) in nested:
        change = atlas.changes[(I, J)]
        phi = change.phi_hat
        for y in sorted(v_tilde(atlas, red, I, J)):
            v_i = nu.value_at(atlas, I, change.rho_idx[y])
            v_j = nu.value_at(atlas, J, y)
            if v_i is None or v_j is None:
                rep.fail("nu_undefined", pair=(I, J), point=y)
                break
            want = _phi_apply(phi, v_i)
            if not _values_equal(v_j, want):
                rep.fail("compatibility", pair=(I, J), point=y)
                break
    # partial equivariance: ν_J(αy) = ν_J(y) for α ∈ Γ_{J∖I}
    for (I, J) in nested:
        chart = atlas.charts[J]
        kernel = atlas.kernel(I, J).tolist()
        for y in sorted(v_tilde(atlas, red, I, J)):
            base = nu.value_at(atlas, J, y)
            for a in kernel:
                moved = nu.value_at(atlas, J, chart.domain.act(a, y))
                if not _values_equal(base, moved):
                    element = chart.group.elements[a]
                    rep.fail("partial_equivariance", pair=(I, J), point=y, element=element)
                    break
    # admissibility: d_yν_J(T_yV_J) ⊆ im φ̂_IJ
    for (I, J) in nested:
        chart = atlas.charts[J]
        asts = nu.asts.get(J)
        if asts is None or not chart.tangent_dims or chart.obstruction_dim == 0:
            continue
        phi_f = atlas.changes[(I, J)].phi_hat.floats()
        nu_J = compile_vector(asts, chart.tangent_dims)
        ys = sorted(v_tilde(atlas, red, I, J))
        _, jacs, error = evaluate_until_raise(nu_J, [chart.domain.points[y] for y in ys])
        for y, jac in zip(ys, jacs):
            if phi_f.shape[1] == 0:
                resid = float(np.max(np.abs(jac))) if jac.size else 0.0
            else:
                sol, res, _, _ = np.linalg.lstsq(phi_f, jac, rcond=None)
                resid = float(np.max(np.abs(phi_f @ sol - jac))) if jac.size else 0.0
            scale = max(float(np.max(np.abs(jac))) if jac.size else 0.0, 1.0)
            if resid > TAU_RANK * scale:
                rep.fail("admissibility", pair=(I, J), point=y, residual=resid)
                break
        else:
            if error is not None:
                raise error
    if zeros is not None:
        for clause, witness in _zero_failures(atlas, nu, C, zeros):
            rep.fail(clause, **witness)
    return rep


def _zero_failures(atlas: AtlasModel, nu: Perturbation, C: Reduction | None,
                   zeros: Sequence):
    """Failures at the found zeros, as (clause, witness): transversality
    at each zero, then precompactness of the zero set relative to C."""
    compiled: dict = {}  # chart -> (s, ν), compiled once
    for z in zeros:
        I, coords = z[0], z[1]
        chart = atlas.charts[I]
        if chart.obstruction_dim == 0 and not chart.tangent_dims:
            continue
        nu_asts = nu.asts.get(I)
        if nu_asts is None:
            yield "transversality_data_missing", {"index": I}
            continue
        if I not in compiled:
            dims = chart.tangent_dims
            compiled[I] = (compile_vector(chart.section_asts or (), dims),
                           compile_vector(nu_asts, dims))
        s, n = compiled[I]
        jac = s([coords])[1][0] + n([coords])[1][0]
        sv = np.linalg.svd(jac, compute_uv=False)
        if len(sv) == 0 or sv[-1] <= TAU_RANK * max(sv[0], 1.0):
            yield "transversality", {"index": I, "point": list(coords)}
    if C is not None:
        for z in zeros:
            I, coords = z[0], z[1]
            if not _zero_in_C(atlas, C, I, coords):
                point = [float(c) for c in coords]
                yield "zero_escapes_C", {"index": I, "point": point}


def _zero_in_C(atlas: AtlasModel, C: Reduction, I: tuple, coords) -> bool:
    """Membership of a (possibly floating) zero in ⋃ρ-images of C."""
    fl = [float(c) for c in coords]
    if C.contains_float(I, fl):
        return True
    for (H, J), change in atlas.changes.items():
        if J != I or change.rho_asts is None:
            continue
        if change.lifted_pred is not None and not eval_pred(change.lifted_pred, fl):
            continue
        down = [float(v) for v in eval_vector(change.rho_asts, fl)]
        if C.contains_float(H, down):
            return True
    return False


# ---------------------------------------------------------------------------
# adaptedness constants
# ---------------------------------------------------------------------------


def _hat_ball(atlas: AtlasModel, I: tuple, base: frozenset, radius) -> frozenset:
    """Samples of chart I within metric distance ≤ radius of the set
    (distances measured between intermediate classes)."""
    if not base:
        return frozenset()
    cls = atlas.charts[I].domain.class_index_of()
    rows = atlas.key_offset[I] + np.array([cls[x] for x in range(len(cls))])
    base_cols = np.unique(rows[sorted(base)])
    metric = atlas.metric
    near = metric.num[np.ix_(rows, base_cols)].min(axis=1) <= metric.threshold(radius)
    return frozenset(base).union(np.flatnonzero(near).tolist())


def _projected_ball(atlas: AtlasModel, keys: set, radius) -> set:
    """Intermediate keys within distance ≤ radius of the key set."""
    if not keys:
        return set()
    offset = atlas.key_offset
    base_cols = [offset[I] + ci for I, ci in keys]
    metric = atlas.metric
    near = metric.num[:, base_cols].min(axis=1) <= metric.threshold(radius)
    every = atlas.intermediate_keys()
    return set(keys).union(every[i] for i in np.flatnonzero(near).tolist())


def _delta_conditions(atlas: AtlasModel, closure_keys: dict, inter,
                      delta: Fraction) -> bool:
    """``closure_keys`` maps each index I to the intermediate keys of the
    closure of V_I; ``inter`` is the intermediate realization."""
    indices = atlas.index_sets()
    # hat balls stay inside the chart domains (sample surrogate: the ball
    # of the declared closure still consists of chart samples — always
    # true extensionally — plus separation of non-nested reductions)
    proj = {I: _projected_ball(atlas, closure_keys[I], 2 * delta) for I in indices}
    for I in indices:
        for J in indices:
            if I >= J:
                continue
            if set(I) <= set(J) or set(J) <= set(I):
                continue
            a = {inter.class_of[k] for k in proj[I]}
            b = {inter.class_of[k] for k in proj[J]}
            if a & b:
                return False
    return True


def compute_adaptedness_constants(
    atlas: AtlasModel,
    V: Reduction,
    C: Reduction,
    norms: EquivariantNorms,
    delta: Fraction | None = None,
    sigma_representative: bool = True,
) -> AdaptednessConstants:
    """δ_V, the nested enlargements V_I^k, N^k_JI, C̃_J, η_k and σ."""
    if atlas.metric is None:
        raise ValueError("adaptedness constants require an atlas metric")
    indices = atlas.index_sets()
    eps = epsilon_closure_radius(atlas)
    closure_keys = {}
    for I in indices:
        cls = atlas.charts[I].domain.class_index_of()
        closure_keys[I] = {(I, cls[x]) for x in closure_of(atlas, V, I, eps)}
    inter = realize_intermediate(atlas)
    delta_V = None
    k = 2
    while k <= 12:
        cand = Fraction(1, 2**k)
        if _delta_conditions(atlas, closure_keys, inter, cand):
            delta_V = cand
            break
        k += 1
    if delta_V is None:
        raise ValueError("no dyadic delta_V <= 1/4 satisfies the ball conditions")
    if delta is None:
        delta = delta_V / 2
    if not (0 < delta < delta_V):
        raise ValueError(f"delta must lie in (0, delta_V={delta_V})")

    M_K = max(len(I) for I in indices)
    depth = M_K + 1
    ks: list = [Fraction(k) for k in range(0, depth + 1)]
    for j in indices:
        ks.append(Fraction(len(j)) - Fraction(1, 4))
    ks = sorted(set(ks))
    v_k: dict = {}
    for I in indices:
        for kk in ks:
            radius = float(delta) * 2.0 ** (-float(kk))
            v_k[(I, kk)] = _hat_ball(atlas, I, frozenset(V.sets[I]), radius)
    n_k: dict = {}
    for J in indices:
        for I in indices:
            if not set(I) < set(J) or (I, J) not in atlas.changes:
                continue
            change = atlas.changes[(I, J)]
            for kk in ks:
                n_k[(J, I, kk)] = frozenset(
                    y
                    for y in change.tilde_indices
                    if y in v_k[(J, kk)] and change.rho_idx[y] in v_k[(I, kk)]
                )
    c_tilde: dict = {}
    for J in indices:
        out = set(C.sets[J])
        for K in indices:
            if set(J) < set(K) and (J, K) in atlas.changes:
                change = atlas.changes[(J, K)]
                tset = set(change.tilde_indices)
                out.update(
                    change.rho_idx[y] for y in C.sets[K] if y in tset
                )
        c_tilde[J] = frozenset(out)
    eta = {}
    for kk in set(
        [Fraction(k) for k in range(1, depth + 1)]
        + [Fraction(len(J)) - Fraction(1, 2) for J in indices]
    ):
        eta[kk] = (2.0 ** (-float(kk) + 0.5)) * (1.0 - 2.0 ** (-0.25)) * float(delta)

    sigma = None
    witness = None
    for J in indices:
        kJ = Fraction(len(J))
        domain = set(v_k[(J, kJ)])
        excluded = set(c_tilde[J])
        for I in indices:
            if not set(I) < set(J) or (I, J) not in atlas.changes:
                continue
            nset = n_k[(J, I, kJ - Fraction(1, 4))]
            excluded |= _hat_ball(
                atlas, J, frozenset(nset), eta[kJ - Fraction(1, 2)]
            )
        complement = sorted(domain - excluded)
        if complement:
            values = norms.norms(atlas, J, atlas.charts[J].section_samples)
            least = int(values.num[complement].argmin())
            val = Fraction(int(values.num[complement[least]]), values.den)
            if sigma is None or val < sigma:
                sigma = val
                witness = (J, complement[least])
    return AdaptednessConstants(
        delta_V=delta_V,
        delta=delta,
        eta=eta,
        v_k=v_k,
        n_k=n_k,
        c_tilde=c_tilde,
        sigma=sigma,
        sigma_witness=witness,
        sigma_representative=sigma_representative,
        max_depth=depth,
    )


def check_adapted(
    atlas: AtlasModel,
    C: Reduction,
    norms: EquivariantNorms,
    constants: AdaptednessConstants,
    sigma,
    nu: Perturbation,
    zeros: Sequence | None = None,
) -> CheckReport:
    """Adaptedness clauses a)–e) for k = 1..M_K, extensionally."""
    rep = CheckReport("adapted")
    if constants.sigma is not None and not (0 < sigma <= constants.sigma):
        rep.fail("sigma_out_of_range", sigma=sigma, computed=constants.sigma)
    if constants.sigma is not None and constants.sigma == 0:
        rep.fail("sigma_zero")
    indices = atlas.index_sets()
    M_K = max(len(I) for I in indices)
    for k in range(1, M_K + 1):
        kk = Fraction(k)
        for I in indices:
            if len(I) > k:
                continue
            chart = atlas.charts[I]
            # a) compatibility over the enlargements
            for H in indices:
                if not set(H) < set(I) or (H, I) not in atlas.changes:
                    continue
                change = atlas.changes[(H, I)]
                vk_H = constants.v_k[(H, kk)]
                vk_I = constants.v_k[(I, kk)]
                for y in sorted(set(change.tilde_indices) & set(vk_I)):
                    if change.rho_idx[y] not in vk_H:
                        continue
                    v_h = nu.value_at(atlas, H, change.rho_idx[y])
                    v_i = nu.value_at(atlas, I, y)
                    if v_h is None or v_i is None:
                        rep.fail("a_nu_undefined", pair=(H, I), point=y, level=k)
                        break
                    want = _phi_apply(change.phi_hat, v_h)
                    if not _values_equal(v_i, want):
                        rep.fail("a_compatibility", pair=(H, I), point=y, level=k)
                        break
            # c) strong admissibility on the collar balls
            for H in indices:
                if not set(H) < set(I) or (H, I) not in atlas.changes:
                    continue
                annihilator = atlas.changes[(H, I)].image_annihilator.tolist()
                nset = constants.n_k.get((I, H, kk), frozenset())
                ball = _hat_ball(
                    atlas, I, nset, constants.eta[kk]
                )
                for y in sorted(ball):
                    val = nu.value_at(atlas, I, y)
                    if val is None:
                        rep.fail("c_nu_undefined", pair=(H, I), point=y, level=k)
                        break
                    if chart.obstruction_dim == 0:
                        continue
                    # val ∈ im φ̂ exactly when the annihilator sends it to 0
                    ok = all(isinstance(c, (int, Fraction)) for c in val) and not any(
                        sum(a * c for a, c in zip(row, val)) for row in annihilator
                    )
                    if not ok:
                        rep.fail("c_strong_admissibility", pair=(H, I), point=y, level=k)
                        break
            # e) smallness over the enlargement
            for x in sorted(constants.v_k[(I, kk)]):
                val = nu.value_at(atlas, I, x)
                if val is None:
                    rep.fail("e_nu_undefined", index=I, point=x, level=k)
                    break
                if chart.obstruction_dim == 0:
                    continue
                if not (norms.norm(atlas, I, val) < sigma):
                    rep.fail("e_not_small", index=I, point=x, level=k)
                    break
    # b) transversality and d) zero-set control at found zeros
    if zeros is not None:
        names = {
            "transversality": "b_transversality",
            "zero_escapes_C": "d_zero_escapes_C",
        }
        for clause, witness in _zero_failures(atlas, nu, C, zeros):
            if clause in names:
                rep.fail(names[clause], **witness)
    return rep


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def reduction_to_json(red: Reduction) -> dict:
    out = {"sets": {_index_key(I): sorted(s) for I, s in red.sets.items()}}
    if red.preds:
        out["preds"] = {_index_key(I): p for I, p in red.preds.items()}
    if red.closures:
        out["closures"] = {
            _index_key(I): sorted(s) for I, s in red.closures.items()
        }
    return out


def reduction_from_json(data: dict) -> Reduction:
    return Reduction(
        sets={
            _index_from_key(k): frozenset(v) for k, v in data["sets"].items()
        },
        preds={
            _index_from_key(k): v for k, v in data.get("preds", {}).items()
        },
        closures={
            _index_from_key(k): frozenset(v)
            for k, v in data.get("closures", {}).items()
        },
    )


def perturbation_to_json(nu: Perturbation) -> dict:
    return {
        "asts": {_index_key(I): list(a) for I, a in nu.asts.items()},
        "samples": {
            _index_key(I): {
                str(idx): [rat_str(Fraction(c)) for c in val]
                for idx, val in vals.items()
            }
            for I, vals in nu.samples.items()
        },
    }


def perturbation_from_json(data: dict) -> Perturbation:
    return Perturbation(
        asts={
            _index_from_key(k): tuple(v) for k, v in data.get("asts", {}).items()
        },
        samples={
            _index_from_key(k): {
                int(idx): tuple(parse_rat(c) for c in val)
                for idx, val in vals.items()
            }
            for k, vals in data.get("samples", {}).items()
        },
    )


def norms_to_json(norms: EquivariantNorms) -> dict:
    return {"maps": {str(i): T.to_json() for i, T in norms.maps.items()}}


def norms_from_json(data: dict) -> EquivariantNorms:
    return EquivariantNorms(
        maps={
            int(i): RationalMatrix.from_json(T, f"norms: map {i}")
            for i, T in data["maps"].items()
        }
    )
