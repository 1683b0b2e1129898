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
from typing import NamedTuple, Sequence

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
    _ints,
    _matmul,
    _scaled,
    check_category,
    composition_table,
)
from .exterior_engine import eliminate, parse_rat
from .expressions import eval_pred, eval_pred_rows, eval_vector, evaluate_until_raise

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
        return pred is not None and eval_pred(pred, list(coords))


@dataclass
class Perturbation:
    """ν_I on V_I: declared exact sample values and/or smooth ASTs.

    ``samples`` holds the declared values of each chart I as (the sample
    indices, a (k, m_I) :class:`RationalArray` of their values);
    the constructor also takes {sample index: rational sequence} per chart
    and converts it once, raising ``ValueError`` naming the chart for rows
    of unequal length or values that do not fit int64.  At a sample
    without a declared value, ν_I is the value of its ASTs."""

    asts: dict = field(default_factory=dict)  # I -> tuple of ASTs
    samples: dict = field(default_factory=dict)  # I -> (int array, RationalArray)

    def __post_init__(self):
        self.samples = {I: _declared(I, v) for I, v in self.samples.items()}


def _declared(I: tuple, values) -> tuple:
    """{sample index: value} as (indices, rows) in the same order; the pair as it is."""
    if not isinstance(values, dict):
        return values
    where = f"chart {I}: perturbation samples"
    index = RationalArray.of(list(values), where, (-1,))  # the indices, checked to fit int64
    return index.num, RationalArray.of(list(values.values()), where, (len(values), -1))


class _Rows(NamedTuple):
    """ν at a batch of samples of one chart.  A component is exact in
    ``exact`` or a float in ``floats`` (0 in the other), as ``rational``
    marks; ``defined`` is False where ν has no value, and ``errors`` maps
    a batch position to what evaluating ν there raised."""

    exact: RationalArray
    floats: np.ndarray
    rational: np.ndarray
    defined: np.ndarray
    errors: dict

    def all_floats(self) -> np.ndarray:
        return np.where(self.rational, self.exact.floats(), self.floats)


class _Values:
    """ν at the samples of an atlas: declared rows looked up per batch, the
    others from ν's ASTs by the interpreter at the exact sample
    coordinates, each sample evaluated at most once."""

    def __init__(self, atlas: AtlasModel, nu: Perturbation):
        self.atlas, self.nu = atlas, nu
        self.evaluated: dict = {}  # (I, sample) -> value list, None or exception

    def _evaluate(self, I: tuple, x: int):
        if (I, x) not in self.evaluated:
            asts = self.nu.asts.get(I)
            try:
                points = self.atlas.charts[I].domain.points
                coords = RationalArray(points.num[x], points.den).fractions()
                self.evaluated[(I, x)] = None if asts is None else eval_vector(asts, coords)
            except Exception as ex:  # raised where a check reaches this sample
                self.evaluated[(I, x)] = ex
        return self.evaluated[(I, x)]

    def rows(self, I: tuple, samples) -> _Rows:
        m, where = self.atlas.charts[I].obstruction_dim, f"chart {I}: perturbation"
        samples = np.asarray(samples, dtype=np.int64)
        none = (samples[:0], RationalArray(np.zeros((0, m), dtype=np.int64), 1))
        index, declared = self.nu.samples.get(I, none)
        if len(index) and declared.num.shape[1] != m:
            raise ValueError(f"{where} samples have {declared.num.shape[1]} values, not {m}")
        known = np.isin(samples, index)
        defined, errors = known | (m == 0), {}
        floats, rational = np.zeros((len(samples), m)), np.ones((len(samples), m), dtype=bool)
        rows = []
        for r in np.flatnonzero(~known).tolist() if m else []:
            value = self._evaluate(I, int(samples[r]))
            if isinstance(value, Exception):
                errors[r] = value
            elif value is not None:
                if len(value) != m:
                    raise ValueError(f"{where} has {len(value)} expressions, not {m}")
                rational[r] = [not isinstance(c, float) for c in value]
                rows.append([c if e else 0 for c, e in zip(value, rational[r])])
                floats[r] = [0.0 if e else c for c, e in zip(value, rational[r])]
                defined[r] = True
        rows = RationalArray.of(rows, where, (len(rows), m))
        den = math.lcm(rows.den, declared.den)
        num = np.zeros((len(samples), m), dtype=np.int64)
        order = np.argsort(index)
        at = order[np.searchsorted(index, samples[known], sorter=order)]
        num[known] = _scaled(declared, den, where)[at]
        num[defined & ~known & (m > 0)] = _scaled(rows, den, where)
        return _Rows(RationalArray(num, den), floats, rational, defined, errors)


@dataclass
class EquivariantNorms:
    """Per-basic-chart norms: max of coordinates after a declared
    Γ_i-invariant rational linear change; product charts take the max over
    the summands.  ``maps`` holds the changes as (rows, m_i)
    :class:`RationalArray` s; the constructor also takes rational rows and
    converts them once."""

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
            if chart.obstruction_dim and eliminate(T.num).rank != chart.obstruction_dim:
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
    change, v_I, v_J = atlas.changes[(I, J)], red.sets[I], red.sets[J]
    return frozenset(y for y in change.tilde_indices if y in v_J and change.rho_idx[y] in v_I)


def v_tilde_via_projection(atlas: AtlasModel, red: Reduction, I: tuple, J: tuple) -> frozenset:
    """Ṽ_IJ computed as V_J ∩ π_K⁻¹(π_K(V_I)) via the realization."""
    if I == J:
        return frozenset(red.sets[I])
    inter = atlas.intermediate_classes()
    target_classes = set(inter[atlas.sample_rows(I)[sorted(red.sets[I])]].tolist())
    rows_J = atlas.sample_rows(J)
    return frozenset(y for y in red.sets[J] if inter[rows_J[y]] in target_classes)


def hij_identity_holds(atlas: AtlasModel, red: Reduction, F: tuple, I: tuple, J: tuple) -> bool:
    """V_J ∩ ρ_IJ⁻¹(Ṽ_FI) = Ṽ_IJ ∩ Ṽ_FJ for F ⊂ I ⊂ J."""
    change, vt_FI = atlas.changes[(I, J)], v_tilde(atlas, red, F, I)
    lhs = frozenset(
        y for y in change.tilde_indices if y in red.sets[J] and change.rho_idx[y] in vt_FI
    )
    return lhs == v_tilde(atlas, red, I, J) & v_tilde(atlas, red, F, J)


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
            for x, holds in enumerate(eval_pred_rows(pred, chart.domain.points)):
                if holds != (x in v):
                    rep.fail("predicate_mismatch", index=I, point=x)
                    break
    eps = epsilon_closure_radius(atlas)
    closures = {I: closure_of(atlas, red, I, eps) for I in indices}
    # (ii) precompact surrogate + zero intersection
    for I in indices:
        chart = atlas.charts[I]
        n = len(chart.domain.points)
        if any(not 0 <= x < n for x in closures[I]):
            rep.fail("closure_escapes_domain", index=I)
        v = red.sets[I]
        if v and not (set(v) & set(chart.zero_sample_indices())):
            rep.fail("misses_zero_set", index=I)
    # (iii) closure overlaps only for nested indices
    inter = atlas.intermediate_classes()
    proj_closure = {I: set(inter[_closure_rows(atlas, I, closures[I])].tolist()) for I in indices}
    for I in indices:
        for J in indices:
            nested = set(I) <= set(J) or set(J) <= set(I)
            if I < J and not nested and (proj_closure[I] & proj_closure[J]):
                rep.fail("closure_overlap_not_nested", pair=(I, J))
    # (iv) zero-set coverage
    covered = {
        atlas.charts[I].footprint_map[x]
        for I in indices
        for x in set(red.sets[I]) & set(atlas.charts[I].zero_sample_indices())
    }
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
                if g != chart.group.identity and any(chart.domain.act(g, y) == y for y in vt):
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
    (J, y)), so the category is nonsingular by construction; "(I, J, y) then
    (J, K, z)" is (I, K, z), so it is associative and unital by construction."""
    rep = CheckReport("pruned_category")
    indices = atlas.index_sets()
    objects = [(I, x) for I in indices for x in sorted(red.sets[I])]
    morphisms = []
    src: dict = {}
    tgt: dict = {}
    for I in indices:
        for J in indices:
            if not set(I) <= set(J) or (I != J and (I, J) not in atlas.changes):
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


def _same(a: _Rows, b: _Rows, where: str) -> np.ndarray:
    """Per row, a = b: exactly where both rows are wholly rational, else
    every component within ``TAU_EQ`` in floats."""
    same = _equal(a.exact, b.exact, where).all(axis=1)
    exact = a.rational.all(axis=1) & b.rational.all(axis=1)
    if exact.all():
        return same
    with np.errstate(invalid="ignore"):
        close = (np.abs(a.all_floats() - b.all_floats()) <= TAU_EQ).all(axis=1)
    return np.where(exact, same, close)


def _sums(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Σ_k a_rk·x_k for each row x of ``x`` and row r of ``a``, summed left
    to right from 0 as Python sums float products."""
    out = np.zeros((len(x), len(a)))
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(x.shape[1]):
            out = out + x[:, k, None] * a[:, k]
    return out


def _pushed(phi: RationalArray, v: _Rows, where: str) -> _Rows:
    """φ̂·v per row: exact for a wholly rational row, else :func:`_sums` in
    floats."""
    exact = _matmul(v.exact, phi.mT, where)
    whole = v.rational.all(axis=1)
    floats = exact.num * 0.0 if whole.all() else _sums(v.all_floats(), phi.floats())
    rational = np.broadcast_to(whole[:, None], exact.num.shape)
    return _Rows(exact, floats, rational, v.defined, v.errors)


def _stops(bad: np.ndarray, errors: dict) -> list:
    """(loop, step) for each loop that fails, where loop r runs over row r
    of ``bad`` and stops at its first failing step.  ``errors`` maps a step
    (r · steps + step) to what evaluating ν raised there; where a loop
    stops at one, the first such is raised."""
    hit = np.flatnonzero(bad.any(axis=1)).tolist()
    stops = list(zip(hit, bad[hit].argmax(axis=1).tolist())) if hit else []
    for r, step in stops:
        if r * bad.shape[1] + step in errors:
            raise errors[r * bad.shape[1] + step]
    return stops


def _incompatible(values: _Values, I: tuple, J: tuple, ys: list) -> list:
    """[(y, undefined)] for the first y of ``ys`` at which ν_J =
    φ̂_IJ∘ν_I∘ρ_IJ fails, where a loop over ``ys`` that reads ν_I(ρ_IJ(y)),
    then ν_J(y), stops (``undefined``: ν has no value there), or []."""
    change = values.atlas.changes[(I, J)]
    src = values.rows(I, [change.rho_idx[y] for y in ys])
    tgt = values.rows(J, ys)
    where = f"perturbation {I}->{J}"
    defined = src.defined & tgt.defined
    bad = ~defined | ~_same(tgt, _pushed(change.phi_hat, src, where), where)
    return [(ys[y], not defined[y]) for _, y in _stops(bad[None], tgt.errors | src.errors)]


def _nested(atlas: AtlasModel) -> list:
    """The pairs (I, J), I ⊊ J, with a coordinate change, in index order."""
    indices = atlas.index_sets()
    return [
        (I, J) for I in indices for J in indices if set(I) < set(J) and (I, J) in atlas.changes
    ]


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
    nested = _nested(atlas)
    values = _Values(atlas, nu)
    # compatibility ν_J = φ̂_IJ∘ν_I∘ρ_IJ on Ṽ_IJ
    for (I, J) in nested:
        for y, undefined in _incompatible(values, I, J, sorted(v_tilde(atlas, red, I, J))):
            rep.fail("nu_undefined" if undefined else "compatibility", pair=(I, J), point=y)
    # partial equivariance: ν_J(αy) = ν_J(y) for α ∈ Γ_{J∖I}, the first
    # failing α per y
    for (I, J) in nested:
        chart = atlas.charts[J]
        kernel = atlas.kernel(I, J)
        ys = sorted(v_tilde(atlas, red, I, J))
        base = values.rows(J, np.repeat(ys, len(kernel)))
        moved = values.rows(J, chart.domain.perms[kernel][:, ys].T.ravel())
        same = base.defined & moved.defined & _same(base, moved, f"chart {J}")
        bad = ~same.reshape(len(ys), len(kernel))
        for r, a in _stops(bad, moved.errors | base.errors):
            element = chart.group.elements[kernel[a]]
            rep.fail("partial_equivariance", pair=(I, J), point=ys[r], element=element)
    # admissibility: d_yν_J(T_yV_J) ⊆ im φ̂_IJ
    for (I, J) in nested:
        chart = atlas.charts[J]
        asts = nu.asts.get(J)
        if asts is None or not chart.tangent_dims or chart.obstruction_dim == 0:
            continue
        phi_f = atlas.changes[(I, J)].phi_hat.floats()
        nu_J = atlas.compiled(asts, chart.tangent_dims)
        ys = sorted(v_tilde(atlas, red, I, J))
        _, jacs, error = evaluate_until_raise(nu_J, chart.domain.coordinates[_ints(ys)])
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
    for z in zeros:
        I, coords = z[0], z[1]
        chart = atlas.charts[I]
        if chart.obstruction_dim == 0 and not chart.tangent_dims:
            continue
        nu_asts = nu.asts.get(I)
        if nu_asts is None:
            yield "transversality_data_missing", {"index": I}
            continue
        s = atlas.compiled(chart.section_asts or (), chart.tangent_dims)
        n = atlas.compiled(nu_asts, chart.tangent_dims)
        jac = s([coords])[1][0] + n([coords])[1][0]
        sv = np.linalg.svd(jac, compute_uv=False)
        if len(sv) == 0 or sv[-1] <= TAU_RANK * max(sv[0], 1.0):
            yield "transversality", {"index": I, "point": list(coords)}
    if C is not None:
        for z in zeros:
            I, coords = z[0], z[1]
            if not _zero_in_C(atlas, C, I, coords):
                yield "zero_escapes_C", {"index": I, "point": [float(c) for c in coords]}


def _zero_in_C(atlas: AtlasModel, C: Reduction, I: tuple, coords) -> bool:
    """Membership of a (possibly floating) zero in ⋃ρ-images of C."""
    fl = [float(c) for c in coords]
    if C.contains_float(I, fl):
        return True
    for (H, J), change in atlas.changes.items():
        if J != I or change.rho_asts is None or (
            change.lifted_pred is not None and not eval_pred(change.lifted_pred, fl)
        ):
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
    rows = atlas.sample_rows(I)
    # a column repeated in the minimum changes nothing
    dist = atlas.metric.num[np.ix_(rows, rows[sorted(base)])].min(axis=1)
    return frozenset(base).union(np.flatnonzero(dist <= atlas.metric.threshold(radius)).tolist())


def _closure_rows(atlas: AtlasModel, I: tuple, closure) -> np.ndarray:
    """The metric rows of the samples of ``closure``; a declared closure
    may name samples the chart lacks (``closure_escapes_domain``): they
    have no row."""
    rows = atlas.sample_rows(I)
    return rows[[x for x in closure if 0 <= x < len(rows)]]


def _projected_ball(atlas: AtlasModel, rows: set, radius) -> set:
    """Metric rows within distance ≤ radius of the row set."""
    if not rows:
        return set()
    near = atlas.metric.num[:, sorted(rows)].min(axis=1) <= atlas.metric.threshold(radius)
    return set(rows).union(np.flatnonzero(near).tolist())


def _delta_conditions(atlas: AtlasModel, closure_rows: dict, inter: np.ndarray,
                      delta: Fraction) -> bool:
    """The 2δ-balls about the closures of non-nested reductions are
    disjoint at quotient level.  ``closure_rows`` maps each index I to the
    metric rows of the closure of V_I; ``inter`` is |K̲| on metric rows
    (:meth:`AtlasModel.intermediate_classes`)."""
    indices = atlas.index_sets()
    proj = {
        I: set(inter[sorted(_projected_ball(atlas, closure_rows[I], 2 * delta))].tolist())
        for I in indices
    }
    return not any(
        proj[I] & proj[J]
        for I in indices
        for J in indices
        if I < J and not (set(I) <= set(J) or set(J) <= set(I))
    )


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
    closure_rows = {
        I: set(_closure_rows(atlas, I, closure_of(atlas, V, I, eps)).tolist()) for I in indices
    }
    inter = atlas.intermediate_classes()
    delta_V = next(
        (Fraction(1, 2**k) for k in range(2, 13)
         if _delta_conditions(atlas, closure_rows, inter, Fraction(1, 2**k))),
        None,
    )
    if delta_V is None:
        raise ValueError("no dyadic delta_V <= 1/4 satisfies the ball conditions")
    if delta is None:
        delta = delta_V / 2
    if not (0 < delta < delta_V):
        raise ValueError(f"delta must lie in (0, delta_V={delta_V})")

    nested = _nested(atlas)
    depth = max(len(I) for I in indices) + 1
    ks = sorted({Fraction(k) for k in range(depth + 1)}
                | {Fraction(len(j)) - Fraction(1, 4) for j in indices})
    v_k = {
        (I, kk): _hat_ball(atlas, I, frozenset(V.sets[I]), float(delta) * 2.0 ** (-float(kk)))
        for I in indices
        for kk in ks
    }
    n_k: dict = {}
    c_tilde = {J: set(C.sets[J]) for J in indices}
    for I, J in nested:
        change = atlas.changes[(I, J)]
        for kk in ks:
            v_J, v_I = v_k[(J, kk)], v_k[(I, kk)]
            n_k[(J, I, kk)] = frozenset(
                y for y in change.tilde_indices if y in v_J and change.rho_idx[y] in v_I
            )
        tset = set(change.tilde_indices)
        c_tilde[I].update(change.rho_idx[y] for y in C.sets[J] if y in tset)
    c_tilde = {J: frozenset(c) for J, c in c_tilde.items()}
    eta = {}
    for kk in set(
        [Fraction(k) for k in range(1, depth + 1)]
        + [Fraction(len(J)) - Fraction(1, 2) for J in indices]
    ):
        eta[kk] = (2.0 ** (-float(kk) + 0.5)) * (1.0 - 2.0 ** (-0.25)) * float(delta)

    sigma = witness = None
    for J in indices:
        kJ = Fraction(len(J))
        excluded = set(c_tilde[J])
        for I in [H for H, K in nested if K == J]:
            nset = n_k[(J, I, kJ - Fraction(1, 4))]
            excluded |= _hat_ball(atlas, J, nset, eta[kJ - Fraction(1, 2)])
        complement = sorted(set(v_k[(J, kJ)]) - excluded)
        if complement:
            values = norms.norms(atlas, J, atlas.charts[J].section_samples)
            least = int(values.num[complement].argmin())
            val = Fraction(int(values.num[complement[least]]), values.den)
            if sigma is None or val < sigma:
                sigma, witness = val, (J, complement[least])
    return AdaptednessConstants(
        delta_V=delta_V, delta=delta, eta=eta, v_k=v_k, n_k=n_k, c_tilde=c_tilde, sigma=sigma,
        sigma_witness=witness, sigma_representative=sigma_representative, max_depth=depth,
    )


def _small(norms: EquivariantNorms, atlas: AtlasModel, I: tuple, v: _Rows,
           sigma) -> np.ndarray:
    """Per row of ``v``, whether the norm of each block of E_I is below σ:
    a wholly rational block's exactly, and another block's from the float
    sums Σ_k T_rk·v_k taken left to right, max over r, compared with σ
    exactly.  A block whose first sum is NaN is passed over."""
    keep = np.ones(v.rational.shape, dtype=bool)
    ok = np.ones(len(v.defined), dtype=bool)
    for i, lo, hi in norms._blocks(atlas, I):
        rational = v.rational[:, lo:hi].all(axis=1)
        keep[:, lo:hi] = rational[:, None]
        if rational.all():
            continue
        size = np.abs(_sums(v.all_floats()[:, lo:hi], norms.maps[i].floats()))
        size = np.fmax.reduce(np.where(np.isnan(size[:, :1]), 0.0, size), axis=1, initial=0.0)
        ok &= rational | np.array([s < sigma for s in size.tolist()], dtype=bool)
    exact = norms.norms(atlas, I, RationalArray(np.where(keep, v.exact.num, 0), v.exact.den))
    return ok & np.array([Fraction(n, exact.den) < sigma for n in exact.num.tolist()], dtype=bool)


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
    nested, values = _nested(atlas), _Values(atlas, nu)
    for k in range(1, M_K + 1):
        kk = Fraction(k)
        for I in indices:
            if len(I) > k:
                continue
            m, where = atlas.charts[I].obstruction_dim, f"chart {I}"
            below = [H for H, J in nested if J == I]
            # a) compatibility over the enlargements
            for H in below:
                change = atlas.changes[(H, I)]
                vk_H = constants.v_k[(H, kk)]
                ys = [
                    y for y in sorted(set(change.tilde_indices) & set(constants.v_k[(I, kk)]))
                    if change.rho_idx[y] in vk_H
                ]
                for y, undefined in _incompatible(values, H, I, ys):
                    clause = "a_nu_undefined" if undefined else "a_compatibility"
                    rep.fail(clause, pair=(H, I), point=y, level=k)
            # c) strong admissibility on the collar balls: ν ∈ im φ̂ exactly
            # when it is rational and the annihilator sends it to 0
            for H in below:
                nset = constants.n_k.get((I, H, kk), frozenset())
                ball = sorted(_hat_ball(atlas, I, nset, constants.eta[kk]))
                val = values.rows(I, ball)
                annihilator = RationalArray(atlas.changes[(H, I)].image_annihilator.T, 1)
                image = ~_matmul(val.exact, annihilator, where).num.any(axis=1)
                inside = val.rational.all(axis=1) & image
                for _, y in _stops((~val.defined | (m > 0) & ~inside)[None], val.errors):
                    clause = "c_strong_admissibility" if val.defined[y] else "c_nu_undefined"
                    rep.fail(clause, pair=(H, I), point=ball[y], level=k)
            # e) smallness over the enlargement
            xs = sorted(constants.v_k[(I, kk)])
            val = values.rows(I, xs)
            small = _small(norms, atlas, I, val, sigma)
            for _, x in _stops((~val.defined | (m > 0) & ~small)[None], val.errors):
                clause = "e_not_small" if val.defined[x] else "e_nu_undefined"
                rep.fail(clause, index=I, point=xs[x], level=k)
    # b) transversality and d) zero-set control at found zeros
    if zeros is not None:
        names = {"transversality": "b_transversality", "zero_escapes_C": "d_zero_escapes_C"}
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
            _index_key(I): {str(x): row for x, row in zip(index.tolist(), rows.strings())}
            for I, (index, rows) in nu.samples.items()
        },
    }


def perturbation_from_json(data: dict) -> Perturbation:
    return Perturbation(
        asts={_index_from_key(k): tuple(v) for k, v in data.get("asts", {}).items()},
        samples={
            _index_from_key(k): {int(x): [parse_rat(c) for c in row] for x, row in rows.items()}
            for k, rows in data.get("samples", {}).items()
        },
    )


def norms_to_json(norms: EquivariantNorms) -> dict:
    return {"maps": {str(i): T.to_json() for i, T in norms.maps.items()}}


def norms_from_json(data: dict) -> EquivariantNorms:
    return EquivariantNorms(
        {int(i): RationalArray.from_json(T, f"norms: map {i}") for i, T in data["maps"].items()}
    )
