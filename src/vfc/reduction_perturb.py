"""Reductions, pruned categories, perturbations, adaptedness constants.

A *reduction* selects per-index sample subsets V_I of the chart domains
(plus optional declared closures); the precompact core C is one too.  A
float point, such as a zero Newton found, lies in a sample set when its
nearest sample does (:meth:`~vfc.charts_atlas.GroupQuotientModel.nearest`).
A *perturbation* assigns obstruction-valued data ν_I on V_I, as declared
exact sample values and/or smooth ASTs.

Metric conventions: the atlas metric lives on intermediate keys
``(I, class_index)``; a "hat" ball in chart J is the preimage of the
metric ball at quotient level (hence automatically Γ_J-invariant).
A ball about a set of metric rows reads one distance vector per set, the
least column of the metric's integer matrix over it, made once per atlas
(:meth:`AtlasModel.distance`), against one threshold per radius
(:meth:`RationalArray.threshold`).  Sample sets are checked as masks.
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
    RationalArray,
    _check_asts,
    _equal,
    _flat,
    _index_from_key,
    _index_key,
    _ints,
    _matmul,
    _object,
    _reject_removed,
    _runs,
    _scaled,
    _where,
)
from .exterior_engine import eliminate, parse_rat
from .expressions import eval_vector, evaluate_until_raise

__all__ = [
    "TAU_EQ",
    "Reduction",
    "Perturbation",
    "EquivariantNorms",
    "AdaptednessConstants",
    "epsilon_closure_radius",
    "closure_of",
    "v_tilde",
    "check_reduction",
    "build_pruned_category",
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
    """Sample subsets V_I ⊆ U_I with optional declared closures."""

    sets: dict  # I -> frozenset of sample indices
    closures: dict = field(default_factory=dict)  # I -> frozenset (declared)


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
        self.places: dict = {}  # I -> per sample of chart I its declared row or -1, then -1

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
        if I not in self.places:
            self.places[I] = np.full(len(self.atlas.sample_rows(I)) + 1, -1, dtype=np.int64)
            inside = (index >= 0) & (index < len(self.places[I]) - 1)
            self.places[I][index[inside]] = _where(inside)
        place = self.places[I]
        at = place[np.where((samples >= 0) & (samples < len(place) - 1), samples, -1)]
        known = at >= 0
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
        num[known] = _scaled(declared, den, where)[at[known]]
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


# ---------------------------------------------------------------------------
# derived sets
# ---------------------------------------------------------------------------


def epsilon_closure_radius(atlas: AtlasModel):
    """Default closure-ball radius: half the minimal nonzero spacing, or
    ``None`` without a metric (:attr:`AtlasModel.closure_radius`)."""
    return atlas.closure_radius


def _members(atlas: AtlasModel, I: tuple, values) -> np.ndarray:
    """The samples of chart I that are in ``values`` (an int array or a set), as a mask."""
    x = values if isinstance(values, np.ndarray) else np.fromiter(values, np.int64, len(values))
    mask = np.zeros(len(atlas.sample_rows(I)), dtype=bool)
    mask[x[(x >= 0) & (x < len(mask))]] = True
    return mask


def _among(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per entry of ``x``, whether it is a sample in ``mask``; an index
    outside the chart is in no set."""
    inside = (x >= 0) & (x < len(mask))
    return np.append(mask, False)[np.where(inside, x, len(mask))]


def _over(change, in_J: np.ndarray, in_I: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The samples y of Ũ_IJ with y in the mask ``in_J`` and ρ_IJ(y) in
    ``in_I``, sorted and each once, and ρ_IJ(y) of each."""
    keep = _among(in_J, change.tilde) & _among(in_I, change.rho)
    order = np.argsort(change.tilde[keep], kind="stable")
    ys, xs = change.tilde[keep][order], change.rho[keep][order]
    first = np.ones(len(ys), dtype=bool)
    first[1:] = ys[1:] != ys[:-1]
    return ys[first], xs[first]


def _tilde(atlas: AtlasModel, red: Reduction, I: tuple, J: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Ṽ_IJ = V_J ∩ ρ_IJ⁻¹(V_I), sorted, and ρ_IJ of each (Ṽ_II = V_I);
    a sample outside its chart is in no set (``sample_outside_chart``)."""
    if I == J:
        v = _where(_members(atlas, I, red.sets[I]))
        return v, v
    in_J, in_I = (_members(atlas, K, red.sets[K]) for K in (J, I))
    return _over(atlas.changes[(I, J)], in_J, in_I)


def closure_of(atlas: AtlasModel, red: Reduction, I: tuple, eps) -> frozenset:
    """Declared closure if present, else the metric ε-ball, else V_I.

    ``eps`` is :func:`epsilon_closure_radius` of the atlas, which callers
    compute once for all their indices."""
    if I in red.closures:
        return red.closures[I]
    if eps is not None:
        return frozenset(_where(_ball(atlas, I, _members(atlas, I, red.sets[I]), eps)).tolist())
    return frozenset(red.sets[I])


def v_tilde(atlas: AtlasModel, red: Reduction, I: tuple, J: tuple) -> frozenset:
    """Ṽ_IJ = V_J ∩ ρ_IJ⁻¹(V_I) (with Ṽ_II = V_I)."""
    return frozenset(_tilde(atlas, red, I, J)[0].tolist())


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
            continue
        x = _ints(sorted(red.sets[I]))
        rep.fail_first("sample_outside_chart", (x >= 0) & (x < len(atlas.sample_rows(I))),
                       lambda p: {"index": I, "point": int(x[p])})
    if not rep.ok:
        return rep
    member = {I: _members(atlas, I, red.sets[I]) for I in indices}
    # (i) Γ-invariance (equivalently: pulled back from the quotient)
    for I in indices:
        chart = atlas.charts[I]
        moved = chart.domain.perms[:, _ints(sorted(red.sets[I]))]
        rep.fail_first("not_invariant", _among(member[I], moved).all(axis=1),
                       lambda g: {"index": I, "element": chart.group.elements[g]})
    eps = epsilon_closure_radius(atlas)
    closures = {I: closure_of(atlas, red, I, eps) for I in indices}
    # (ii) precompact surrogate + zero intersection, with the zeros in V_I
    zeros = {I: _ints(atlas.charts[I].zero_sample_indices()) for I in indices}
    zeros = {I: z[member[I][z]] for I, z in zeros.items()}
    for I in indices:
        if closures[I] and (min(closures[I]) < 0 or max(closures[I]) >= len(member[I])):
            rep.fail("closure_escapes_domain", index=I)
        if red.sets[I] and not zeros[I].size:
            rep.fail("misses_zero_set", index=I)
    # (iii) closure overlaps only for nested indices
    inter = atlas.intermediate_classes()
    # a declared closure may name samples the chart lacks: they have no row
    rows = {I: atlas.sample_rows(I)[_members(atlas, I, closures[I])] for I in indices}
    proj_closure = {I: set(inter[rows[I]].tolist()) for I in indices}
    for I in indices:
        for J in indices:
            nested = set(I) <= set(J) or set(J) <= set(I)
            if I < J and not nested and (proj_closure[I] & proj_closure[J]):
                rep.fail("closure_overlap_not_nested", pair=(I, J))
    # (iv) zero-set coverage
    covered = {atlas.charts[I].footprint_map[x] for I in indices for x in zeros[I].tolist()}
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
            chart, kernel = atlas.charts[I], atlas.kernel(F, I)
            ys = _tilde(atlas, red, F, I)[0]
            fixes = (chart.domain.perms[kernel][:, ys] == ys).any(axis=1)
            rep.fail_first("partial_isotropy_not_free", ~fixes | (kernel == chart.group.identity),
                           lambda a: {"pair": (F, I), "element": chart.group.elements[kernel[a]]})
    return rep


# ---------------------------------------------------------------------------
# pruned category
# ---------------------------------------------------------------------------


def build_pruned_category(atlas: AtlasModel, red: Reduction) -> CheckReport:
    """The pruned category B_K|_V: objects ⨆V_I, morphisms (I, J, y) for y
    in Ṽ_IJ with the isotropy dropped, checked by its chain facts.

    (I, J, y) runs from (I, ρ_IJ(y)) to (J, y), and "(I, J, y) then (J, K, z)"
    is (I, K, z), so endpoints, identities, the identity laws and
    associativity hold by construction.  Two facts can fail, both on chains
    I ⊊ J ⊊ K: for z in Ṽ_JK with y = ρ_JK(z) in Ṽ_IJ, z lies in Ṽ_IK
    (else ``composition_escapes``) and ρ_IK(z) = ρ_IJ(y).  Pairs are taken
    in the category's order (morphisms numbered by block (I, J) in index
    order, then by y), and the first failing pair is also reported as the
    category axiom it breaks: ``compose_endpoints`` where the second fact
    fails, else ``composable_pair_undefined``."""
    rep = CheckReport("pruned_category")
    indices = atlas.index_sets()
    blocks = _ints([(i, j) for i, I in enumerate(indices) for j, J in enumerate(indices)
                    if set(I) <= set(J) and (I == J or (I, J) in atlas.changes)]).reshape(-1, 2)
    tildes = [_tilde(atlas, red, indices[i], indices[j]) for i, j in blocks.tolist()]
    (ys, start), (xs, _) = _flat(t[0] for t in tildes), _flat(t[1] for t in tildes)
    block, _ = _runs(np.diff(start))
    # place[k, y]: the morphism at sample y of the k-th block, or -1; row -1 is all -1
    place = np.full((len(blocks) + 1, int(ys.max(initial=-1)) + 1), -1)
    place[block, ys] = np.arange(len(ys))
    block_of = np.full((len(indices),) * 2, -1, dtype=np.int64)
    block_of[blocks[:, 0], blocks[:, 1]] = np.arange(len(blocks))
    # the pairs f = (I, J, y), g = (J, K, z) over chains of blocks I ≠ J ≠ K
    I, J = blocks.T
    k1, k2 = ((J[:, None] == I[None, :]) & (I != J)[:, None] & (I != J)[None, :]).nonzero()
    c, t = _runs(np.diff(start)[k2])
    g = start[k2[c]] + t
    f = place[k1[c], xs[g]]
    c, g, f = c[f >= 0], g[f >= 0], f[f >= 0]
    h = place[block_of[I[k1[c]], J[k2[c]]], ys[g]]  # (I, K, z), or -1
    order = np.lexsort((g, f))
    f, g, h = f[order], g[order], h[order]

    def label(m):
        return indices[I[block[m]]], indices[J[block[m]]], int(ys[m])

    for p in _where(h < 0).tolist():
        rep.fail("composition_escapes", pair=(label(f[p]), label(g[p])),
                 result=(label(f[p])[0], *label(g[p])[1:]))
    wrong = _where((h >= 0) & (xs[h] != xs[f]))  # ρ_IK(z) ≠ ρ_IJ(y)
    bad = wrong if wrong.size else _where(h < 0)
    if bad.size:
        axioms = CheckReport("category_axioms")
        axioms.fail("compose_endpoints" if wrong.size else "composable_pair_undefined",
                    pair=(label(f[bad[0]]), label(g[bad[0]])))
        rep.merge(axioms)
    return rep


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


def _incompatible(values: _Values, I: tuple, J: tuple, ys: np.ndarray, xs: np.ndarray) -> list:
    """[(y, undefined)] for the first y of ``ys`` at which ν_J =
    φ̂_IJ∘ν_I∘ρ_IJ fails, where a loop over ``ys`` that reads ν_I(ρ_IJ(y))
    (``xs``), then ν_J(y), stops (``undefined``: ν has no value there), or []."""
    src, tgt = values.rows(I, xs), values.rows(J, ys)
    where, phi = f"perturbation {I}->{J}", values.atlas.changes[(I, J)].phi_hat
    defined = src.defined & tgt.defined
    bad = ~defined | ~_same(tgt, _pushed(phi, src, where), where)
    return [(int(ys[y]), not defined[y]) for _, y in _stops(bad[None], tgt.errors | src.errors)]


def _residuals(phi: np.ndarray, b: np.ndarray) -> np.ndarray:
    """φ̂·x − b for the least-squares solution x of φ̂·x = b."""
    if not (phi.shape[1] and b.size):
        return b
    return phi @ np.linalg.lstsq(phi, b, rcond=None)[0] - b


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
    tildes = {(I, J): _tilde(atlas, red, I, J) for I, J in nested}
    for (I, J) in nested:
        for y, undefined in _incompatible(values, I, J, *tildes[(I, J)]):
            rep.fail("nu_undefined" if undefined else "compatibility", pair=(I, J), point=y)
    # partial equivariance: ν_J(αy) = ν_J(y) for α ∈ Γ_{J∖I}, the first
    # failing α per y
    for (I, J) in nested:
        chart = atlas.charts[J]
        kernel = atlas.kernel(I, J)
        ys = tildes[(I, J)][0]
        base = values.rows(J, np.repeat(ys, len(kernel)))
        moved = values.rows(J, chart.domain.perms[kernel][:, ys].T.ravel())
        same = base.defined & moved.defined & _same(base, moved, f"chart {J}")
        bad = ~same.reshape(len(ys), len(kernel))
        for r, a in _stops(bad, moved.errors | base.errors):
            element = chart.group.elements[kernel[a]]
            rep.fail("partial_equivariance", pair=(I, J), point=int(ys[r]), element=element)
    # admissibility: d_yν_J(T_yV_J) ⊆ im φ̂_IJ
    for (I, J) in nested:
        chart = atlas.charts[J]
        asts = nu.asts.get(J)
        if asts is None or not chart.tangent_dims or chart.obstruction_dim == 0:
            continue
        phi_f = atlas.changes[(I, J)].phi_hat.floats()
        nu_J = atlas.compiled(asts, chart.tangent_dims)
        ys = tildes[(I, J)][0]
        _, jacs, error = evaluate_until_raise(nu_J, chart.domain.coordinates[ys])
        scales = np.maximum(np.abs(jacs).max(axis=(1, 2), initial=0.0), 1.0)
        # all Jacobians as one right-hand side, but non-finite ones: they cannot
        # fail (their scale is not finite), and would spoil the others' solution
        k, m, n = jacs.shape
        rhs = np.where(np.isfinite(scales)[:, None, None], jacs, 0.0)
        resid = np.abs(_residuals(phi_f, rhs.transpose(1, 0, 2).reshape(m, k * n)))
        bad = _where(resid.reshape(m, k, n).max(axis=(0, 2), initial=0.0) > TAU_RANK * scales)
        for b in bad[:1].tolist():  # the residual as the sample alone gives it
            residual = float(np.abs(_residuals(phi_f, jacs[b])).max(initial=0.0))
            rep.fail("admissibility", pair=(I, J), point=int(ys[b]), residual=residual)
        if not bad.size and error is not None:
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


def _zero_in_C(atlas: AtlasModel, C: Reduction, J: tuple, coords) -> bool:
    """Whether a (possibly floating) zero of chart J lies in C or in a
    ρ-preimage of it: its nearest sample y lies in C_J, or in some Ũ_HJ
    with ρ_HJ(y) in C_H."""
    y = atlas.charts[J].domain.nearest(coords)
    return y in C.sets.get(J, ()) or any(
        K == J and y in change.tilde_indices and change.rho_idx[y] in C.sets.get(H, ())
        for (H, K), change in atlas.changes.items()
    )


# ---------------------------------------------------------------------------
# adaptedness constants
# ---------------------------------------------------------------------------


def _ball(atlas: AtlasModel, I: tuple, base: np.ndarray, radius) -> np.ndarray:
    """The samples of chart I within metric distance ≤ radius of the
    samples of the mask ``base``, as a mask (distances measured between
    intermediate classes)."""
    rows = atlas.sample_rows(I)
    if not base.any():
        return base
    return base | (atlas.distance(rows[base])[rows] <= atlas.metric.threshold(radius))


def _projected_ball(atlas: AtlasModel, rows: np.ndarray, radius) -> np.ndarray:
    """The metric rows within distance ≤ radius of the rows ``rows``, as a mask."""
    ball = np.zeros(len(atlas.metric.num), dtype=bool)
    if len(rows):
        ball |= atlas.distance(rows) <= atlas.metric.threshold(radius)
        ball[rows] = True
    return ball


def _delta_conditions(atlas: AtlasModel, closure_rows: dict, inter: np.ndarray,
                      delta: Fraction) -> bool:
    """The 2δ-balls about the closures of non-nested reductions are
    disjoint at quotient level.  ``closure_rows`` maps each index I to the
    metric rows of the closure of V_I; ``inter`` is |K̲| on metric rows
    (:meth:`AtlasModel.intermediate_classes`)."""
    indices = atlas.index_sets()
    proj = {I: np.zeros(len(inter), dtype=bool) for I in indices}
    for I in indices:  # the classes of |K̲| that each ball meets
        proj[I][inter[_projected_ball(atlas, closure_rows[I], 2 * delta)]] = True
    return not any(
        (proj[I] & proj[J]).any()
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
) -> AdaptednessConstants:
    """δ_V, the nested enlargements V_I^k, N^k_JI, C̃_J, η_k and σ."""
    if atlas.metric is None:
        raise ValueError("adaptedness constants require an atlas metric")
    indices = atlas.index_sets()
    eps = epsilon_closure_radius(atlas)
    closure_rows = {
        I: atlas.sample_rows(I)[_members(atlas, I, closure_of(atlas, V, I, eps))] for I in indices
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
    # the sets as masks over the samples of their chart
    v_k = {
        (I, kk): _ball(atlas, I, _members(atlas, I, V.sets[I]), float(delta) * 2.0 ** (-float(kk)))
        for I in indices
        for kk in ks
    }
    n_k: dict = {}
    c_tilde = {J: _members(atlas, J, C.sets[J]) for J in indices}
    for I, J in nested:
        change = atlas.changes[(I, J)]
        for kk in ks:
            n_k[(J, I, kk)] = _members(atlas, J, _over(change, v_k[(J, kk)], v_k[(I, kk)])[0])
        C_J = _members(atlas, J, C.sets[J])
        c_tilde[I] |= _members(atlas, I, change.rho[_among(C_J, change.tilde)])
    eta = {}
    for kk in set(
        [Fraction(k) for k in range(1, depth + 1)]
        + [Fraction(len(J)) - Fraction(1, 2) for J in indices]
    ):
        eta[kk] = (2.0 ** (-float(kk) + 0.5)) * (1.0 - 2.0 ** (-0.25)) * float(delta)

    sigma = witness = None
    for J in indices:
        kJ = Fraction(len(J))
        excluded = c_tilde[J].copy()
        for I in [H for H, K in nested if K == J]:
            excluded |= _ball(atlas, J, n_k[(J, I, kJ - Fraction(1, 4))], eta[kJ - Fraction(1, 2)])
        complement = _where(v_k[(J, kJ)] & ~excluded)
        if complement.size:
            values = norms.norms(atlas, J, atlas.charts[J].section_samples)
            least = int(complement[values.num[complement].argmin()])
            val = Fraction(int(values.num[least]), values.den)
            if sigma is None or val < sigma:
                sigma, witness = val, (J, least)

    def sets(masks: dict) -> dict:
        return {key: frozenset(_where(mask).tolist()) for key, mask in masks.items()}

    return AdaptednessConstants(
        delta_V=delta_V, delta=delta, eta=eta, v_k=sets(v_k), n_k=sets(n_k),
        c_tilde=sets(c_tilde), sigma=sigma, sigma_witness=witness,
    )


def _small(norms: EquivariantNorms, atlas: AtlasModel, I: tuple, v: _Rows,
           sigma) -> np.ndarray:
    """Per row of ``v``, whether the norm of each block of E_I is below the
    rational σ: a wholly rational block's exactly, and another block's from
    the float sums Σ_k T_rk·v_k taken left to right, max over r, compared
    with σ exactly.  A block whose first sum is NaN is passed over.

    A float s is below σ exactly when s < float(σ), or s <= float(σ) where
    float(σ) < σ, since no float lies strictly between σ and its nearest
    float; an exact norm m/den is below σ when m < σ·den."""
    keep = np.ones(v.rational.shape, dtype=bool)
    ok = np.ones(len(v.defined), dtype=bool)
    below = np.less if Fraction(float(sigma)) >= sigma else np.less_equal
    for i, lo, hi in norms._blocks(atlas, I):
        rational = v.rational[:, lo:hi].all(axis=1)
        keep[:, lo:hi] = rational[:, None]
        if rational.all():
            continue
        size = np.abs(_sums(v.all_floats()[:, lo:hi], norms.maps[i].floats()))
        size = np.fmax.reduce(np.where(np.isnan(size[:, :1]), 0.0, size), axis=1, initial=0.0)
        ok &= rational | below(size, float(sigma))
    exact = norms.norms(atlas, I, RationalArray(np.where(keep, v.exact.num, 0), v.exact.den))
    return ok & (exact.num < math.ceil(Fraction(sigma) * exact.den))


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
                v_I, v_H = (_members(atlas, K, constants.v_k[(K, kk)]) for K in (I, H))
                tilde = _over(atlas.changes[(H, I)], v_I, v_H)
                for y, undefined in _incompatible(values, H, I, *tilde):
                    clause = "a_nu_undefined" if undefined else "a_compatibility"
                    rep.fail(clause, pair=(H, I), point=y, level=k)
            # c) strong admissibility on the collar balls: ν ∈ im φ̂ exactly
            # when it is rational and the annihilator sends it to 0
            for H in below:
                nset = _members(atlas, I, constants.n_k.get((I, H, kk), ()))
                ball = _where(_ball(atlas, I, nset, constants.eta[kk]))
                val = values.rows(I, ball)
                annihilator = RationalArray(atlas.changes[(H, I)].image_annihilator.T, 1)
                image = ~_matmul(val.exact, annihilator, where).num.any(axis=1)
                inside = val.rational.all(axis=1) & image
                for _, y in _stops((~val.defined | (m > 0) & ~inside)[None], val.errors):
                    clause = "c_strong_admissibility" if val.defined[y] else "c_nu_undefined"
                    rep.fail(clause, pair=(H, I), point=int(ball[y]), level=k)
            # e) smallness over the enlargement
            xs = _ints(sorted(constants.v_k[(I, kk)]))
            val = values.rows(I, xs)
            small = _small(norms, atlas, I, val, sigma)
            for _, x in _stops((~val.defined | (m > 0) & ~small)[None], val.errors):
                clause = "e_not_small" if val.defined[x] else "e_nu_undefined"
                rep.fail(clause, index=I, point=int(xs[x]), level=k)
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
    if red.closures:
        out["closures"] = {_index_key(I): sorted(s) for I, s in red.closures.items()}
    return out


def reduction_from_json(data: dict, atlas: AtlasModel) -> Reduction:
    """The reduction of ``data`` over ``atlas``; a section that is no
    object, a ``preds`` field and a sample of ``sets`` or ``closures`` that
    is no int sample of its chart raise ``ValueError`` naming the section,
    the field or the chart and the sample."""
    _reject_removed(_object(data, "reduction"), "reduction", "preds")
    sets, closures = ({_index_from_key(k): v for k, v in _object(d, f"reduction {key}").items()}
                      for key, d in (("sets", data["sets"]),
                                     ("closures", data.get("closures", {}))))
    for key, chosen in (("sets", sets), ("closures", closures)):
        for I, xs in chosen.items():
            _check_samples(atlas, I, f"chart {I}: reduction {key}", xs)
    return Reduction(sets={I: frozenset(xs) for I, xs in sets.items()},
                     closures={I: frozenset(xs) for I, xs in closures.items()})


def _check_samples(atlas: AtlasModel, I: tuple, where: str, xs) -> None:
    """Raise ``ValueError`` naming ``where`` and the sample unless each of
    ``xs`` is an int sample of chart I (any int without a chart I)."""
    n = len(atlas.charts[I].domain.points) if I in atlas.charts else math.inf
    for x in xs:
        if type(x) is not int or not 0 <= x < n:
            raise ValueError(f"{where}: {x!r} is not a sample of the chart, which has {n}")


def perturbation_to_json(nu: Perturbation) -> dict:
    return {
        "asts": {_index_key(I): list(a) for I, a in nu.asts.items()},
        "samples": {
            _index_key(I): {str(x): row for x, row in zip(index.tolist(), rows.strings())}
            for I, (index, rows) in nu.samples.items()
        },
    }


def perturbation_from_json(data: dict, atlas: AtlasModel) -> Perturbation:
    """The perturbation of ``data`` over ``atlas``; a section that is no
    object, an AST outside the grammar, a sample value that is no rational
    and a sample outside its chart raise ``ValueError`` naming the section
    or the chart."""
    data = _object(data, "perturbation")
    sections = {key: _object(data.get(key, {}), f"perturbation {key}")
                for key in ("asts", "samples")}
    asts = {_index_from_key(k): tuple(v) for k, v in sections["asts"].items()}
    for I, chart_asts in asts.items():
        _check_asts(atlas.charts.get(I), f"chart {I}: perturbation asts", chart_asts)
    samples = {}
    for k, rows in sections["samples"].items():
        I = _index_from_key(k)
        rows = _object(rows, f"chart {I}: perturbation samples")
        try:
            samples[I] = {int(x): [parse_rat(c) for c in row] for x, row in rows.items()}
        except (ArithmeticError, TypeError, ValueError) as ex:
            raise ValueError(f"chart {I}: perturbation samples: {ex}") from None
    nu = Perturbation(asts, samples)
    for I, (index, _) in nu.samples.items():
        _check_samples(atlas, I, f"chart {I}: perturbation samples", index.tolist())
    return nu


def norms_to_json(norms: EquivariantNorms) -> dict:
    return {"maps": {str(i): T.to_json() for i, T in norms.maps.items()}}


def norms_from_json(data: dict) -> EquivariantNorms:
    maps = _object(_object(data, "norms")["maps"], "norms maps")
    return EquivariantNorms(
        {int(i): RationalArray.from_json(T, f"norms: map {i}") for i, T in maps.items()}
    )
