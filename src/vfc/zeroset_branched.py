"""Zero finding, groupoid completion, weights, and 0-dimensional classes.

The perturbed zero sets Z_I live in two parallel forms:

* numerically, as Newton-refined floating points found from seed grids
  (:func:`find_zeros`), each carrying a residual, a Jacobian, and an
  orientation sign: the sign of the exact determinant of the Jacobian;
* combinatorially, as Γ_I-invariant subsets of the chart sample clouds,
  on which the groupoid completion, the Hausdorff closure, the weighting
  function Λ and the weighted-branched-orbifold axioms are verified
  extensionally.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .charts_atlas import (
    AtlasModel,
    CheckReport,
    UnionFind,
    composition_table,
)
from .exterior_engine import rat_str, zero_sign
from .expressions import compile_vector, eval_pred
from .reduction_perturb import Perturbation, Reduction, v_tilde

__all__ = [
    "TAU_ZERO",
    "TAU_SIGN",
    "EPS_MERGE",
    "NEWTON_MAX_ITERS",
    "PerturbationRejected",
    "ZeroPoint",
    "NewtonStats",
    "FindZerosResult",
    "find_zeros",
    "ZeroSetGroupoid",
    "complete_groupoid",
    "hausdorff_complete",
    "WeightResult",
    "weight_function",
    "BranchStructure",
    "wnb_check",
    "WeightedBranchedClass0D",
    "fundamental_class_0d",
    "BranchedIntervalModel",
    "branched_interval_model",
    "zero_set_report",
]

TAU_ZERO = 1e-10
TAU_SIGN = 1e-8
EPS_MERGE = 1e-6
NEWTON_MAX_ITERS = 60


class PerturbationRejected(Exception):
    """Numerical rejection: a found zero fails the transversality gate."""


# ---------------------------------------------------------------------------
# numeric zero finding
# ---------------------------------------------------------------------------


@dataclass
class ZeroPoint:
    chart_index: tuple
    coordinates: tuple  # floats
    residual: float
    jacobian: tuple  # rows of floats (w.r.t. tangent dims)
    sign: int
    minimal_footprint: tuple | None = None
    weight: Fraction | None = None


@dataclass
class NewtonStats:
    """Newton's work in one chart: ``seeds`` walks, run in ``rounds``
    lockstep rounds of ``iterations`` evaluations in all.  Each walk ends
    ``converged`` (residual below TAU_ZERO), ``stalled`` (8 steps without
    a better residual), ``singular`` (a Jacobian ``solve`` rejects),
    ``non_finite`` (a step with an infinity or NaN) or ``exhausted``
    (NEWTON_MAX_ITERS evaluations); ``merged`` counts the converged walks
    that ended within EPS_MERGE of a zero found before."""

    seeds: int = 0
    rounds: int = 0
    iterations: int = 0
    converged: int = 0
    stalled: int = 0
    singular: int = 0
    non_finite: int = 0
    exhausted: int = 0
    merged: int = 0


@dataclass
class FindZerosResult:
    zeros: list
    warnings: list
    stats: dict = field(default_factory=dict)  # chart index -> NewtonStats


def _section_plus_nu(atlas: AtlasModel, nu: Perturbation, I: tuple, dims: list):
    """s_I + ν_I compiled once: ``f(points) -> (values, jacobians)``."""
    chart = atlas.charts[I]
    s_asts = list(chart.section_asts or ())
    n_asts = list(nu.asts.get(I, ()))
    if not (s_asts and n_asts):
        return compile_vector(s_asts, dims)
    if len(s_asts) != len(n_asts):
        raise ValueError("section/perturbation arity mismatch")
    # one tape for both, so that subexpressions they share are evaluated once
    both = compile_vector(s_asts + n_asts, dims)
    m = len(s_asts)

    def f(points):
        vals, jac = both(points)
        return vals[:, :m] + vals[:, m:], jac[:, :m] + jac[:, m:]

    return f


def _solve(jac: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton steps ``jac⁻¹·vals`` of a stack of rows in one call, and
    which rows are singular (their steps are left 0)."""
    singular = np.zeros(len(jac), dtype=bool)
    try:
        return np.linalg.solve(jac, vals[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    # a singular Jacobian stops its own walk only: solve row by row
    step = np.zeros_like(vals)
    for i in range(len(jac)):
        try:
            step[i] = np.linalg.solve(jac[i], vals[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return step, singular


def _newton(f, seeds: np.ndarray, dims: list, m: int, stats: NewtonStats) -> tuple:
    """Newton's iteration from every seed in lockstep.  Each round
    evaluates ``f`` once at the walks still going and solves their steps in
    one stacked call; each walk stops by its own rules, as it would alone,
    and a stopped walk is neither evaluated nor stepped again.

    Adds the rounds, evaluations and endings to ``stats`` and returns per
    seed its last coordinates, why it stopped (a :class:`NewtonStats`
    field name) and the values of its last evaluation."""
    coords = seeds.copy()
    n = len(coords)
    stops = np.full(n, "exhausted", dtype=object)
    values = np.zeros((n, m))
    best = np.full(n, np.inf)
    stall = np.zeros(n, dtype=int)
    going = np.arange(n)
    rounds = iterations = 0
    while going.size and rounds < NEWTON_MAX_ITERS:
        rounds += 1
        iterations += going.size
        vals, jac = f(coords[going])
        values[going] = vals
        res = np.abs(vals).max(axis=1, initial=0.0)
        converged = res < TAU_ZERO
        # stall cutoff: no residual improvement over several steps
        # means the iteration is cycling away from any zero
        better = res < best[going]
        best[going] = np.where(better, res, best[going])
        stall[going] = np.where(better, 0, stall[going] + 1)
        stalled = ~converged & (stall[going] >= 8)
        stops[going[converged]] = "converged"
        stops[going[stalled]] = "stalled"
        on = ~(converged | stalled)
        going = going[on]
        step, singular = _solve(jac[on], vals[on])
        finite = np.isfinite(step).all(axis=1)
        stops[going[singular]] = "singular"
        stops[going[~singular & ~finite]] = "non_finite"
        moving = finite & ~singular
        going = going[moving]
        for k, d in enumerate(dims):
            coords[going, d] -= step[moving, k]
    stats.rounds += rounds
    stats.iterations += iterations
    for stop in stops:
        setattr(stats, stop, getattr(stats, stop) + 1)
    return coords, stops, values


def _chart_seeds(atlas: AtlasModel, red: Reduction, I: tuple, seeds: dict | None) -> list:
    """The Newton seeds of chart I as float tuples: ``seeds[I]`` if given,
    else one V_I sample per Γ_I-orbit, in sample order."""
    if seeds is not None and I in seeds:
        return [tuple(float(c) for c in p) for p in seeds[I]]
    domain = atlas.charts[I].domain
    return [
        tuple(float(c) for c in domain.points[x])
        for x in sorted(red.sets.get(I, ()))
        if x == min(domain.orbit(x))
    ]


def _chart_zeros(atlas: AtlasModel, red: Reduction, nu: Perturbation, I: tuple,
                 chart_seeds: list) -> tuple[list, list, NewtonStats]:
    """The zeros, warnings and Newton statistics of chart I."""
    chart = atlas.charts[I]
    dims = list(chart.tangent_dims)
    s_plus_nu = _section_plus_nu(atlas, nu, I, dims)
    stats = NewtonStats(seeds=len(chart_seeds))
    if not chart_seeds:
        return [], [], stats
    seeds = np.array(chart_seeds, dtype=float)
    m = len(chart.section_asts)
    try:
        walks = [_newton(s_plus_nu, seeds, dims, m, stats)]
    except (ArithmeticError, ValueError):
        # some walk raises: walk the seeds one at a time instead, so that
        # the seeds before it are handled (and may reject ν) first
        walks = (_newton(s_plus_nu, seeds[k : k + 1], dims, m, stats) for k in range(len(seeds)))
    pred = red.preds.get(I)
    found: list[ZeroPoint] = []
    seed_converged: list[bool] = []
    seed_values: list[np.ndarray] = []
    for walk in walks:
        for coords, stop, vals in zip(*walk):
            seed_values.append(vals)
            seed_converged.append(stop == "converged")
            if stop != "converged":
                continue
            point = tuple(coords.tolist())
            if pred is not None and not eval_pred(pred, point):
                continue
            if any(
                max(abs(a - b) for a, b in zip(point, z.coordinates)) < EPS_MERGE
                for z in found
            ):
                stats.merged += 1
                continue
            (vals,), (jac,) = s_plus_nu(coords[None])
            if jac.size:
                det = float(np.linalg.det(jac))
                if abs(det) <= TAU_SIGN:
                    raise PerturbationRejected(
                        f"singular jacobian at zero {point} in chart {I}"
                    )
            sign = zero_sign(jac)
            found.append(
                ZeroPoint(
                    chart_index=I,
                    coordinates=point,
                    residual=float(np.max(np.abs(vals))) if vals.size else 0.0,
                    jacobian=tuple(tuple(float(v) for v in row) for row in jac),
                    sign=sign,
                )
            )
    # missed-zero heuristic (one-dimensional charts only, where a sign
    # change of the scalar between adjacent seeds is an intermediate-
    # value argument): non-convergence on both sides is never silent
    warnings: list[str] = []
    if len(dims) == 1:
        for a in range(len(chart_seeds) - 1):
            if seed_converged[a] or seed_converged[a + 1]:
                continue
            va, vb = seed_values[a], seed_values[a + 1]
            if va.size and vb.size and np.any(np.sign(va) * np.sign(vb) < 0):
                warnings.append(
                    f"possible missed zero in chart {I} between seeds "
                    f"{chart_seeds[a]} and {chart_seeds[a + 1]}"
                )
    return found, warnings, stats


def find_zeros(
    atlas: AtlasModel,
    red: Reduction,
    nu: Perturbation,
    seeds: dict | None = None,
) -> FindZerosResult:
    """Newton iteration from seed grids, per chart, with exact sign data.

    ``seeds`` maps chart indices to coordinate tuples; by default one
    V_I sample point per Γ_I-orbit is used (zero sets are Γ-invariant, so
    orbit representatives reach every zero class).  The walks of a chart
    run in lockstep (see :func:`_newton`); converged points are then taken
    in seed order.  Membership of converged points in V_I uses the
    reduction predicates when available.  A chart whose expressions cannot
    be compiled or evaluated raises ``ValueError`` naming the chart.
    """
    result = FindZerosResult(zeros=[], warnings=[])
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        dims = list(chart.tangent_dims)
        if not dims and chart.obstruction_dim == 0:
            continue
        if chart.section_asts is None:
            continue
        if len(dims) != chart.obstruction_dim:
            raise ValueError(f"chart {I} is not index 0 over its tangent dims")
        chart_seeds = _chart_seeds(atlas, red, I, seeds)
        try:
            found, warnings, result.stats[I] = _chart_zeros(atlas, red, nu, I, chart_seeds)
        except (ArithmeticError, ValueError) as ex:
            raise ValueError(f"chart {I}: {ex}") from ex
        result.zeros.extend(found)
        result.warnings.extend(warnings)
    return result


# ---------------------------------------------------------------------------
# groupoid completion over sample zero sets
# ---------------------------------------------------------------------------


def _nonempty_subsets(I: tuple):
    n = len(I)
    for mask in range(1, 1 << n):
        yield tuple(I[k] for k in range(n) if mask & (1 << k))


@dataclass
class ZeroSetGroupoid:
    """A groupoid over the sample zero sets: objects (I, sample index),
    morphisms (I, J, y, α) with α an element index of Γ_I, their endpoints, and the
    classes, each named by its smallest object.  The Hausdorff step adds
    the minimal footprint F_p of each class."""

    objects: tuple
    morphisms: tuple
    source: dict
    target: dict
    report: CheckReport
    classes: tuple
    class_of: dict
    minimal_footprint: dict = field(default_factory=dict)  # class -> F_p

    def fibers(self) -> dict:
        """class -> chart I -> the samples of Z_I in the class."""
        out: dict = {}
        for o in self.objects:
            I, z = o
            out.setdefault(self.class_of[o], {}).setdefault(I, set()).add(z)
        return out


def _tilde_cl(atlas, red, zsets, closures, F, J) -> frozenset:
    """The zeros of Z_J in cl(Ṽ_FJ): the open overlap Ṽ_FJ together with
    the declared closure where ``closures`` has one (cl(A) ⊇ A)."""
    if F == J:
        return frozenset(zsets[J])
    out = set(closures.get((F, J), ()))
    if (F, J) in atlas.changes:
        out.update(v_tilde(atlas, red, F, J))
    return frozenset(y for y in out if y in zsets[J])


def _groupoid_core(atlas, red, zsets, objects, closures, known=frozenset()) -> tuple:
    """The morphisms not in ``known`` over the overlaps closed by
    ``closures`` (see :func:`_tilde_cl`), with their endpoints."""
    indices = [I for I in atlas.index_sets() if I in zsets]
    obj_set = set(objects)
    morphisms = []
    src: dict = {}
    tgt: dict = {}
    seen = set(known)
    for I in indices:
        for J in indices:
            if not set(I) <= set(J):
                continue
            if I != J and (I, J) not in atlas.changes:
                continue
            vt_IJ = _tilde_cl(atlas, red, zsets, {}, I, J)
            for F in _nonempty_subsets(I):
                if F != I and (F, J) not in atlas.changes and F != J:
                    continue
                cl_FJ = _tilde_cl(atlas, red, zsets, closures, F, J)
                kernel = atlas.kernel(F, I).tolist()
                for y in sorted(vt_IJ & cl_FJ):
                    for alpha in kernel:
                        m = (I, J, y, alpha)
                        if m in seen:
                            continue
                        seen.add(m)
                        x = y if I == J else atlas.changes[(I, J)].rho_idx[y]
                        chart = atlas.charts[I]
                        source = (I, chart.domain.act(chart.group.inv(alpha), x))
                        if source not in obj_set:
                            continue
                        morphisms.append(m)
                        src[m] = source
                        tgt[m] = (J, y)
    return morphisms, src, tgt


def _classes_of(objects, pairs):
    """The classes of the relation ``pairs``, each named by its smallest
    object: the sorted names, and the name of every object's class."""
    uf = UnionFind(objects, pairs)
    class_of = {o: uf.find(o) for o in objects}
    return tuple(sorted(set(class_of.values()))), class_of


def complete_groupoid(
    atlas: AtlasModel, red: Reduction, zsets: dict
) -> ZeroSetGroupoid:
    """The unique nonsingular completion of the zero-set category.

    ``zsets`` maps chart indices to Γ_I-invariant sample subsets Z_I.
    Morphisms Z_I → Z_J for I ⊆ J are the pairs (y, α) with y in the
    overlap through some nonempty F ⊆ I and α in the partial isotropy
    Γ_{I∖F}; verified: endpoint-determinacy, closure under composition
    and inverses, and the within-chart/charts-change factorization.
    """
    rep = CheckReport("completed_groupoid")
    objects = [
        (I, z) for I in atlas.index_sets() if I in zsets for z in sorted(zsets[I])
    ]
    morphisms, src, tgt = _groupoid_core(atlas, red, zsets, objects, {})
    morph_set = set(morphisms)

    def named(m: tuple) -> tuple:  # for a witness
        return (*m[:3], atlas.charts[m[0]].group.elements[m[3]])

    # (a) every morphism is determined by its (source, target) pair
    seen: dict = {}
    for m in morphisms:
        key = (src[m], tgt[m])
        if key in seen:
            both = [named(seen[key]), named(m)]
            rep.fail("not_determined_by_endpoints", pair=key, morphisms=both)
        seen[key] = m
    # (b) closure under composition: (I, J, y, γ) then (J, K, z, δ) is
    # (I, K, z, ρ^Γ_{JI}(δ)·γ)
    closure = CheckReport(rep.name)
    composition_table(
        closure, "not_closed_under_composition", morphisms, src, tgt,
        lambda f, g: (
            f[0], g[1], g[2], atlas.charts[f[0]].group.mul(atlas.projection[f[:2]][g[3]], f[3])
        ),
    )
    for failure in closure.failures:
        f, g = failure["pair"]
        rep.fail(failure["clause"], pair=(named(f), named(g)), result=named(failure["result"]))
    # (c) closure under inverses for within-chart morphisms
    for m in morphisms:
        I, J, y, alpha = m
        if I != J:
            continue
        inv = (I, I, src[m][1], atlas.charts[I].group.inv(alpha))
        if inv not in morph_set:
            rep.fail("inverse_missing", morphism=named(m))
    # factorization: each cross-chart morphism splits both ways
    for m in morphisms:
        I, J, y, alpha = m
        identity = atlas.charts[I].group.identity
        if I == J or alpha == identity:
            continue
        x = atlas.changes[(I, J)].rho_idx[y]
        mu_a = (I, I, x, alpha)
        mu_b = (I, J, y, identity)
        ok_first = mu_a in morph_set and mu_b in morph_set
        # canonical lift of α into Γ_J: α on the I slots, identity elsewhere
        lifted = atlas.projection[(I, J)] == alpha
        for j in set(J) - set(I):
            lifted &= atlas.projection[((j,), J)] == atlas.charts[(j,)].group.identity
        alpha_J = int(np.flatnonzero(lifted)[0])
        mu_a2 = (J, J, y, alpha_J)
        yprime = atlas.charts[J].domain.act(atlas.charts[J].group.inv(alpha_J), y)
        mu_b2 = (I, J, yprime, identity)
        ok_second = mu_a2 in morph_set and mu_b2 in morph_set
        if not (ok_first and ok_second):
            rep.fail("factorization", morphism=named(m))
    classes, class_of = _classes_of(objects, ((src[m], tgt[m]) for m in morphisms))
    return ZeroSetGroupoid(
        objects=tuple(objects),
        morphisms=tuple(morphisms),
        source=src,
        target=tgt,
        report=rep,
        classes=classes,
        class_of=class_of,
    )


def hausdorff_complete(
    atlas: AtlasModel,
    red: Reduction,
    zsets: dict,
    completed: ZeroSetGroupoid,
    closures: dict | None = None,
) -> ZeroSetGroupoid:
    """Extend ``completed`` by the morphisms over declared closures.

    ``closures`` maps (F, J) to the sample set cl(Ṽ_FJ) ⊇ Ṽ_FJ; with no
    closure data the result is ``completed`` with its minimal footprints.
    The sets F with a given zero in cl(Ṽ_FJ) must be nested; otherwise
    the closure data is rejected.  Verified: the added morphisms keep the
    groupoid nonsingular, and the footprints of each class are nested.
    """
    rep = CheckReport("hausdorff_groupoid")
    closures = closures or {}
    # nestedness of {F : z ∈ cl(Ṽ_FJ)} per zero
    cl = functools.cache(lambda F, J: _tilde_cl(atlas, red, zsets, closures, F, J))
    f_sets: dict = {}
    for J, z in completed.objects:
        fs = [F for F in _nonempty_subsets(J) if z in cl(F, J)]
        for a in fs:
            for b in fs:
                if not (set(a) <= set(b) or set(b) <= set(a)):
                    raise ValueError(
                        f"closure data not nested at zero {(J, z)}: "
                        f"{a} vs {b}"
                    )
        f_sets[(J, z)] = fs
    morphisms, source, target = completed.morphisms, completed.source, completed.target
    classes, class_of = completed.classes, completed.class_of
    if closures:
        added, src, tgt = _groupoid_core(
            atlas, red, zsets, completed.objects, closures, known=source
        )
        seen = {(source[m], target[m]) for m in morphisms}
        for m in added:
            key = (src[m], tgt[m])
            if key in seen:
                rep.fail("not_nonsingular", pair=key)
            seen.add(key)
        morphisms = morphisms + tuple(added)
        source, target = {**source, **src}, {**target, **tgt}
        classes, class_of = _classes_of(
            completed.objects, ((source[m], target[m]) for m in morphisms)
        )
    # minimal footprint F_p = min{F : p meets cl of the F-overlap}
    members: dict = {}
    for o in completed.objects:
        members.setdefault(class_of[o], []).append(o)
    minimal: dict = {}
    for p in classes:
        candidates = []
        for J, z in members[p]:
            candidates.extend(f_sets[(J, z)])
            candidates.append(J)
        best = None
        for F in candidates:
            if best is None or set(F) < set(best):
                best = F
        for F in candidates:
            if not (set(best) <= set(F)):
                rep.fail("footprint_not_nested", cls=p, sets=(best, F))
        minimal[p] = best
    return replace(
        completed,
        morphisms=morphisms,
        source=source,
        target=target,
        report=rep,
        classes=classes,
        class_of=class_of,
        minimal_footprint=minimal,
    )


# ---------------------------------------------------------------------------
# weighting function and wnb axioms
# ---------------------------------------------------------------------------


@dataclass
class WeightResult:
    weights: dict  # class -> Fraction
    report: CheckReport


def weight_function(atlas: AtlasModel, hausdorff: ZeroSetGroupoid) -> WeightResult:
    """Λ by the fiber-count formula, cross-checked against the orbit
    formula |Γ_{I∖F_p}|/|Γ_I| in every chart that sees the class."""
    rep = CheckReport("weight_function")
    weights: dict = {}
    per_chart = hausdorff.fibers()
    for p in hausdorff.classes:
        F_p = hausdorff.minimal_footprint[p]
        values = []
        for I, fiber in sorted(per_chart[p].items()):
            order_I = atlas.charts[I].group.order
            lam_count = Fraction(len(fiber), order_I)
            if set(F_p) <= set(I):
                lam_orbit = Fraction(len(atlas.kernel(F_p, I)), order_I)
                if lam_count != lam_orbit:
                    rep.fail(
                        "formulas_disagree",
                        cls=p,
                        chart=I,
                        count=lam_count,
                        orbit=lam_orbit,
                    )
            values.append(lam_count)
        if len(set(values)) != 1:
            rep.fail("chart_dependent", cls=p, values=values)
        weights[p] = values[0]
    return WeightResult(weights=weights, report=rep)


@dataclass
class BranchStructure:
    branches: dict  # class -> list of (chart I, frozenset of sample idx, weight)
    report: CheckReport


def wnb_check(
    atlas: AtlasModel, hausdorff: ZeroSetGroupoid, weights: dict
) -> BranchStructure:
    """Branches per class in a minimal chart: the samples of its fiber,
    each a piece of weight 1/|Γ_I|.  The pieces cover the fiber and are
    disjoint by construction, so the one axiom checked is weighting:
    Λ(p) equals the sum of the branch weights through p."""
    rep = CheckReport("wnb")
    per_chart = hausdorff.fibers()
    branches: dict = {}
    for p in hausdorff.classes:
        charts = sorted(per_chart[p], key=lambda I: (len(I), I))
        I = charts[0]
        fiber = per_chart[p][I]
        weight = Fraction(1, atlas.charts[I].group.order)
        pieces = [(I, frozenset({z}), weight) for z in sorted(fiber)]
        branches[p] = pieces
        total = sum((w for _, _, w in pieces), Fraction(0))
        if total != weights.get(p):
            rep.fail("weighting", cls=p, total=total, expected=weights.get(p))
    return BranchStructure(branches=branches, report=rep)


# ---------------------------------------------------------------------------
# 0-dimensional fundamental class
# ---------------------------------------------------------------------------


@dataclass
class WeightedBranchedClass0D:
    entries: tuple  # (class, weight, sign)
    total: Fraction

    def total_string(self) -> str:
        return rat_str(self.total)


def fundamental_class_0d(
    classes: Sequence, weights: dict, signs: dict
) -> WeightedBranchedClass0D:
    """Σ sign·Λ over the zero classes, exactly."""
    entries = []
    total = Fraction(0)
    for p in classes:
        w = Fraction(weights[p])
        if w <= 0:
            raise ValueError(f"nonpositive weight at class {p}")
        s = int(signs[p])
        entries.append((p, w, s))
        total += s * w
    return WeightedBranchedClass0D(entries=tuple(entries), total=total)


# ---------------------------------------------------------------------------
# branched interval: the built-in 1-dimensional cobordism instance
# ---------------------------------------------------------------------------


@dataclass
class BranchedIntervalModel:
    samples: tuple  # Fractions in [0,1]
    objects: tuple  # ("I" | "Ip", t)
    open_pairs: tuple  # identified pairs before closure (t < 1/2)
    closed_pairs: tuple  # identified pairs after closure (t <= 1/2)
    classes: tuple
    class_of: dict
    weights: dict  # class -> Fraction
    boundary_in: WeightedBranchedClass0D  # classes over t = 0
    boundary_out: WeightedBranchedClass0D  # classes over t = 1
    boundary_identity: Fraction  # total of ∂¹ − ∂⁰ minus the glued total


def branched_interval_model(m, mp, denominator: int = 8) -> BranchedIntervalModel:
    """Two weighted copies of [0,1] glued over [0,1/2] after closure.

    Λ = m + m' on the glued half, m on the upper half of the first copy
    and m' on the upper half of the second; the branch locus is the single
    class at t = 1/2.  Verifies the boundary identity ∂[Z] = [∂¹Z] − [∂⁰Z].
    """
    m, mp = Fraction(m), Fraction(mp)
    if m <= 0 or mp <= 0:
        raise ValueError("weights must be positive rationals")
    if denominator < 2 or denominator % 2:
        raise ValueError("denominator must be a positive even integer")
    samples = tuple(Fraction(k, denominator) for k in range(denominator + 1))
    objects = tuple(("I", t) for t in samples) + tuple(("Ip", t) for t in samples)
    half = Fraction(1, 2)
    open_pairs = tuple(
        (("I", t), ("Ip", t)) for t in samples if t < half
    )
    closed_pairs = tuple(
        (("I", t), ("Ip", t)) for t in samples if t <= half
    )
    classes, class_of = _classes_of(objects, closed_pairs)
    weights = {}
    for p in classes:
        fiber = [o for o in objects if class_of[o] == p]
        weights[p] = m + mp if len(fiber) == 2 else (m if p[0] == "I" else mp)
    p0 = class_of[("I", Fraction(0))]
    boundary_in = fundamental_class_0d([p0], {p0: weights[p0]}, {p0: 1})
    p1a = class_of[("I", Fraction(1))]
    p1b = class_of[("Ip", Fraction(1))]
    boundary_out = fundamental_class_0d(
        [p1a, p1b], {p1a: weights[p1a], p1b: weights[p1b]}, {p1a: 1, p1b: 1}
    )
    identity = boundary_out.total - boundary_in.total
    return BranchedIntervalModel(
        samples=samples,
        objects=objects,
        open_pairs=open_pairs,
        closed_pairs=closed_pairs,
        classes=classes,
        class_of=class_of,
        weights=weights,
        boundary_in=boundary_in,
        boundary_out=boundary_out,
        boundary_identity=identity,
    )


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def zero_set_report(
    zeros: Sequence,
    class_weights: dict | None = None,
    total: Fraction | None = None,
    wnb_report: CheckReport | None = None,
    warnings: Sequence | None = None,
) -> dict:
    out = {
        "zeros": [
            {
                "chart": list(z.chart_index),
                "coordinates": [float(c) for c in z.coordinates],
                "residual": float(z.residual),
                "sign": int(z.sign),
                "minimal_footprint": (
                    list(z.minimal_footprint)
                    if z.minimal_footprint is not None
                    else None
                ),
                "weight": rat_str(z.weight) if z.weight is not None else None,
            }
            for z in zeros
        ]
    }
    if class_weights is not None:
        out["classes"] = [
            {"class": repr(p), "weight": rat_str(Fraction(w))}
            for p, w in sorted(class_weights.items(), key=lambda kv: repr(kv[0]))
        ]
    if total is not None:
        out["total"] = rat_str(Fraction(total))
    if wnb_report is not None:
        out["wnb"] = wnb_report.to_json()
    if warnings:
        out["warnings"] = list(warnings)
    return out
