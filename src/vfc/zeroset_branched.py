"""Zero finding, groupoid completion, weights, and 0-dimensional classes.

The perturbed zero sets Z_I live in two parallel forms:

* numerically, as Newton-refined floating points found from seed grids
  (:func:`find_zeros`), each carrying a residual, a Jacobian, and an
  orientation sign: the sign of the exact determinant of the Jacobian;
* combinatorially, as Γ_I-invariant subsets of the chart sample clouds,
  on which the groupoid completion, the Hausdorff closure, the weighting
  function Λ and the weighted-branched-orbifold axioms are verified
  extensionally.

The completed groupoid is a sub-groupoid of the atlas category B_K that
:func:`~vfc.charts_atlas.build_categories` builds: a mask over B_K's
morphisms, checked on B_K's own arrays and composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .charts_atlas import (
    AtlasModel,
    CategoriesResult,
    CheckReport,
    _where,
    quotient,
)
from .exterior_engine import rat_str, zero_sign
from .reduction_perturb import Perturbation, Reduction, _check_samples, _members, v_tilde

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
    ``non_finite`` (a step with an infinity or NaN), ``escaped`` (a step
    out of the chart's sample box, see :func:`_sample_box`) or
    ``exhausted`` (NEWTON_MAX_ITERS evaluations); ``merged`` counts the
    converged walks that ended within EPS_MERGE of a zero found before."""

    seeds: int = 0
    rounds: int = 0
    iterations: int = 0
    converged: int = 0
    stalled: int = 0
    singular: int = 0
    non_finite: int = 0
    escaped: int = 0
    exhausted: int = 0
    merged: int = 0


@dataclass
class FindZerosResult:
    zeros: list
    warnings: list
    stats: dict = field(default_factory=dict)  # chart index -> NewtonStats


def _section_plus_nu(atlas: AtlasModel, nu: Perturbation, I: tuple, dims: list):
    """s_I + ν_I, ``f(points) -> (values, jacobians)``, from the atlas's tapes of each."""
    s_asts, n_asts = atlas.charts[I].section_asts or (), nu.asts.get(I, ())
    if not (s_asts and n_asts):
        return atlas.compiled(s_asts, dims)
    if len(s_asts) != len(n_asts):
        raise ValueError("section/perturbation arity mismatch")
    s, n = atlas.compiled(s_asts, dims), atlas.compiled(n_asts, dims)

    def f(points):
        (s_vals, s_jac), (n_vals, n_jac) = s(points), n(points)
        return s_vals + n_vals, s_jac + n_jac

    return f


def _solve(jac: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton steps ``jac⁻¹·vals`` of a stack of rows, each to the bits
    it gets alone, and which rows are singular (their steps are left 0):
    an exact zero pivot of LU, on which ``solve`` raises, is ``slogdet``'s sign 0."""
    with np.errstate(invalid="ignore"):  # a NaN entry: sign NaN, not singular
        singular = np.linalg.slogdet(jac)[0] == 0
    step = np.zeros_like(vals)
    step[~singular] = np.linalg.solve(jac[~singular], vals[~singular][:, :, None])[:, :, 0]
    return step, singular


def _sample_box(coordinates: np.ndarray) -> tuple | None:
    """The per-coordinate range of a chart's samples, widened on each side
    by their diameter in the sup norm (``None`` without samples)."""
    if not len(coordinates):
        return None
    lo, hi = coordinates.min(axis=0), coordinates.max(axis=0)
    diameter = (hi - lo).max()
    return lo - diameter, hi + diameter


def _newton(f, seeds: np.ndarray, dims: list, m: int, stats: NewtonStats,
            box: tuple | None = None) -> tuple:
    """Newton's iteration from every seed in lockstep.  Each round
    evaluates ``f`` once at the walks still going and solves their steps in
    one stacked call; each walk stops by its own rules, as it would alone,
    and a stopped walk is neither evaluated nor stepped again.  A step
    that leaves ``box`` (lower and upper coordinate bounds) ends its walk.

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
        if box is not None:
            out = ((coords[going] < box[0]) | (coords[going] > box[1])).any(axis=1)
            stops[going[out]] = "escaped"
            going = going[~out]
    stats.rounds += rounds
    stats.iterations += iterations
    for stop in stops:
        setattr(stats, stop, getattr(stats, stop) + 1)
    return coords, stops, values


def _chart_seeds(atlas: AtlasModel, red: Reduction, I: tuple, seeds: dict | None) -> np.ndarray:
    """The Newton seeds of chart I as float rows: ``seeds[I]`` if given,
    else one V_I sample per Γ_I-orbit (its least sample), in sample order;
    a V_I sample outside the chart raises ``ValueError`` naming it."""
    domain = atlas.charts[I].domain
    if seeds is not None and I in seeds:
        return np.asarray(seeds[I], dtype=float)
    xs = np.array(sorted(red.sets.get(I, ())), dtype=np.int64)
    _check_samples(atlas, I, f"chart {I}: reduction", xs.tolist())
    least = domain.perms[:, xs].min(axis=0, initial=len(domain.points))
    return domain.coordinates[xs[least == xs]]


def _chart_zeros(atlas: AtlasModel, red: Reduction, nu: Perturbation, I: tuple,
                 seeds: np.ndarray) -> tuple[list, list, NewtonStats]:
    """The zeros, warnings and Newton statistics of chart I."""
    chart = atlas.charts[I]
    dims = list(chart.tangent_dims)
    s_plus_nu = _section_plus_nu(atlas, nu, I, dims)
    stats = NewtonStats(seeds=len(seeds))
    if not len(seeds):
        return [], [], stats
    m = len(chart.section_asts)
    box = _sample_box(chart.domain.coordinates)
    try:
        walks = [_newton(s_plus_nu, seeds, dims, m, stats, box)]
    except (ArithmeticError, ValueError):
        # some walk raises: walk the seeds one at a time instead, so that
        # the seeds before it are handled (and may reject ν) first
        walks = (_newton(s_plus_nu, seeds[k : k + 1], dims, m, stats, box)
                 for k in range(len(seeds)))
    member = red.sets.get(I, frozenset())
    found: list[ZeroPoint] = []
    seed_converged: list[bool] = []
    seed_values: list[np.ndarray] = []
    for walk in walks:
        for coords, stop, vals in zip(*walk):
            seed_values.append(vals)
            seed_converged.append(stop == "converged")
            if stop != "converged":
                continue
            if chart.domain.nearest(coords) not in member:
                continue
            point = tuple(coords.tolist())
            if any(max(abs(a - b) for a, b in zip(point, z.coordinates)) < EPS_MERGE
                   for z in found):
                stats.merged += 1
                continue
            (vals,), (jac,) = s_plus_nu(coords[None])
            if jac.size:
                det = float(np.linalg.det(jac))
                if abs(det) <= TAU_SIGN:
                    raise PerturbationRejected(f"singular jacobian at zero {point} in chart {I}")
            sign = zero_sign(jac)
            found.append(ZeroPoint(
                chart_index=I,
                coordinates=point,
                residual=float(np.max(np.abs(vals))) if vals.size else 0.0,
                jacobian=tuple(tuple(float(v) for v in row) for row in jac),
                sign=sign,
            ))
    # missed-zero heuristic (one-dimensional charts only, where a sign
    # change of the scalar between adjacent seeds is an intermediate-
    # value argument): non-convergence on both sides is never silent
    warnings: list[str] = []
    if len(dims) == 1:
        for a in range(len(seeds) - 1):
            if seed_converged[a] or seed_converged[a + 1]:
                continue
            va, vb = seed_values[a], seed_values[a + 1]
            if va.size and vb.size and np.any(np.sign(va) * np.sign(vb) < 0):
                warnings.append(
                    f"possible missed zero in chart {I} between seeds "
                    f"{tuple(seeds[a].tolist())} and {tuple(seeds[a + 1].tolist())}"
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
    in seed order, and each is kept when its nearest sample (in the sup
    norm) lies in V_I.  A chart whose expressions cannot be compiled or
    evaluated, or whose V_I names a sample outside it, raises
    ``ValueError`` naming the chart.
    """
    result = FindZerosResult(zeros=[], warnings=[])
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        dims = list(chart.tangent_dims)
        if chart.section_asts is None or not dims and chart.obstruction_dim == 0:
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
    """A groupoid over the sample zero sets, made of morphisms of B_K:
    objects (I, sample index), morphisms (I, J, y, α) with α an element
    index of Γ_I, and the classes, each named by its smallest object.
    ``overlaps`` maps (F, J) to the zeros of Z_J in the overlap Ṽ_FJ as a
    mask over the samples of chart J (see :func:`_overlaps`).  The
    Hausdorff step adds the minimal footprint F_p of each class."""

    objects: tuple
    morphisms: tuple
    report: CheckReport
    classes: tuple
    class_of: dict
    overlaps: dict
    minimal_footprint: dict = field(default_factory=dict)  # class -> F_p

    def fibers(self) -> dict:
        """class -> chart I -> the samples of Z_I in the class."""
        out: dict = {}
        for o in self.objects:
            I, z = o
            out.setdefault(self.class_of[o], {}).setdefault(I, set()).add(z)
        return out


def _overlaps(atlas: AtlasModel, red: Reduction, zsets: dict) -> dict:
    """(F, J) -> the zeros of Z_J in the overlap Ṽ_FJ as a mask (all of
    Z_J for F = J), for each chart J of ``zsets`` and each nonempty F ⊆ J
    that is J or has a change F→J; a sample outside its chart is in no set."""
    out = {}
    for J in atlas.index_sets():
        if J not in zsets:
            continue
        out[(J, J)] = z = _members(atlas, J, zsets[J])
        for F in _nonempty_subsets(J):
            if (F, J) in atlas.changes:
                out[(F, J)] = z & _members(atlas, J, v_tilde(atlas, red, F, J))
    return out


def _lift(atlas: AtlasModel, I: tuple, J: tuple) -> np.ndarray:
    """Per element α of Γ_I its canonical lift into Γ_J: α on the I slots,
    the identity elsewhere."""
    on_I = np.logical_and.reduce([
        atlas.projection[((j,), J)] == atlas.charts[(j,)].group.identity
        for j in J if j not in I
    ])
    lift = np.zeros(atlas.charts[I].group.order, dtype=np.int64)
    lift[atlas.projection[(I, J)][on_I]] = _where(on_I)
    return lift


def _classes_of(objects, pairs):
    """The classes of the relation ``pairs``, each named by its smallest
    object: the sorted names, and the name of every object's class."""
    ordered = sorted(objects)
    index = {o: i for i, o in enumerate(ordered)}
    ab = [(index[x], index[y]) for x, y in pairs]
    root = quotient(len(ordered), [a for a, _ in ab], [b for _, b in ab]).tolist()
    class_of = {o: ordered[root[index[o]]] for o in objects}
    return tuple(ordered[r] for r in sorted(set(root))), class_of


def complete_groupoid(
    atlas: AtlasModel, red: Reduction, zsets: dict, categories: CategoriesResult
) -> ZeroSetGroupoid:
    """The unique nonsingular completion of the zero-set category, as a
    sub-groupoid of B_K (``categories`` of the atlas, with B_K built).

    ``zsets`` maps chart indices to Γ_I-invariant sample subsets Z_I.
    The morphisms Z_I → Z_J are the (I, J, y, γ) of B_K with source in
    Z_I, y in Z_J ∩ Ṽ_IJ ∩ Ṽ_FJ for some nonempty F ⊆ I that is I or has
    a change F→J, and γ in the partial isotropy Γ_{I∖F} = ker(Γ_I → Γ_F).
    Verified on B_K's arrays: endpoint-determinacy, closure under B_K's
    composition and inverses, and the within-chart/charts-change
    factorization.
    """
    rep = CheckReport("completed_groupoid")
    B, (i_of, j_of, y, gamma) = categories.domain_category, categories.domain_parts
    indices = atlas.index_sets()
    overlaps = _overlaps(atlas, red, zsets)
    # per B_K morphism: whether y lies in an overlap through F whose
    # kernel holds γ, and the canonical lift of γ into Γ_J
    near = np.zeros(len(y), dtype=bool)
    lift = np.zeros(len(y), dtype=np.int64)
    starts = _where(np.diff(i_of * len(indices) + j_of, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(y)]):  # B_K's blocks, each in one run
        I, J = indices[i_of[lo]], indices[j_of[lo]]
        if (I, J) not in overlaps:
            continue
        block = slice(lo, hi)
        yb, gb = y[block], gamma[block]
        hit = np.zeros(len(yb), dtype=bool)
        for F in _nonempty_subsets(I):
            if (F, J) in overlaps:
                kernel = atlas.projection[(F, I)] == atlas.charts[F].group.identity
                hit |= overlaps[(F, J)][yb] & kernel[gb]
        near[block] = overlaps[(I, J)][yb] & hit
        if I != J:
            lift[block] = _lift(atlas, I, J)[gb]
    in_Z = np.array([x in zsets.get(I, ()) for I, x in B.objects], dtype=bool)
    mask = near & in_Z[B.src]
    ms = _where(mask)
    src, tgt = B.src[ms], B.tgt[ms]
    # (a) every morphism is determined by its (source, target) pair
    key = src * len(B.objects) + tgt
    order = np.argsort(key, kind="stable")
    again = key[order[1:]] == key[order[:-1]]
    for a, b in sorted(zip(order[1:][again].tolist(), order[:-1][again].tolist())):
        rep.fail("not_determined_by_endpoints", pair=(B.objects[src[a]], B.objects[tgt[a]]),
                 morphisms=[B.morphisms[ms[b]], B.morphisms[ms[a]]])
    # (b) closure under B_K's composition: (I, J, y, γ) then (J, K, z, δ)
    # is (I, K, z, ρ^Γ_{JI}(δ)·γ); over the composable pairs in the mask
    both = _where(mask[B.pairs.f] & mask[B.pairs.g])
    f, g, h = B.pairs.f[both], B.pairs.g[both], B.comp[both]
    for p in _where(~np.append(mask, False)[h]).tolist():
        a, b = f[p], g[p]
        I, J = indices[i_of[a]], indices[j_of[a]]
        group = atlas.charts[I].group
        alpha = group.mul(atlas.projection[(I, J)][gamma[b]], gamma[a])
        rep.fail("not_closed_under_composition", pair=(B.morphisms[a], B.morphisms[b]),
                 result=(I, indices[j_of[b]], int(y[b]), group.elements[alpha]))
    # (c) closure under inverses for within-chart morphisms
    within = i_of == j_of
    has_inverse = np.zeros(len(mask), dtype=bool)
    has_inverse[f[h == B.identity[B.src[f]]]] = True
    for m in _where(mask & within & ~has_inverse).tolist():
        rep.fail("inverse_missing", morphism=B.morphisms[m])
    # factorization: each cross-chart morphism splits both ways, as
    # (I, I, ρ(y), α) then (I, J, y, 1) and as (I, J, α_J⁻¹·y, 1) then
    # (J, J, y, α_J), α_J the canonical lift of α
    unit = gamma == np.array([atlas.charts[I].group.identity for I in indices])[i_of]
    made = h >= 0
    first, second = np.zeros((2, len(mask)), dtype=bool)
    first[h[made & within[f] & unit[g]]] = True
    second[h[made & ~within[f] & unit[f] & within[g] & (gamma[g] == lift[h])]] = True
    for m in _where(mask & ~within & ~unit & ~(first & second)).tolist():
        rep.fail("factorization", morphism=B.morphisms[m])
    objects = tuple(B.objects[o] for o in _where(in_Z).tolist())
    classes, class_of = _classes_of(
        objects, ((B.objects[s], B.objects[t]) for s, t in zip(src.tolist(), tgt.tolist()))
    )
    morphisms = tuple(
        (indices[i], indices[j], z, c) for i, j, z, c in
        zip(i_of[ms].tolist(), j_of[ms].tolist(), y[ms].tolist(), gamma[ms].tolist())
    )
    return ZeroSetGroupoid(
        objects=objects,
        morphisms=morphisms,
        report=rep,
        classes=classes,
        class_of=class_of,
        overlaps=overlaps,
    )


def hausdorff_complete(completed: ZeroSetGroupoid) -> ZeroSetGroupoid:
    """``completed`` with the minimal footprint of each class.

    The sets F with a given zero in the overlap Ṽ_FJ must be nested;
    otherwise the reduction is rejected with a ``ValueError``.  Verified:
    the footprints of each class are nested.
    """
    rep = CheckReport("hausdorff_groupoid")
    # nestedness of {F : z ∈ Ṽ_FJ} per zero
    overlaps = completed.overlaps
    f_sets: dict = {}
    for J, z in completed.objects:
        fs = [F for F in _nonempty_subsets(J) if (F, J) in overlaps and overlaps[(F, J)][z]]
        for a in fs:
            for b in fs:
                if not (set(a) <= set(b) or set(b) <= set(a)):
                    raise ValueError(f"overlaps not nested at zero {(J, z)}: {a} vs {b}")
        f_sets[(J, z)] = fs
    # minimal footprint F_p = min{F : p meets the F-overlap}
    members: dict = {}
    for o in completed.objects:
        members.setdefault(completed.class_of[o], []).append(o)
    minimal: dict = {}
    for p in completed.classes:
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
    return replace(completed, report=rep, minimal_footprint=minimal)


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
                    rep.fail("formulas_disagree", cls=p, chart=I, count=lam_count,
                             orbit=lam_orbit)
            values.append(lam_count)
        if len(set(values)) != 1:
            rep.fail("chart_dependent", cls=p, values=values)
        weights[p] = values[0]
    return WeightResult(weights=weights, report=rep)


@dataclass
class BranchStructure:
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
    for p in hausdorff.classes:
        I = min(per_chart[p], key=lambda I: (len(I), I))
        total = Fraction(len(per_chart[p][I]), atlas.charts[I].group.order)
        if total != weights.get(p):
            rep.fail("weighting", cls=p, total=total, expected=weights.get(p))
    return BranchStructure(report=rep)


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
    closed_pairs = tuple((("I", t), ("Ip", t)) for t in samples if t <= half)
    classes, class_of = _classes_of(objects, closed_pairs)
    weights = {}
    for p in classes:
        fiber = [o for o in objects if class_of[o] == p]
        weights[p] = m + mp if len(fiber) == 2 else (m if p[0] == "I" else mp)
    p0 = class_of[("I", Fraction(0))]
    boundary_in = fundamental_class_0d([p0], {p0: weights[p0]}, {p0: 1})
    p1a = class_of[("I", Fraction(1))]
    p1b = class_of[("Ip", Fraction(1))]
    boundary_out = fundamental_class_0d([p1a, p1b], {p1a: weights[p1a], p1b: weights[p1b]},
                                        {p1a: 1, p1b: 1})
    identity = boundary_out.total - boundary_in.total
    return BranchedIntervalModel(
        samples=samples,
        objects=objects,
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
    total: Fraction | None = None,
    warnings: Sequence | None = None,
) -> dict:
    out = {"zeros": [
        {
            "chart": list(z.chart_index),
            "coordinates": [float(c) for c in z.coordinates],
            "residual": float(z.residual),
            "sign": int(z.sign),
            "minimal_footprint": list(z.minimal_footprint) if z.minimal_footprint is not None
            else None,
            "weight": rat_str(z.weight) if z.weight is not None else None,
        }
        for z in zeros
    ]}
    if total is not None:
        out["total"] = rat_str(Fraction(total))
    if warnings:
        out["warnings"] = list(warnings)
    return out
