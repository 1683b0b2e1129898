"""Zero finding, groupoid completion, weights, and 0-dimensional classes.

The perturbed zero sets Z_I live in two parallel forms:

* numerically, as Newton-refined floating points found from seed grids
  (:func:`find_zeros`), each carrying a residual, a Jacobian, and an
  orientation sign certified through the exact exterior-algebra engine;
* combinatorially, as Γ_I-invariant subsets of the chart sample clouds,
  on which the groupoid completion, the Hausdorff closure, the weighting
  function Λ and the weighted-branched-orbifold axioms are verified
  extensionally.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .charts_atlas import (
    AtlasModel,
    CheckReport,
    UnionFind,
    b_composite,
    composition_table,
    join_label,
    kernel_labels,
    split_label,
)
from .exterior_engine import (
    RationalMatrix,
    rat_str,
    standard_orientation,
    zero_sign,
)
from .expressions import eval_pred, value_and_jacobian
from .reduction_perturb import Perturbation, Reduction, v_tilde

__all__ = [
    "TAU_ZERO",
    "TAU_SIGN",
    "EPS_MERGE",
    "NEWTON_MAX_ITERS",
    "PerturbationRejected",
    "ZeroPoint",
    "FindZerosResult",
    "find_zeros",
    "CompletedGroupoid",
    "complete_groupoid",
    "HausdorffGroupoid",
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
class FindZerosResult:
    zeros: list
    warnings: list


def _section_plus_nu(atlas: AtlasModel, nu: Perturbation, I: tuple):
    chart = atlas.charts[I]
    s_asts = list(chart.section_asts or ())
    n_asts = list(nu.asts.get(I, ()))
    if s_asts and n_asts and len(s_asts) != len(n_asts):
        raise ValueError(f"section/perturbation arity mismatch in chart {I}")
    return s_asts, n_asts


def _eval_f(s_asts, n_asts, coords, dims):
    sv, sj = value_and_jacobian(s_asts, coords, tangent_dims=dims)
    if n_asts:
        nv, nj = value_and_jacobian(n_asts, coords, tangent_dims=dims)
    else:
        nv = [0] * len(sv)
        nj = [[0] * len(dims) for _ in sv]
    vals = np.array([float(a) + float(b) for a, b in zip(sv, nv)])
    jac = np.array(
        [[float(a) + float(b) for a, b in zip(r1, r2)] for r1, r2 in zip(sj, nj)]
    ).reshape(len(sv), len(dims))
    return vals, jac


def find_zeros(
    atlas: AtlasModel,
    red: Reduction,
    nu: Perturbation,
    seeds: dict | None = None,
    orientations: dict | None = None,
) -> FindZerosResult:
    """Newton iteration from seed grids, per chart, with exact sign data.

    ``seeds`` maps chart indices to coordinate tuples; by default one
    V_I sample point per Γ_I-orbit is used (zero sets are Γ-invariant, so
    orbit representatives reach every zero class).  Membership of
    converged points in V_I uses the reduction predicates when available.
    """
    zeros: list[ZeroPoint] = []
    warnings: list[str] = []
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        dims = list(chart.tangent_dims)
        if not dims and chart.obstruction_dim == 0:
            continue
        if chart.section_asts is None:
            continue
        if len(dims) != chart.obstruction_dim:
            raise ValueError(f"chart {I} is not index 0 over its tangent dims")
        s_asts, n_asts = _section_plus_nu(atlas, nu, I)
        if seeds is not None and I in seeds:
            chart_seeds = [tuple(float(c) for c in p) for p in seeds[I]]
        else:
            vset = sorted(red.sets.get(I, ()))
            chart_seeds = [
                tuple(float(c) for c in chart.domain.points[x])
                for x in vset
                if x == min(chart.domain.orbit(x))
            ]
        found: list[ZeroPoint] = []
        seed_converged: list[bool] = []
        seed_values: list[np.ndarray] = []
        for seed in chart_seeds:
            coords = list(seed)
            converged = False
            vals = None
            best = float("inf")
            stall = 0
            for _ in range(NEWTON_MAX_ITERS):
                vals, jac = _eval_f(s_asts, n_asts, coords, dims)
                res = float(np.max(np.abs(vals))) if vals.size else 0.0
                if res < TAU_ZERO:
                    converged = True
                    break
                # stall cutoff: no residual improvement over several steps
                # means the iteration is cycling away from any zero
                if res < best:
                    best = res
                    stall = 0
                else:
                    stall += 1
                    if stall >= 8:
                        break
                try:
                    step = np.linalg.solve(jac, vals)
                except np.linalg.LinAlgError:
                    break
                if not np.all(np.isfinite(step)):
                    break
                for k, d in enumerate(dims):
                    coords[d] -= float(step[k])
            seed_values.append(
                vals if vals is not None else np.zeros(len(s_asts))
            )
            if not converged:
                seed_converged.append(False)
                continue
            pred = red.preds.get(I)
            if pred is not None and not eval_pred(pred, coords):
                seed_converged.append(True)
                continue
            seed_converged.append(True)
            point = tuple(coords)
            if any(
                max(abs(a - b) for a, b in zip(point, z.coordinates)) < EPS_MERGE
                for z in found
            ):
                continue
            vals, jac = _eval_f(s_asts, n_asts, coords, dims)
            if jac.size:
                det = float(np.linalg.det(jac))
                if abs(det) <= TAU_SIGN:
                    raise PerturbationRejected(
                        f"singular jacobian at zero {point} in chart {I}"
                    )
            jac_q = RationalMatrix.from_rows(
                [[Fraction(float(v)) for v in row] for row in jac]
            ) if jac.size else RationalMatrix.zero(0, 0)
            if orientations is not None and I in orientations:
                omega, eta = orientations[I]
            else:
                omega, eta = standard_orientation(len(dims), len(dims))
            sign = zero_sign(jac_q, omega, eta) if jac.size else 1
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
        zeros.extend(found)
    return FindZerosResult(zeros=zeros, warnings=warnings)


# ---------------------------------------------------------------------------
# groupoid completion over sample zero sets
# ---------------------------------------------------------------------------


def _act(atlas, I, g, x):
    return atlas.charts[I].domain.act(g, x)


def _nonempty_subsets(I: tuple):
    n = len(I)
    for mask in range(1, 1 << n):
        yield tuple(I[k] for k in range(n) if mask & (1 << k))


@dataclass
class CompletedGroupoid:
    objects: tuple  # (I, sample index)
    morphisms: tuple  # (I, J, y, alpha) with alpha a Γ_I label
    source: dict
    target: dict
    report: CheckReport
    classes: tuple = ()
    class_of: dict = field(default_factory=dict)


def _tilde_cl(atlas, red, zsets, closures, F, J) -> frozenset:
    """The zeros of Z_J in cl(Ṽ_FJ): the declared closure where
    ``closures`` has one, else the open overlap Ṽ_FJ."""
    if (F, J) in closures:
        return frozenset(y for y in closures[(F, J)] if y in zsets[J])
    if F == J:
        return frozenset(zsets[J])
    if (F, J) not in atlas.changes:
        return frozenset()
    return frozenset(y for y in v_tilde(atlas, red, F, J) if y in zsets[J])


def _groupoid_core(atlas, red, zsets, closures) -> tuple:
    """Shared morphism enumeration over the overlaps closed by
    ``closures`` (see :func:`_tilde_cl`)."""
    indices = [I for I in atlas.index_sets() if I in zsets]
    objects = [(I, z) for I in indices for z in sorted(zsets[I])]
    obj_set = set(objects)
    morphisms = []
    src: dict = {}
    tgt: dict = {}
    for I in indices:
        for J in indices:
            if not set(I) <= set(J):
                continue
            if I != J and (I, J) not in atlas.changes:
                continue
            vt_IJ = (
                frozenset(zsets[I])
                if I == J
                else frozenset(
                    y
                    for y in v_tilde(atlas, red, I, J)
                    if y in zsets[J]
                )
            )
            seen = set()
            for F in _nonempty_subsets(I):
                if F != I and (F, J) not in atlas.changes and F != J:
                    continue
                cl_FJ = _tilde_cl(atlas, red, zsets, closures, F, J)
                kernel = kernel_labels(
                    atlas.charts[I].group, I, F, atlas.charts[F].group.identity
                )
                for y in sorted(vt_IJ & cl_FJ):
                    for alpha in kernel:
                        m = (I, J, y, alpha)
                        if m in seen:
                            continue
                        seen.add(m)
                        x = y if I == J else atlas.changes[(I, J)].rho_idx[y]
                        source = (
                            I,
                            _act(atlas, I, atlas.charts[I].group.inv(alpha), x),
                        )
                        if source not in obj_set:
                            continue
                        morphisms.append(m)
                        src[m] = source
                        tgt[m] = (J, y)
    return objects, morphisms, src, tgt


def _classes_of(objects, pairs):
    """The classes of the relation ``pairs``, each named by its smallest
    object: the sorted names, and the name of every object's class."""
    uf = UnionFind(objects, pairs)
    class_of = {o: uf.find(o) for o in objects}
    return tuple(sorted(set(class_of.values()))), class_of


def complete_groupoid(
    atlas: AtlasModel, red: Reduction, zsets: dict
) -> CompletedGroupoid:
    """The unique nonsingular completion of the zero-set category.

    ``zsets`` maps chart indices to Γ_I-invariant sample subsets Z_I.
    Morphisms Z_I → Z_J for I ⊆ J are the pairs (y, α) with y in the
    overlap through some nonempty F ⊆ I and α in the partial isotropy
    Γ_{I∖F}; verified: endpoint-determinacy, closure under composition
    and inverses, and the within-chart/charts-change factorization.
    """
    rep = CheckReport("completed_groupoid")
    objects, morphisms, src, tgt = _groupoid_core(atlas, red, zsets, {})
    morph_set = set(morphisms)
    # (a) every morphism is determined by its (source, target) pair
    seen: dict = {}
    for m in morphisms:
        key = (src[m], tgt[m])
        if key in seen:
            rep.fail("not_determined_by_endpoints", pair=key, morphisms=[seen[key], m])
        seen[key] = m
    # (b) closure under composition
    composition_table(
        rep, "not_closed_under_composition", morphisms, src, tgt,
        functools.partial(b_composite, atlas),
    )
    # (c) closure under inverses for within-chart morphisms
    for m in morphisms:
        I, J, y, alpha = m
        if I != J:
            continue
        inv = (I, I, src[m][1], atlas.charts[I].group.inv(alpha))
        if inv not in morph_set:
            rep.fail("inverse_missing", morphism=m)
    # factorization: each cross-chart morphism splits both ways
    for m in morphisms:
        I, J, y, alpha = m
        if I == J or alpha == atlas.charts[I].group.identity:
            continue
        x = atlas.changes[(I, J)].rho_idx[y]
        mu_a = (I, I, x, alpha)
        mu_b = (I, J, y, atlas.charts[I].group.identity)
        ok_first = mu_a in morph_set and mu_b in morph_set
        # canonical lift of α into Γ_J: α on the I slots, identity elsewhere
        gJ = atlas.charts[J].group
        id_parts = split_label(gJ.identity, len(J))
        a_parts = split_label(alpha, len(I))
        lift_parts = []
        for pos, j in enumerate(J):
            lift_parts.append(
                a_parts[I.index(j)] if j in I else id_parts[pos]
            )
        alpha_J = join_label(lift_parts)
        mu_a2 = (J, J, y, alpha_J)
        yprime = _act(atlas, J, gJ.inv(alpha_J), y)
        mu_b2 = (I, J, yprime, atlas.charts[I].group.identity)
        ok_second = mu_a2 in morph_set and mu_b2 in morph_set
        if not (ok_first and ok_second):
            rep.fail("factorization", morphism=m)
    classes, class_of = _classes_of(objects, ((src[m], tgt[m]) for m in morphisms))
    return CompletedGroupoid(
        objects=tuple(objects),
        morphisms=tuple(morphisms),
        source=src,
        target=tgt,
        report=rep,
        classes=classes,
        class_of=class_of,
    )


@dataclass
class HausdorffGroupoid:
    objects: tuple
    morphisms: tuple
    source: dict
    target: dict
    report: CheckReport
    classes: tuple
    class_of: dict
    minimal_footprint: dict  # class -> F_p

    def fibers(self) -> dict:
        """class -> chart I -> the samples of Z_I in the class."""
        out: dict = {}
        for o in self.objects:
            I, z = o
            out.setdefault(self.class_of[o], {}).setdefault(I, set()).add(z)
        return out


def hausdorff_complete(
    atlas: AtlasModel,
    red: Reduction,
    zsets: dict,
    completed: CompletedGroupoid,
    closures: dict | None = None,
) -> HausdorffGroupoid:
    """Close the morphism relation using declared closures of the overlaps.

    ``closures`` maps (F, J) to the sample set cl(Ṽ_FJ); missing entries
    default to the open overlap, so with no closure data the result
    coincides with the completed groupoid.  The sets F with a given zero
    in cl(Ṽ_FJ) must be nested; otherwise the closure data is rejected.
    """
    rep = CheckReport("hausdorff_groupoid")
    closures = closures or {}
    # nestedness of {F : z ∈ cl(Ṽ_FJ)} per zero
    indices = [I for I in atlas.index_sets() if I in zsets]
    f_sets: dict = {}
    for J in indices:
        for z in sorted(zsets[J]):
            fs = [
                F for F in _nonempty_subsets(J)
                if z in _tilde_cl(atlas, red, zsets, closures, F, J)
            ]
            for a in fs:
                for b in fs:
                    if not (set(a) <= set(b) or set(b) <= set(a)):
                        raise ValueError(
                            f"closure data not nested at zero {(J, z)}: "
                            f"{a} vs {b}"
                        )
            f_sets[(J, z)] = fs

    objects, morphisms, src, tgt = _groupoid_core(atlas, red, zsets, closures)
    morph_set = set(morphisms)
    for m in completed.morphisms:
        if m not in morph_set:
            rep.fail("lost_completed_morphism", morphism=m)
    seen = set()
    for m in morphisms:
        key = (src[m], tgt[m])
        if key in seen:
            rep.fail("not_nonsingular", pair=key)
        seen.add(key)
    classes, class_of = _classes_of(objects, ((src[m], tgt[m]) for m in morphisms))
    # Hausdorff classes coarsen the completed classes
    for m in completed.morphisms:
        if class_of[completed.source[m]] != class_of[completed.target[m]]:
            rep.fail("refinement_broken", morphism=m)
    # minimal footprint F_p = min{F : p meets cl of the F-overlap}
    minimal: dict = {}
    for p in classes:
        candidates = []
        for o in objects:
            if class_of[o] != p:
                continue
            J, z = o
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
    return HausdorffGroupoid(
        objects=tuple(objects),
        morphisms=tuple(morphisms),
        source=src,
        target=tgt,
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


def weight_function(atlas: AtlasModel, hausdorff: HausdorffGroupoid) -> WeightResult:
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
                kernel = kernel_labels(
                    atlas.charts[I].group,
                    I,
                    F_p,
                    atlas.charts[F_p].group.identity,
                )
                lam_orbit = Fraction(len(kernel), order_I)
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
    atlas: AtlasModel, hausdorff: HausdorffGroupoid, weights: dict
) -> BranchStructure:
    """Branches per class in a minimal chart: the partial-isotropy orbit
    pieces, each of weight 1/|Γ_I|; the covering, local-regularity and
    weighting axioms are then checked extensionally."""
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
        # (Covering): the branch pieces exhaust the fiber over p
        union = set()
        for _, piece, _ in pieces:
            union |= piece
        if union != fiber:
            rep.fail("covering", cls=p)
        # (Local Regularity): pieces are disjoint and project injectively
        for a in range(len(pieces)):
            for b in range(a + 1, len(pieces)):
                if pieces[a][1] & pieces[b][1]:
                    rep.fail("local_regularity", cls=p)
        # (Weighting): Λ(p) equals the sum of branch weights through p
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
