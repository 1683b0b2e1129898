"""Built-in example models, the full run pipeline, and the ``vfc`` CLI.

The two-disk models (``sphere-euler``, ``football-euler``) realize an
obstruction bundle over a two-chart surface: disks ``D₁`` (coordinates z)
and ``D₂`` (coordinates w) glued along an annulus ``A ≅ [0,1]×S¹``.  The
transition chart lives on a cyclic cover of the annulus circle with deck
group Γ₁×Γ₂; its domain sits inside E₁×E₂×A as the graph of the linear
map M(x) = −dw ∘ (dz)⁻¹, so the section s₁₂(e₁, x) = (e₁, M(x)e₁) cuts
out the annulus.  The perturbations ν_i are radial vector fields with a
single nondegenerate zero at each disk center, interpolated over the
annulus by a smooth cutoff; the transition section s₁₂ + ν₁₂ never
vanishes, so the perturbed zero set is exactly the two centers with
weights 1/|Γ₁| + 1/|Γ₂|.

Sample clouds are deterministic dyadic approximations (denominator 2²¹)
computed on orbit representatives and extended by the exact rational
group matrices, so every group-equivariance and compatibility identity
holds exactly on declared data; smooth ASTs agree with the samples to
well within the loose consistency tolerance.

Exit codes: 0 all checks pass, 1 validation failure, 2 numerical
rejection (non-transverse perturbation), 3 I/O, parse or parameter
errors.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import click
import numpy as np
from numpy.linalg import matrix_power

from .charts_atlas import (
    AtlasModel,
    ChartModel,
    CoordinateChangeModel,
    FiniteGroup,
    GroupQuotientModel,
    RationalArray,
    atlas_from_json,
    atlas_to_json,
    build_categories,
    check_atlas_model,
    check_chart,
    check_cocycle,
    check_coordinate_change,
    check_realizations,
    check_tame_and_filtration,
    cyclic_group,
    product_group,
    CheckReport,
)
from .exterior_engine import parse_rat, rat_str
from .expressions import num, var
from .reduction_perturb import (
    EquivariantNorms,
    Perturbation,
    Reduction,
    build_pruned_category,
    check_adapted,
    check_perturbation,
    check_reduction,
    compute_adaptedness_constants,
    norms_from_json,
    norms_to_json,
    perturbation_from_json,
    perturbation_to_json,
    reduction_from_json,
    reduction_to_json,
)
from .zeroset_branched import (
    PerturbationRejected,
    branched_interval_model,
    complete_groupoid,
    find_zeros,
    fundamental_class_0d,
    hausdorff_complete,
    weight_function,
    wnb_check,
    zero_set_report,
)

__all__ = [
    "EXAMPLE_NAMES",
    "ExampleDescriptor",
    "BuiltExample",
    "build_example",
    "build_toy_atlas",
    "random_toy_atlas",
    "run_example",
    "check_atlas_data",
    "example_to_json",
    "emit_json",
    "main",
]

F = Fraction

EXAMPLE_NAMES = (
    "football-atlas",
    "football-fclass",
    "sphere-euler",
    "football-euler",
    "branched-interval",
    "single-orbifold-chart",
)

RUN_SCHEMA = "vfc-run/1"

#: denominator of the dyadic sample approximations
RAT_DEN = 2**21

#: band coordinates of the three annulus sample rings
RING_T = (F(1, 4), F(1, 2), F(3, 4))


def _rat(x: float) -> Fraction:
    return F(round(x * RAT_DEN), RAT_DEN)


def _rat_vec(v) -> tuple:
    return tuple(_rat(float(c)) for c in v)


@dataclass
class ExampleDescriptor:
    name: str
    parameters: dict = field(default_factory=dict)


@dataclass
class BuiltExample:
    """A fully populated example: atlas plus (where applicable) the
    reduction V, the precompact core C, the perturbation, the norms and
    the smallness constant to use in the adaptedness checks."""

    kind: str  # "euler" | "atlas" | "orbifold" | "interval"
    atlas: AtlasModel | None = None
    V: Reduction | None = None
    C: Reduction | None = None
    nu: Perturbation | None = None
    norms: EquivariantNorms | None = None
    sigma: Fraction | None = None
    interval: object | None = None
    parameters: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# toy atlases: X with cover sets F_i, charts U_I = F_I × Γ_I, E = 0
# ---------------------------------------------------------------------------


def build_toy_atlas(cover: dict, x_labels: list, orders: dict) -> AtlasModel:
    """Charts U_I = F_I × Γ_I with Γ acting on the second factor."""
    x_labels = list(x_labels)
    basics = {i: cyclic_group(orders.get(i, 1)) for i in cover}

    def footprint(I):
        out = set(x_labels)
        for i in I:
            out &= set(cover[i])
        return sorted(out)

    indices = [
        I
        for r in range(1, len(cover) + 1)
        for I in itertools.combinations(sorted(cover), r)
        if footprint(I)
    ]
    charts = {}
    layouts = {}
    for I in indices:
        group = product_group([basics[i] for i in I])
        labels = footprint(I)
        pts = [(x, g) for x in labels for g in range(group.order)]
        layout = {p: k for k, p in enumerate(pts)}
        layouts[I] = layout
        # sample (x, g) is number x·|Γ| + g, and d sends it to (x, d·g)
        row = np.arange(len(labels))[:, None] * group.order
        perms = (row[None] + group.table[:, None, :]).reshape(group.order, len(pts))
        coords = tuple((F(x_labels.index(x)), F(g)) for (x, g) in pts)
        domain = GroupQuotientModel(points=coords, group=group, perms=perms)
        charts[I] = ChartModel(
            index=I,
            domain=domain,
            obstruction_dim=0,
            obstruction_action=(),
            obstruction_points=((),),
            section_samples=((),) * len(pts),
            footprint_map={k: x for (x, g), k in layout.items()},
        )
    atlas = AtlasModel(
        x_labels=tuple(x_labels),
        cover={i: frozenset(s) for i, s in cover.items()},
        charts=charts,
        changes={},
    )
    for I in indices:
        for J in indices:
            if set(I) < set(J):
                proj = atlas.projection[(I, J)].tolist()
                atlas.changes[(I, J)] = CoordinateChangeModel(
                    source_index=I,
                    target_index=J,
                    tilde_indices=tuple(range(len(layouts[J]))),
                    rho_idx={k: layouts[I][(x, proj[g])] for (x, g), k in layouts[J].items()},
                    phi_hat=(),
                )
    return atlas


def random_toy_atlas(seed: int) -> AtlasModel:
    rng = random.Random(seed)
    nx = rng.randint(4, 7)
    x_labels = [f"x{k}" for k in range(nx)]
    ncharts = rng.randint(2, 3)
    cover = {}
    for i in range(1, ncharts + 1):
        size = rng.randint(2, nx)
        cover[i] = set(rng.sample(x_labels, size))
    for k, x in enumerate(x_labels):
        if not any(x in s for s in cover.values()):
            cover[1 + (k % ncharts)].add(x)
    orders = {i: rng.choice([1, 2, 3]) for i in cover}
    return build_toy_atlas(cover, x_labels, orders)


# ---------------------------------------------------------------------------
# the two-disk surface models (sphere / football)
# ---------------------------------------------------------------------------


def _order_matrix(n: int) -> np.ndarray:
    """An integer rotation of order n (n ∈ {1, 2, 3})."""
    if n == 1:
        return np.eye(2, dtype=np.int64)
    if n == 2:
        return -np.eye(2, dtype=np.int64)
    if n == 3:
        # conjugate of the 1/3-turn by the hexagonal frame P
        return np.array([[0, -1], [1, -1]], dtype=np.int64)
    raise ValueError(f"no exact rational rotation of order {n}")


def _apply(mat: np.ndarray, v: tuple) -> tuple:
    """``mat·v`` for an int matrix and a vector of rationals, exactly."""
    return tuple(sum(a * c for a, c in zip(row, v)) for row in mat.tolist())


def _frame(n2: int):
    """The float frame P with P·Rot(2π/n₂)·P⁻¹ exactly rational."""
    if n2 == 3:
        s = math.sqrt(3.0)
        return ((1.0, 1.0 / s), (0.0, 2.0 / s))
    return ((1.0, 0.0), (0.0, 1.0))


def _frame_asts(n2: int):
    if n2 == 3:
        inv_s3 = ["/", num(1), ["sqrt", num(3)]]
        two_s3 = ["/", num(2), ["sqrt", num(3)]]
        return ((num(1), inv_s3), (num(0), two_s3))
    return ((num(1), num(0)), (num(0), num(1)))


def _q_ast(n2: int, w1, w2):
    """The Γ₂-invariant rational quadratic form with unit ring |P⁻¹w| = 1."""
    if n2 == 3:
        return [
            "+",
            ["-", ["*", w1, w1], ["*", w1, w2]],
            ["*", w2, w2],
        ]
    return ["+", ["*", w1, w1], ["*", w2, w2]]


def _apply_frame(P, vec) -> tuple[float, float]:
    return (
        P[0][0] * vec[0] + P[0][1] * vec[1],
        P[1][0] * vec[0] + P[1][1] * vec[1],
    )


def _ring_label(g: int, k: int, N: int) -> str:
    return f"ring{g}:{k % N}"


@dataclass
class _Pole:
    """One disk chart of the two-disk model: the centre (sample 0) and three
    rings of n·N samples, n = |Γ|.  Ring g lies at band coordinate
    ``RING_T[g]`` with radius ``radius(RING_T[g])`` in the frame P; its
    sample j + s·N is rot^s applied to sample j, and its sample j lies over
    the footprint sample ``orient``·j of the ring.  The centre sits at band
    coordinate ``centre_band`` over the footprint sample ``centre``."""

    index: tuple
    group: FiniteGroup
    rot: np.ndarray
    frame: tuple
    radius: Callable[[float], float]  # band coordinate -> radius
    orient: int
    centre: str
    centre_band: Fraction
    N: int

    @property
    def nN(self) -> int:
        return self.group.order * self.N

    def idx(self, g: int, j: int) -> int:
        return 1 + g * self.nN + j % self.nN

    def ring_indices(self, g: int) -> range:
        return range(self.idx(g, 0), self.idx(g, 0) + self.nN)

    def ring(self, rep) -> list:
        """The values of one ring: ``rep(θ_j)`` at the representative angles
        θ_j = 2πj/(nN), j < N, extended by rot^s to the samples j + s·N."""
        reps = [rep(2.0 * math.pi * j / self.nN) for j in range(self.N)]
        out = list(reps)
        for s in range(1, self.group.order):
            out.extend(_apply(matrix_power(self.rot, s), v) for v in reps)
        return out

    def domain(self) -> GroupQuotientModel:
        pts: list = [(F(0), F(0))]
        for t in RING_T:
            r = self.radius(float(t))
            pts.extend(self.ring(
                lambda a: _rat_vec(_apply_frame(self.frame, (r * math.cos(a), r * math.sin(a))))
            ))
        # element s of the cyclic group is rot^s: affine rows [rot^s | 0]
        perms = [
            [0] + [self.idx(g, j + s * self.N) for g in range(3) for j in range(self.nN)]
            for s in range(self.group.order)
        ]
        affine = [np.c_[matrix_power(self.rot, s), [0, 0]] for s in range(self.group.order)]
        return GroupQuotientModel(points=tuple(pts), group=self.group, perms=perms, affine=affine)

    def footprint(self) -> dict:
        foot = {0: self.centre}
        for g in range(3):
            for j in range(self.nN):
                foot[self.idx(g, j)] = _ring_label(g, self.orient * j, self.N)
        return foot

    def position(self, i: int) -> tuple:
        """(band coordinate, footprint circle coordinate) of sample i."""
        if i == 0:
            return (self.centre_band, None)
        g, j = (i - 1) // self.nN, (i - 1) % self.nN
        return (RING_T[g], F((self.orient * j) % self.N, self.N))


def _band_circle_metric(positions: list) -> RationalArray:
    """The sup metric on (band, circle) positions: the larger of |Δband|
    and the distance on the unit circle, which is 0 against a centre
    (circle coordinate ``None``).  Positions come in intermediate-key
    order; the coordinates become numerators over one common denominator."""
    coords = RationalArray.of([(b, t or 0) for b, t in positions], "positions", (-1, 2))
    band, circle, den = coords.num[:, 0], coords.num[:, 1], coords.den
    on_circle = np.array([t is not None for _, t in positions])
    dt = np.abs(circle[:, None] - circle[None, :])
    dt = np.minimum(dt, den - dt)
    dt[~(on_circle[:, None] & on_circle[None, :])] = 0
    num = np.maximum(np.abs(band[:, None] - band[None, :]), dt)
    return RationalArray.reduced(num, den)


def _two_disk_model(n1: int, n2: int, N: int, euler: bool) -> BuiltExample:
    """The two-chart surface atlas with Γ₁ = Z_{n1}, Γ₂ = Z_{n2}.

    ``euler`` selects the obstruction-bundle model (E_i = R², section
    graphs and perturbations); otherwise the bare orbifold atlas (E = 0).
    """
    if N < 8:
        raise ValueError("sample density must be at least 8 points per circle")
    if (n1, n2) not in {(1, 1), (2, 3)}:
        raise ValueError("supported isotropy orders: (1,1) and (2,3)")
    g1 = cyclic_group(n1)
    g2 = cyclic_group(n2)
    g12 = product_group([g1, g2])
    L = n1 * n2 * N  # cover circle
    D = n1 * n2  # deck group order
    R1 = _order_matrix(n1)
    A2 = _order_matrix(n2)
    # deck shifts: sigma1 lifts the Γ₁ generator (chart-1 shift +N,
    # trivial on chart 2), sigma2 lifts the Γ₂ generator
    sigma1 = next(
        s
        for s in range(0, L, N)
        if s % (n1 * N) == N % (n1 * N) and s % (n2 * N) == 0
    )
    sigma2 = next(
        s
        for s in range(0, L, N)
        if s % (n1 * N) == 0 and s % (n2 * N) == (-N) % (n2 * N)
    )
    P = _frame(n2)

    pmul = functools.partial(_apply_frame, P)

    # ----- the poles: the z-disk (chart 1) and the w-disk (chart 2) -----
    pole1 = _Pole(index=(1,), group=g1, rot=R1, frame=_frame(n1), radius=lambda t: 1.0 + t,
                  orient=1, centre="c1", centre_band=F(0), N=N)
    pole2 = _Pole(index=(2,), group=g2, rot=A2, frame=P, radius=lambda t: 1.0 / (1.0 + t),
                  orient=-1, centre="c2", centre_band=F(1), N=N)

    # ----- chart 12: rings of the annulus cover -----
    n12 = 3 * L
    # deck[k] = (p, q): element k of Γ₁ × Γ₂ is (g^p, g^q)
    deck = [(p, q) for p in range(n1) for q in range(n2)]
    deck_shift = {(p, q): (p * sigma1 + q * sigma2) % L for (p, q) in deck}
    # element k acts on E₁₂ = E₁ ⊕ E₂ by act12[k]
    zero2 = np.zeros((2, 2), dtype=np.int64)
    act12 = [np.block([[matrix_power(R1, p), zero2], [zero2, matrix_power(A2, q)]])
             for (p, q) in deck]
    e_base = (
        (F(1, 2), F(0)),
        (F(-1, 2), F(0)),
        (F(0), F(1, 2)),
        (F(0), F(-1, 2)),
    )

    def idx12(g: int, j: int) -> int:
        return g * L + j % L

    def eidx12(b: int, p: int, q: int) -> int:
        return n12 + b * D + deck.index((p % n1, q % n2))

    zero4 = (F(0),) * 4 if euler else ()
    pts12: list = []
    for g in range(3):
        for j in range(L):
            if euler:
                pts12.append((F(0), F(0), RING_T[g], F(j, L)))
            else:
                pts12.append((RING_T[g], F(j, L)))
    if euler:
        for b in range(4):
            for (p, q) in deck:
                e = _apply(matrix_power(R1, p), e_base[b])
                pts12.append((e[0], e[1], F(1, 2), F(deck_shift[(p, q)], L)))
    perms12 = []
    for (p, q) in deck:
        shift = deck_shift[(p, q)]
        perm = [0] * len(pts12)
        for g in range(3):
            for j in range(L):
                perm[idx12(g, j)] = idx12(g, j + shift)
        if euler:
            for b in range(4):
                for (p0, q0) in deck:
                    perm[eidx12(b, p0, q0)] = eidx12(b, p0 + p, q0 + q)
        perms12.append(perm)
    foot12 = {}
    for g in range(3):
        for j in range(L):
            foot12[idx12(g, j)] = _ring_label(g, j, N)

    # covering maps to the basic charts
    rho1_idx, rho2_idx = (
        {idx12(g, j): pole.idx(g, pole.orient * j) for g in range(3) for j in range(L)}
        for pole in (pole1, pole2)
    )
    tilde12 = tuple(range(n12))

    # ----- smooth formulas on the transition chart -----
    if euler:
        a, b, t, u = var(0), var(1), var(2), var(3)
    else:
        t, u = var(0), var(1)
    c2a = ["cos2pi", ["*", num(n2), u]]
    s2a = ["sin2pi", ["*", num(n2), u]]
    c1a = ["cos2pi", ["*", num(n1), u]]
    s1a = ["sin2pi", ["*", num(n1), u]]
    inv1t = ["/", num(1), ["+", num(1), t]]
    PA = _frame_asts(n2)
    # w = P·(c1, −s1)/(1+t) and K·w = P·(s1, c1)/(1+t)
    wv = [
        ["*", ["+", ["*", PA[r][0], c1a], ["*", PA[r][1], ["neg", s1a]]], inv1t]
        for r in range(2)
    ]
    kwv = [
        ["*", ["+", ["*", PA[r][0], s1a], ["*", PA[r][1], c1a]], inv1t]
        for r in range(2)
    ]
    rho1_asts = (
        ["*", ["+", num(1), t], c2a],
        ["*", ["+", num(1), t], s2a],
    )
    rho2_asts = tuple(wv)

    section_asts12 = None
    nu_asts = {}
    if euler:
        re_a = ["*", ["+", ["*", a, c2a], ["*", b, s2a]], inv1t]
        im_a = ["*", ["-", ["*", b, c2a], ["*", a, s2a]], inv1t]
        ratio = num(F(n1, n2))
        section_asts12 = (
            a,
            b,
            ["+", ["*", re_a, wv[0]], ["*", ratio, im_a, kwv[0]]],
            ["+", ["*", re_a, wv[1]], ["*", ratio, im_a, kwv[1]]],
        )
        beta = ["smoothstep", ["*", num(2), ["-", num(F(3, 4)), t]]]
        one_m_beta = ["-", num(1), beta]
        nu_asts[(1, 2)] = (
            ["*", num(F(1, 8)), beta, c2a],
            ["*", num(F(1, 8)), beta, s2a],
            ["neg", ["*", num(F(1, 8)), one_m_beta, wv[0], inv1t]],
            ["neg", ["*", num(F(1, 8)), one_m_beta, wv[1], inv1t]],
        )
        # ν₁(z) = z·ĥ(|z|²)/8, a radial field with one transverse zero
        x, y = var(0), var(1)
        qa1 = ["+", ["*", x, x], ["*", y, y]]
        hh = [
            "/",
            num(1),
            ["sqrt", ["+", qa1, ["-", num(1), ["smoothstep", qa1]]]],
        ]
        nu_asts[(1,)] = (
            ["*", num(F(1, 8)), x, hh],
            ["*", num(F(1, 8)), y, hh],
        )
        # ν₂(w) = −w·k(Q(w))/8
        qa2 = _q_ast(n2, x, y)
        kk = [
            "sqrt",
            [
                "+",
                qa2,
                ["*", num(F(1, 4)), ["-", num(1), ["smoothstep", ["*", num(4), qa2]]]],
            ],
        ]
        nu_asts[(2,)] = (
            ["neg", ["*", num(F(1, 8)), x, kk]],
            ["neg", ["*", num(F(1, 8)), y, kk]],
        )

    # ----- declared perturbation samples (exact, orbit-extended) -----
    nu_samples: dict = {}
    e_samples_s: dict = {}
    if euler:
        # chart 1: ν₁ = (cosθ, sinθ)/8 on the rings, 0 at the center
        d1 = {0: (F(0), F(0))}
        for g in range(3):
            ring = pole1.ring(lambda a: _rat_vec((math.cos(a) / 8.0, math.sin(a) / 8.0)))
            d1.update(zip(pole1.ring_indices(g), ring))
        nu_samples[(1,)] = d1
        # chart 2: ν₂ = −w/(8(1+t)) on the rings, 0 at the center
        d2 = {0: (F(0), F(0))}
        for g in range(3):
            r = 1.0 / (1.0 + float(RING_T[g]))

            def nu2(a):
                w = pmul((r * math.cos(a), r * math.sin(a)))
                scale = -r / 8.0
                return _rat_vec((scale * w[0], scale * w[1]))

            d2.update(zip(pole2.ring_indices(g), pole2.ring(nu2)))
        nu_samples[(2,)] = d2
        # chart 12: outer rings are the pushforwards of the basic values
        # (coordinate-change compatibility holds exactly); the middle ring
        # mixes both blocks and is orbit-extended from the representatives
        d12 = {}
        for j in range(L):
            v = d1[rho1_idx[idx12(0, j)]]
            d12[idx12(0, j)] = (v[0], v[1], F(0), F(0))
            w = d2[rho2_idx[idx12(2, j)]]
            d12[idx12(2, j)] = (F(0), F(0), w[0], w[1])
        mid_reps = {}
        for j in range(N):
            uu = j / L
            cc = math.cos(2.0 * math.pi * n2 * uu)
            ss = math.sin(2.0 * math.pi * n2 * uu)
            w = pmul(
                (
                    math.cos(2.0 * math.pi * n1 * uu) / 1.5,
                    -math.sin(2.0 * math.pi * n1 * uu) / 1.5,
                )
            )
            mid_reps[j] = _rat_vec(
                (cc / 16.0, ss / 16.0, -w[0] / 24.0, -w[1] / 24.0)
            )
        for (p, q), mat in zip(deck, act12):
            shift = deck_shift[(p, q)]
            for j in range(N):
                d12[idx12(1, j + shift)] = _apply(mat, mid_reps[j])
        # obstruction samples carry the same ν value as the underlying
        # ring point (ν₁₂ is independent of the E₁ coordinates)
        for b in range(4):
            for (p, q) in deck:
                d12[eidx12(b, p, q)] = d12[idx12(1, deck_shift[(p, q)])]
        nu_samples[(1, 2)] = d12
        # declared section values at the obstruction samples: the graph
        # relation (e₁, M(x)e₁) at u = 0, t = 1/2, orbit-extended
        z0 = 1.5
        w0 = pmul((1.0 / z0, 0.0))
        kw0 = pmul((0.0, 1.0 / z0))
        for bb, e in enumerate(e_base):
            ex, ey = float(e[0]), float(e[1])
            me = (
                (ex / z0) * w0[0] + (n1 / n2) * (ey / z0) * kw0[0],
                (ex / z0) * w0[1] + (n1 / n2) * (ey / z0) * kw0[1],
            )
            base_val = (e[0], e[1]) + _rat_vec(me)
            for (p, q), mat in zip(deck, act12):
                e_samples_s[eidx12(bb, p, q)] = _apply(mat, base_val)

    # ----- obstruction grids -----
    if euler:
        grid1 = ((F(0), F(0)),) + tuple(
            v for e in ((F(1, 2), F(0)), (F(0), F(1, 2))) for v in (e, (-e[0], -e[1]))
        )
        orbit2 = []
        for s in range(n2):
            v = _apply(matrix_power(A2, s), (F(1, 2), F(0)))
            for w in (v, (-v[0], -v[1])):
                if w not in orbit2:
                    orbit2.append(w)
        if n2 == 1:
            orbit2 = [(F(1, 2), F(0)), (F(-1, 2), F(0)), (F(0), F(1, 2)), (F(0), F(-1, 2))]
        grid2 = ((F(0), F(0)),) + tuple(orbit2)
        grid12 = [zero4]
        for e in grid1[1:]:
            grid12.append((e[0], e[1], F(0), F(0)))
        for e in grid2[1:]:
            grid12.append((F(0), F(0), e[0], e[1]))
        for i in sorted(e_samples_s):
            if e_samples_s[i] not in grid12:
                grid12.append(e_samples_s[i])
        grid12 = tuple(grid12)
        act1 = [matrix_power(R1, s) for s in range(n1)]
        act2 = [matrix_power(A2, s) for s in range(n2)]
        m_basic, m12 = 2, 4
        zero_basic = (F(0), F(0))
        phi1 = [[1, 0], [0, 1], [0, 0], [0, 0]]
        phi2 = [[0, 0], [0, 0], [1, 0], [0, 1]]
        s12 = [zero4] * n12 + [e_samples_s[n12 + k] for k in range(4 * D)]
        tangent1 = (0, 1)
        tangent12 = (0, 1, 2, 3)
        tilde_tangent = (2, 3)
        sec_asts_basic = (num(0), num(0))
    else:
        grid1 = grid2 = grid12 = ((),)
        act1 = act2 = act12 = ()
        m_basic, m12 = 0, 0
        zero_basic = ()
        phi1 = phi2 = ()
        s12 = [()] * n12
        tangent1 = ()
        tangent12 = ()
        tilde_tangent = ()
        sec_asts_basic = None

    def pole_chart(pole, act, grid):
        domain = pole.domain()
        return ChartModel(
            index=pole.index,
            domain=domain,
            obstruction_dim=m_basic,
            obstruction_action=act,
            obstruction_points=grid,
            section_samples=(zero_basic,) * len(domain.points),
            footprint_map=pole.footprint(),
            section_asts=sec_asts_basic,
            tangent_dims=tangent1,
        )

    chart1 = pole_chart(pole1, act1, grid1)
    chart2 = pole_chart(pole2, act2, grid2)
    chart12 = ChartModel(
        index=(1, 2),
        domain=GroupQuotientModel(points=tuple(pts12), group=g12, perms=perms12),
        obstruction_dim=m12,
        obstruction_action=act12,
        obstruction_points=grid12,
        section_samples=tuple(s12),
        footprint_map=foot12,
        section_asts=section_asts12,
        tangent_dims=tangent12,
    )
    changes = {
        ((1,), (1, 2)): CoordinateChangeModel(
            source_index=(1,),
            target_index=(1, 2),
            tilde_indices=tilde12,
            rho_idx=rho1_idx,
            phi_hat=phi1,
            rho_asts=rho1_asts,
            tilde_tangent_dims=tilde_tangent,
        ),
        ((2,), (1, 2)): CoordinateChangeModel(
            source_index=(2,),
            target_index=(1, 2),
            tilde_indices=tilde12,
            rho_idx=rho2_idx,
            phi_hat=phi2,
            rho_asts=rho2_asts,
            tilde_tangent_dims=tilde_tangent,
        ),
    }
    x_labels = (
        ["c1", "c2"]
        + [_ring_label(g, k, N) for g in range(3) for k in range(N)]
    )
    cover = {
        1: frozenset(lab for lab in x_labels if lab != "c2"),
        2: frozenset(lab for lab in x_labels if lab != "c1"),
    }

    # ----- metric on intermediate classes: band × footprint circle -----
    def position12(i: int) -> tuple:
        if i < n12:
            return (RING_T[i // L], F(i % L % N, N))
        return (F(1, 2), F(0))

    positions = [
        position(orbit[0])
        for chart, position in (
            (chart1, pole1.position), (chart2, pole2.position), (chart12, position12)
        )
        for orbit in chart.domain.classes()
    ]
    metric = _band_circle_metric(positions)

    atlas = AtlasModel(
        x_labels=tuple(x_labels),
        cover=cover,
        charts={(1,): chart1, (2,): chart2, (1, 2): chart12},
        changes=changes,
        metric=metric,
    )

    # ----- reduction, precompact core, perturbation, norms -----
    v1 = frozenset([0, *pole1.ring_indices(0)])
    v2 = frozenset([0, *pole2.ring_indices(2)])
    v12 = frozenset(range(len(pts12)))
    x0, y0 = var(0), var(1)
    t0 = var(2) if euler else var(0)
    pred1 = ["<=", ["+", ["*", x0, x0], ["*", y0, y0]], num(2)]
    pred2 = ["<=", _q_ast(n2, x0, y0), num(F(2, 5))]
    pred12 = ["and", [">=", t0, num(0)], ["<=", t0, num(1)]]
    V = Reduction(
        sets={(1,): v1, (2,): v2, (1, 2): v12},
        preds={(1,): pred1, (2,): pred2, (1, 2): pred12},
    )
    built = BuiltExample(
        kind="euler" if euler else "atlas",
        atlas=atlas,
        V=V,
        parameters={"density": N, "orders": [n1, n2]},
    )
    if euler:
        a0, b0 = var(0), var(1)
        tiny = num(F(1, 10**12))
        pred_c12 = [
            "and",
            ["<=", ["+", ["*", a0, a0], ["*", b0, b0]], tiny],
            [">=", var(2), num(0)],
        ]
        built.C = Reduction(
            sets={(1,): v1, (2,): v2, (1, 2): frozenset(range(n12))},
            preds={(1,): pred1, (2,): pred2, (1, 2): pred_c12},
        )
        built.nu = Perturbation(asts=nu_asts, samples=nu_samples)
        t_map = {
            1: np.eye(2, dtype=np.int64),
            2: [[1, 0], [0, -1], [-1, 1]] if n2 == 3 else np.eye(2, dtype=np.int64),
        }
        built.norms = EquivariantNorms(maps=t_map)
        built.sigma = F(1, 4)
    return built


# ---------------------------------------------------------------------------
# single-chart examples
# ---------------------------------------------------------------------------


def _single_orbifold_chart(order: int) -> BuiltExample:
    """One free Z_n permutation chart with trivial obstruction."""
    if order < 1:
        raise ValueError("group order must be a positive integer")
    g = cyclic_group(order)
    pts = tuple((F(k),) for k in range(order))
    perms = [[(k + s) % order for k in range(order)] for s in range(order)]
    chart = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(points=pts, group=g, perms=perms),
        obstruction_dim=0,
        obstruction_action=(),
        obstruction_points=((),),
        section_samples=((),) * order,
        footprint_map={k: "p" for k in range(order)},
    )
    atlas = AtlasModel(
        x_labels=("p",),
        cover={1: frozenset({"p"})},
        charts={(1,): chart},
        changes={},
    )
    V = Reduction(sets={(1,): frozenset(range(order))})
    return BuiltExample(
        kind="orbifold", atlas=atlas, V=V, parameters={"order": order}
    )


def _football_fclass() -> BuiltExample:
    """A single chart M/Z₆ with one fixed point and orbits of size 2, 3, 6
    — the orbifold fundamental-class model of the football."""
    g = cyclic_group(6)
    layout = [("p1", 1, 0)] + [("p2", 2, k) for k in range(2)] + [
        ("p3", 3, k) for k in range(3)
    ] + [("p6", 6, k) for k in range(6)]
    pts = tuple((F(i),) for i in range(len(layout)))
    offsets = {}
    pos = 0
    for lab, size, _ in layout:
        if lab not in offsets:
            offsets[lab] = pos
        pos += 1
    sizes = {"p1": 1, "p2": 2, "p3": 3, "p6": 6}
    perms = [
        [offsets[lab] + (k + s) % size for lab, size, k in layout] for s in range(g.order)
    ]
    chart = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(points=pts, group=g, perms=perms),
        obstruction_dim=0,
        obstruction_action=(),
        obstruction_points=((),),
        section_samples=((),) * len(layout),
        footprint_map={i: lab for i, (lab, _, _) in enumerate(layout)},
    )
    atlas = AtlasModel(
        x_labels=("p1", "p2", "p3", "p6"),
        cover={1: frozenset({"p1", "p2", "p3", "p6"})},
        charts={(1,): chart},
        changes={},
    )
    V = Reduction(sets={(1,): frozenset(range(len(layout)))})
    return BuiltExample(kind="orbifold", atlas=atlas, V=V, parameters={})


# ---------------------------------------------------------------------------
# descriptor dispatch
# ---------------------------------------------------------------------------


def build_example(descriptor: ExampleDescriptor) -> BuiltExample:
    name = descriptor.name
    params = dict(descriptor.parameters)
    density = int(params.get("density", 12))
    if name == "sphere-euler":
        return _two_disk_model(1, 1, density, euler=True)
    if name == "football-euler":
        return _two_disk_model(2, 3, density, euler=True)
    if name == "football-atlas":
        return _two_disk_model(2, 3, density, euler=False)
    if name == "football-fclass":
        return _football_fclass()
    if name == "single-orbifold-chart":
        return _single_orbifold_chart(int(params.get("order", 5)))
    if name == "branched-interval":
        m = F(params.get("m", F(1, 2)))
        mp = F(params.get("mp", F(1, 2)))
        model = branched_interval_model(m, mp)
        return BuiltExample(
            kind="interval",
            interval=model,
            parameters={"m": rat_str(m), "mp": rat_str(mp)},
        )
    raise ValueError(f"unknown example {name!r}")


# ---------------------------------------------------------------------------
# the run pipeline
# ---------------------------------------------------------------------------


def _stage(stages: list, report: CheckReport) -> bool:
    stages.append(report.to_json())
    return report.ok


def _atlas_stages(atlas: AtlasModel):
    """The atlas validators in order, each report made when it is asked for:
    the model, every chart, every coordinate change, the strong cocycle,
    tameness and filtration and then, if all of those passed, the categories
    and the realizations."""
    checks = [functools.partial(check_atlas_model, atlas)]
    checks += [functools.partial(check_chart, atlas, I) for I in atlas.index_sets()]
    checks += [
        functools.partial(check_coordinate_change, atlas, I, J)
        for (I, J) in sorted(atlas.changes)
    ]
    checks.append(functools.partial(check_cocycle, atlas, "strong"))
    checks.append(functools.partial(check_tame_and_filtration, atlas))
    ok = True
    for check in checks:
        rep = check()
        ok = ok and rep.ok
        yield rep
    if ok:
        cats = build_categories(atlas)
        yield cats.report
        yield check_realizations(atlas, cats.domain_category)


def _snap_zero_to_sample(atlas: AtlasModel, z) -> int | None:
    chart = atlas.charts[z.chart_index]
    best, best_d = None, 1e-3
    for i, p in enumerate(chart.domain.points):
        if len(p) != len(z.coordinates):
            continue
        d = max(abs(float(a) - b) for a, b in zip(p, z.coordinates))
        if d < best_d:
            best, best_d = i, d
    return best


def _groupoid_stages(built: BuiltExample, zsets: dict, signs_by_object: dict,
                     stages: list, report: dict):
    """Completion → Hausdorff quotient → Λ → wnb axioms → total: the
    Hausdorff groupoid and the weights, or ``None`` at a failed stage."""
    atlas, V = built.atlas, built.V
    completed = complete_groupoid(atlas, V, zsets)
    if not _stage(stages, completed.report):
        return None
    hausdorff = hausdorff_complete(atlas, V, zsets, completed)
    if not _stage(stages, hausdorff.report):
        return None
    weights = weight_function(atlas, hausdorff)
    if not _stage(stages, weights.report):
        return None
    wnb = wnb_check(atlas, hausdorff, weights.weights)
    if not _stage(stages, wnb.report):
        return None
    signs = {}
    for p in hausdorff.classes:
        vals = {
            signs_by_object[o]
            for o in hausdorff.objects
            if hausdorff.class_of[o] == p and o in signs_by_object
        }
        signs[p] = vals.pop() if len(vals) == 1 else 1
    klass = fundamental_class_0d(hausdorff.classes, weights.weights, signs)
    report["classes"] = [
        {
            "representative": repr(p),
            "minimal_footprint": list(hausdorff.minimal_footprint[p]),
            "weight": rat_str(weights.weights[p]),
            "sign": signs[p],
        }
        for p in hausdorff.classes
    ]
    report["total"] = klass.total_string()
    # aggregate Λ over the footprint labels (the orbifold weights)
    foot_sum: dict = {}
    for p in hausdorff.classes:
        obj = min(o for o in hausdorff.objects if hausdorff.class_of[o] == p)
        I, zidx = obj
        lab = atlas.charts[I].footprint_map.get(zidx)
        if lab is not None:
            foot_sum[lab] = foot_sum.get(lab, F(0)) + signs[p] * weights.weights[p]
    report["footprint_weights"] = {
        lab: rat_str(w) for lab, w in sorted(foot_sum.items())
    }
    return hausdorff, weights.weights


def run_example(descriptor: ExampleDescriptor, seed_grid: int = 1):
    """Execute the full pipeline and return (report dict, exit code)."""
    report: dict = {
        "schema": RUN_SCHEMA,
        "example": descriptor.name,
        "parameters": {k: str(v) for k, v in sorted(descriptor.parameters.items())},
        "seed_grid": int(seed_grid),
    }
    stages: list = []
    report["stages"] = stages
    try:
        built = build_example(descriptor)
    except ValueError as ex:
        report["ok"] = False
        report["error"] = str(ex)
        return report, 3

    if built.kind == "interval":
        model = built.interval
        report["interval"] = {
            "classes": [
                {"representative": repr(p), "weight": rat_str(model.weights[p])}
                for p in model.classes
            ],
            "boundary_in": model.boundary_in.total_string(),
            "boundary_out": model.boundary_out.total_string(),
            "boundary_identity": rat_str(model.boundary_identity),
        }
        ok = model.boundary_identity == 0
        report["ok"] = ok
        return report, 0 if ok else 1

    atlas = built.atlas
    for rep in _atlas_stages(atlas):
        if not _stage(stages, rep):
            report["ok"] = False
            return report, 1
    ok = _stage(stages, check_reduction(atlas, built.V))
    pruned = build_pruned_category(atlas, built.V)
    ok = ok and _stage(stages, pruned.report)
    if not ok:
        report["ok"] = False
        return report, 1

    signs_by_object: dict = {}
    if built.kind == "euler":
        ok = _stage(stages, built.norms.validate(atlas))
        if not ok:
            report["ok"] = False
            return report, 1
        seeds = None
        if seed_grid >= 2:
            seeds = {
                I: [atlas.charts[I].domain.points[x] for x in sorted(built.V.sets[I])]
                for I in atlas.index_sets()
            }
        try:
            zres = find_zeros(atlas, built.V, built.nu, seeds=seeds)
        except PerturbationRejected as ex:
            report["ok"] = False
            report["rejection"] = str(ex)
            return report, 2
        zero_pairs = [(z.chart_index, z.coordinates) for z in zres.zeros]
        ok = _stage(
            stages,
            check_perturbation(atlas, built.V, built.nu, C=built.C, zeros=zero_pairs),
        )
        try:
            constants = compute_adaptedness_constants(
                atlas, built.V, built.C, built.norms
            )
            adapted = check_adapted(
                atlas,
                built.C,
                built.norms,
                constants,
                built.sigma,
                built.nu,
                zeros=zero_pairs,
            )
            report["constants"] = {
                "delta_V": rat_str(constants.delta_V),
                "delta": rat_str(constants.delta),
                "sigma": rat_str(constants.sigma)
                if constants.sigma is not None
                else None,
                "sigma_used": rat_str(built.sigma),
            }
            ok = _stage(stages, adapted) and ok
        except ValueError as ex:
            rep = CheckReport("adapted")
            rep.fail("constants_unavailable", error=str(ex))
            ok = _stage(stages, rep) and ok
        if not ok:
            report["ok"] = False
            return report, 1
        # snap the numeric zeros to their sample classes and close under Γ
        zsets = {I: set() for I in atlas.index_sets()}
        snapped = {}
        for z in zres.zeros:
            idx = _snap_zero_to_sample(atlas, z)
            if idx is None:
                rep = CheckReport("zero_sampling")
                rep.fail("zero_not_at_sample", chart=z.chart_index,
                         point=list(z.coordinates))
                _stage(stages, rep)
                report["ok"] = False
                return report, 1
            snapped[(z.chart_index, idx)] = z
            orbit = atlas.charts[z.chart_index].domain.orbit(idx)
            zsets[z.chart_index].update(orbit)
            for o in orbit:
                signs_by_object[(z.chart_index, o)] = z.sign
        zsets = {I: frozenset(s) for I, s in zsets.items()}
        groupoid = _groupoid_stages(built, zsets, signs_by_object, stages, report)
        if groupoid is None:
            report["ok"] = False
            return report, 1
        hausdorff, weights = groupoid
        for (I, idx), z in snapped.items():
            p = hausdorff.class_of[(I, idx)]
            z.minimal_footprint = tuple(hausdorff.minimal_footprint[p])
            z.weight = weights[p]
        report["zero_set"] = zero_set_report(
            zres.zeros, total=parse_rat(report["total"]), warnings=zres.warnings
        )
        report["ok"] = True
        return report, 0

    # E = 0 examples: the zero set is everything in the reduction
    zsets = {
        I: frozenset(
            set(built.V.sets[I]) & set(atlas.charts[I].zero_sample_indices())
        )
        for I in atlas.index_sets()
    }
    if _groupoid_stages(built, zsets, signs_by_object, stages, report) is None:
        report["ok"] = False
        return report, 1
    report["ok"] = True
    return report, 0


# ---------------------------------------------------------------------------
# serialization and file-level entry points
# ---------------------------------------------------------------------------


def example_to_json(built: BuiltExample) -> dict:
    """Atlas JSON with the reduction/perturbation/norm sections inlined."""
    if built.atlas is None:
        raise ValueError("example has no atlas serialization")
    data = atlas_to_json(built.atlas)
    if built.V is not None:
        data["reduction"] = reduction_to_json(built.V)
    if built.C is not None:
        data["precompact"] = reduction_to_json(built.C)
    if built.nu is not None:
        data["perturbation"] = perturbation_to_json(built.nu)
    if built.norms is not None:
        data["norms"] = norms_to_json(built.norms)
    return data


def emit_json(report: dict, path: str) -> None:
    """Deterministic serialization: sorted keys, rational strings."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def check_atlas_data(data: dict) -> dict:
    """Validation-only report for a parsed atlas JSON document."""
    atlas = atlas_from_json(data)
    stages: list = []
    report = {"schema": RUN_SCHEMA, "mode": "check", "stages": stages}
    ok = True
    for rep in _atlas_stages(atlas):
        ok = _stage(stages, rep) and ok
    red = reduction_from_json(data["reduction"]) if "reduction" in data else None
    if red is not None:
        ok = _stage(stages, check_reduction(atlas, red)) and ok
        ok = _stage(stages, build_pruned_category(atlas, red).report) and ok
    if "norms" in data:
        ok = _stage(stages, norms_from_json(data["norms"]).validate(atlas)) and ok
    if "perturbation" in data and red is not None:
        nu = perturbation_from_json(data["perturbation"])
        ok = _stage(stages, check_perturbation(atlas, red, nu)) and ok
    report["ok"] = ok
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _print_stage_summary(report: dict) -> None:
    for st in report.get("stages", ()):
        status = "ok" if st["ok"] else "FAIL"
        click.echo(f"  [{status}] {st['name']}")
        if not st["ok"]:
            for fl in st["failures"][:5]:
                click.echo(f"         {fl}")


@click.group()
def main() -> None:
    """Desk-scale computational toolkit for finite-isotropy chart atlases."""


@main.command("run")
@click.argument("example", type=click.Choice(EXAMPLE_NAMES))
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="write the run report to this file")
@click.option("--density", type=int, default=12, show_default=True,
              help="sample points per footprint circle (minimum 8)")
@click.option("--seed-grid", type=int, default=1, show_default=True,
              help="Newton seed level: 1 = orbit representatives, >=2 = all samples")
@click.option("--order", type=int, default=5, show_default=True,
              help="group order for single-orbifold-chart")
@click.option("--m", "m_str", default="1/2", show_default=True,
              help="first weight for branched-interval")
@click.option("--mp", "mp_str", default="1/2", show_default=True,
              help="second weight for branched-interval")
def run_cmd(example, json_path, density, seed_grid, order, m_str, mp_str):
    """Build an example and run the full pipeline."""
    import time

    params: dict = {}
    if example in {"sphere-euler", "football-euler", "football-atlas"}:
        params["density"] = density
    if example == "single-orbifold-chart":
        params["order"] = order
    if example == "branched-interval":
        try:
            params["m"] = parse_rat(m_str)
            params["mp"] = parse_rat(mp_str)
        except (ValueError, ZeroDivisionError) as ex:
            click.echo(f"parameter error: {ex}", err=True)
            sys.exit(3)
    start = time.monotonic()
    report, code = run_example(
        ExampleDescriptor(name=example, parameters=params), seed_grid=seed_grid
    )
    elapsed = time.monotonic() - start
    click.echo(f"example: {example}")
    _print_stage_summary(report)
    if "total" in report:
        click.echo(f"total: {report['total']}")
    if "rejection" in report:
        click.echo(f"rejected: {report['rejection']}")
    if "error" in report:
        click.echo(f"error: {report['error']}", err=True)
    click.echo(f"elapsed: {elapsed:.2f}s")
    if json_path:
        emit_json(report, json_path)
    sys.exit(code)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as ex:
        click.echo(f"cannot read {path}: {ex}", err=True)
        sys.exit(3)
    except json.JSONDecodeError as ex:
        click.echo(
            f"parse error in {path}: line {ex.lineno}, column {ex.colno}: {ex.msg}",
            err=True,
        )
        sys.exit(3)


@main.command("check")
@click.argument("atlas_file", type=click.Path(exists=True))
@click.option("--json", "json_path", type=click.Path(), default=None)
def check_cmd(atlas_file, json_path):
    """Validate an atlas JSON file (schema vfc-atlas/1)."""
    data = _load_json(atlas_file)
    try:
        report = check_atlas_data(data)
    except (ValueError, KeyError, TypeError) as ex:
        click.echo(f"schema error: {ex}", err=True)
        sys.exit(3)
    except ArithmeticError as ex:  # a document expression at a sample, e.g. 1/0
        click.echo(f"evaluation error: {ex}", err=True)
        sys.exit(3)
    _print_stage_summary(report)
    if json_path:
        emit_json(report, json_path)
    sys.exit(0 if report["ok"] else 1)


@main.command("zeros")
@click.argument("atlas_file", type=click.Path(exists=True))
@click.option("--perturbation", "pert_file", type=click.Path(exists=True),
              required=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def zeros_cmd(atlas_file, pert_file, json_path):
    """Find perturbed zeros of a serialized atlas."""
    data = _load_json(atlas_file)
    pdata = _load_json(pert_file)
    try:
        atlas = atlas_from_json(data)
        if "reduction" in data:
            red = reduction_from_json(data["reduction"])
        else:
            red = Reduction(
                sets={
                    I: frozenset(range(len(atlas.charts[I].domain.points)))
                    for I in atlas.index_sets()
                }
            )
        nu = perturbation_from_json(pdata)
    except (ValueError, KeyError, TypeError) as ex:
        click.echo(f"schema error: {ex}", err=True)
        sys.exit(3)
    try:
        result = find_zeros(atlas, red, nu)
    except PerturbationRejected as ex:
        click.echo(f"perturbation rejected: {ex}", err=True)
        sys.exit(2)
    except ValueError as ex:
        click.echo(f"cannot find zeros: {ex}", err=True)
        sys.exit(3)
    report = zero_set_report(result.zeros, warnings=result.warnings)
    click.echo(f"zeros found: {len(result.zeros)}")
    for z in result.zeros:
        click.echo(
            f"  chart {z.chart_index}: {tuple(round(c, 6) for c in z.coordinates)}"
            f" sign {z.sign:+d} residual {z.residual:.2e}"
        )
    for w in result.warnings:
        click.echo(f"  warning: {w}")
    if json_path:
        emit_json(report, json_path)
    sys.exit(0)


if __name__ == "__main__":
    main()
