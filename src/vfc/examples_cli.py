"""Built-in example models, the full run pipeline and its JSON reports.

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

:func:`run_example` returns the exit code of ``vfc run`` (see
:mod:`vfc.cli`): 0 all checks pass, 1 validation failure, 2 numerical
rejection (non-transverse perturbation), 3 parameter errors.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
from numpy.linalg import matrix_power

from .charts_atlas import (
    AtlasModel,
    CategoriesResult,
    ChartModel,
    CoordinateChangeModel,
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
from .expressions import eval_vector, num, var
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

#: band coordinates of the three annulus sample rings, in quarters
RING_Q = (1, 2, 3)
RING_T = tuple(F(q, 4) for q in RING_Q)


def _dyadic(*xs: float) -> list[int]:
    """The numerators over RAT_DEN of the dyadic approximations of ``xs``."""
    return [round(x * RAT_DEN) for x in xs]


def _zeros(n: int, m: int) -> RationalArray:
    """The (n, m) zero array."""
    return RationalArray(np.zeros((n, m), dtype=np.int64), 1)


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
        coords = [(x_labels.index(x), g) for (x, g) in pts]
        domain = GroupQuotientModel(points=RationalArray(np.array(coords), 1), group=group,
                                    perms=perms)
        charts[I] = ChartModel(
            index=I,
            domain=domain,
            obstruction_dim=0,
            obstruction_action=(),
            obstruction_points=((),),
            section_samples=_zeros(len(pts), 0),
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


#: the integer generator of each cyclic group that acts exactly on a
#: rational plane: by the crystallographic restriction its order is 1, 2,
#: 3, 4 or 6, and it turns the plane by 2π/n in the frame of its
#: invariant form
GENERATORS = {
    1: ((1, 0), (0, 1)),
    2: ((-1, 0), (0, -1)),
    3: ((0, -1), (1, -1)),
    4: ((0, -1), (1, 0)),
    6: ((1, -1), (1, 0)),
}

#: ±e₁ and ±e₂ as rows
_AXES = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])


def _ring_label(g: int, k: int, N: int) -> str:
    return f"ring{g}:{k % N}"


def _combination(terms) -> list:
    """The AST of Σ c·t over pairs (c, t), c an exact rational or an AST:
    a term with c = 0 is left out, c = ±1 is not written, and each term
    after the first is added or subtracted."""
    out = None
    for c, t in terms:
        if isinstance(c, list):
            c, t = 1, ["*", c, t]
        if c:
            t = t if abs(c) == 1 else ["*", num(abs(c)), t]
            out = (t if c > 0 else ["neg", t]) if out is None else ["+" if c > 0 else "-", out, t]
    return out


@dataclass
class _Pole:
    """One disk chart of the two-disk model, with Γ = Z_n acting on the
    disk and on E = R² by the powers γ^s of the generator of order n: the
    centre (sample 0) and three rings of n·N samples.  Ring g lies at band
    coordinate ``RING_T[g]`` with radius ``radius(RING_T[g])`` in the frame
    P; its sample j + s·N is γ^s applied to sample j, and its sample j lies
    over the footprint sample ``orient``·j of the ring.  The centre sits at
    band coordinate ``centre_band`` (in quarters) over the footprint sample
    ``centre``.

    The rest is derived from the generator: the invariant form
    Q = Σ γᵀγ, reduced by its gcd; the frame P = ((1, −q₁₂/√d),
    (0, q₁₁/√d)), d = det Q, with PᵀQP = q₁₁·I, in which γ turns by 2π/n;
    the obstruction grid, the origin and the distinct points ±γe₁, ±γe₂;
    and the rows of the Γ-invariant norm max_k |r_k·e|, the distinct rows
    e_k·γ up to sign."""

    index: tuple
    n: int
    radius: Callable[[float], float]  # band coordinate -> radius
    orient: int
    centre: str
    centre_band: int
    N: int

    def __post_init__(self):
        self.group = cyclic_group(self.n)
        gen = np.array(GENERATORS[self.n], dtype=np.int64)
        self.powers = np.array([matrix_power(gen, s) for s in range(self.n)])
        q = np.einsum("sji,sjk->ik", self.powers, self.powers)
        self.Q = q // np.gcd.reduce(q.ravel())
        (q11, q12), (_, q22) = self.Q.tolist()
        det = q11 * q22 - q12 * q12
        root = math.isqrt(det)  # an entry c/√det is exact where det is a square
        self.frame = ((1.0, -q12 / math.sqrt(det)), (0.0, q11 / math.sqrt(det)))
        self.frame_asts = tuple(
            (F(a), F(c, root) if root * root == det else ["/", num(c), ["sqrt", num(det)]])
            for a, c in ((1, -q12), (0, q11))
        )
        points = np.einsum("sij,bj->sbi", self.powers, _AXES).reshape(-1, 2)
        self.grid = np.array([(0, 0), *dict.fromkeys(map(tuple, points.tolist()))])
        rows: dict = {}
        for r in map(tuple, self.powers.transpose(1, 0, 2).reshape(-1, 2).tolist()):
            rows.setdefault(max(r, tuple(-c for c in r)), r)
        self.norm_rows = np.array(list(rows.values()))

    def framed(self, v) -> tuple[float, float]:
        """P·v."""
        return tuple(p[0] * v[0] + p[1] * v[1] for p in self.frame)

    def framed_asts(self, v) -> list:
        """P·v for a vector of ASTs."""
        return [_combination(zip(p, v)) for p in self.frame_asts]

    def form_ast(self, x, y) -> list:
        """Q(x, y)/q₁₁, the squared length of P⁻¹(x, y)."""
        (q11, q12), (_, q22) = self.Q.tolist()
        return _combination([(1, ["*", x, x]), (F(2 * q12, q11), ["*", x, y]),
                             (F(q22, q11), ["*", y, y])])

    @property
    def nN(self) -> int:
        return self.n * self.N

    def idx(self, g, j):
        return 1 + g * self.nN + j % self.nN

    def ring_indices(self, g: int) -> range:
        return range(self.idx(g, 0), self.idx(g, 0) + self.nN)

    def ring(self, rep) -> np.ndarray:
        """The numerators over RAT_DEN of one ring: ``rep(θ_j)`` at the
        representative angles θ_j = 2πj/(nN), j < N, extended by γ^s to
        the samples j + s·N."""
        reps = np.array([rep(2.0 * math.pi * j / self.nN) for j in range(self.N)])
        return np.concatenate(reps @ self.powers.mT)

    def domain(self) -> GroupQuotientModel:
        rings = [
            self.ring(lambda a: _dyadic(*self.framed((r * math.cos(a), r * math.sin(a)))))
            for r in (self.radius(q / 4) for q in RING_Q)
        ]
        # element s of the cyclic group is γ^s (affine rows [γ^s | 0]), and
        # it moves sample j of each ring to j + s·N
        g, j = np.divmod(np.arange(3 * self.nN), self.nN)
        perms = [np.r_[0, self.idx(g, j + s * self.N)] for s in range(self.n)]
        affine = np.pad(self.powers, ((0, 0), (0, 0), (0, 1)))
        points = np.concatenate([np.zeros((1, 2), np.int64), *rings])
        return GroupQuotientModel(points=RationalArray.reduced(points, RAT_DEN), group=self.group,
                                  perms=perms, affine=RationalArray(affine, 1))

    def footprint(self) -> dict:
        g, j = np.divmod(np.arange(3 * self.nN), self.nN)
        labels = map(_ring_label, g.tolist(), (self.orient * j).tolist(), [self.N] * len(g))
        return {0: self.centre, **dict(enumerate(labels, start=1))}

    def position(self, i: int) -> tuple:
        """(band coordinate in quarters, footprint circle sample or None) of
        sample i."""
        if i == 0:
            return (self.centre_band, None)
        g, j = (i - 1) // self.nN, (i - 1) % self.nN
        return (RING_Q[g], (self.orient * j) % self.N)


def _band_circle_metric(positions: list, N: int) -> RationalArray:
    """The sup metric on (band, circle) positions: the larger of |Δband|
    and the distance on the unit circle, which is 0 against a centre
    (circle sample ``None``).  Positions come in intermediate-key order, as
    (band coordinate in quarters, circle sample k of N).  The distances are
    numerators over 4N between the distinct positions, then reduced and
    spread to the keys."""
    codes = [b * (N + 1) + (0 if k is None else k + 1) for b, k in positions]
    distinct, key = np.unique(codes, return_inverse=True)
    band, k = np.divmod(distinct, N + 1)  # k = 0 at a centre
    steps = np.abs(k[:, None] - k[None, :])
    dt = 4 * np.minimum(steps, N - steps)
    dt[(k == 0)[:, None] | (k == 0)[None, :]] = 0
    small = RationalArray.reduced(np.maximum(N * np.abs(band[:, None] - band[None, :]), dt), 4 * N)
    return RationalArray(small.num[np.ix_(key, key)], small.den)


def _two_disk_model(n1: int, n2: int, N: int, euler: bool) -> BuiltExample:
    """The two-chart surface atlas with Γ₁ = Z_{n1}, Γ₂ = Z_{n2}.

    ``euler`` selects the obstruction-bundle model (E_i = R², section
    graphs and perturbations); otherwise the bare orbifold atlas (E = 0).
    Sample data are int numerators, rotated by int matrix products: the
    points and ν over RAT_DEN, chart 12's points over 4L, the grids over
    2 or RAT_DEN; each array is reduced to lowest terms once.
    """
    if N < 8:
        raise ValueError("sample density must be at least 8 points per circle")
    if n1 not in GENERATORS or n2 not in GENERATORS or math.gcd(n1, n2) != 1:
        raise ValueError(f"isotropy orders ({n1}, {n2}): each must be one of 1, 2, 3, 4, 6, "
                         "and the two coprime")
    # ----- the poles: the z-disk (chart 1) and the w-disk (chart 2) -----
    pole1 = _Pole(index=(1,), n=n1, radius=lambda t: 1.0 + t, orient=1, centre="c1",
                  centre_band=0, N=N)
    pole2 = _Pole(index=(2,), n=n2, radius=lambda t: 1.0 / (1.0 + t), orient=-1, centre="c2",
                  centre_band=4, N=N)
    g12 = product_group([pole1.group, pole2.group])
    L = n1 * n2 * N  # cover circle
    D = n1 * n2  # deck group order
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

    # ----- chart 12: rings of the annulus cover -----
    n12 = 3 * L
    # deck element k = p·n2 + q of Γ₁ × Γ₂ is (g^p, g^q); it shifts the
    # cover circle by shift[k] and acts on E₁₂ = E₁ ⊕ E₂ by act12[k]
    deck_p, deck_q = np.divmod(np.arange(D), n2)
    shift = (deck_p * sigma1 + deck_q * sigma2) % L
    zero2 = np.zeros((2, 2), dtype=np.int64)
    act12 = np.array([np.block([[pole1.powers[p], zero2], [zero2, pole2.powers[q]]])
                      for p, q in zip(deck_p.tolist(), deck_q.tolist())])

    # sample g·L + j of the rings sits at band RING_T[g], circle j/L: over 4L
    ring_g, ring_j = np.divmod(np.arange(n12), L)
    rings12 = np.c_[np.array(RING_Q)[ring_g] * L, 4 * ring_j]
    e_b, e_k = np.divmod(np.arange(4 * D if euler else 0), D)
    # deck element k moves ring sample j to j + shift[k] and the obstruction
    # sample of (b, k0) to that of (b, k0·k)
    perms12 = [
        np.r_[ring_g * L + (ring_j + shift[k]) % L,
              n12 + e_b * D + (deck_p[e_k] + deck_p[k]) % n1 * n2 + (deck_q[e_k] + deck_q[k]) % n2]
        for k in range(D)
    ]
    pts12 = rings12
    if euler:
        # the obstruction sample n12 + b·D + k carries e = γ₁^p·_AXES[b], in halves
        e_pts = np.einsum("kij,bj->bki", pole1.powers[deck_p], _AXES).reshape(-1, 2)
        pts12 = np.r_[np.c_[np.zeros((n12, 2), np.int64), rings12],
                      np.c_[e_pts * 2 * L, np.full(4 * D, 2 * L), 4 * shift[e_k]]]
    foot12 = dict(enumerate(map(_ring_label, ring_g.tolist(), ring_j.tolist(), [N] * n12)))

    # covering maps to the basic charts
    rho1, rho2 = (pole.idx(ring_g, pole.orient * ring_j) for pole in (pole1, pole2))
    rho1_idx, rho2_idx = dict(enumerate(rho1.tolist())), dict(enumerate(rho2.tolist()))
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
    # z = (1+t)·P₁·(c2, s2), w = P₂·(c1, −s1)/(1+t) and K·w = P₂·(s1, c1)/(1+t)
    zv, kzv = pole1.framed_asts((c2a, s2a)), pole1.framed_asts((["neg", s2a], c2a))
    wv = [["*", r, inv1t] for r in pole2.framed_asts((c1a, ["neg", s1a]))]
    kwv = [["*", r, inv1t] for r in pole2.framed_asts((s1a, c1a))]
    rho1_asts = tuple(["*", ["+", num(1), t], r] for r in zv)
    rho2_asts = tuple(wv)

    section_asts12 = None
    nu_asts = {}
    if euler:
        # e₁/z as a complex number: the coordinates of P₁⁻¹e₁ along z/|z|
        # and along its quarter turn, over |z| = 1+t; g = (Q₁/q₁₁)·e₁, so
        # that g·P₁v = P₁⁻¹e₁·v (PᵀQ/q₁₁ = P⁻¹)
        q11 = int(pole1.Q[0, 0])
        g = [_combination(zip((F(c, q11), F(d, q11)), (a, b))) for c, d in pole1.Q.tolist()]
        re_a, im_a = (["*", _combination(zip(g, v)), inv1t] for v in (zv, kzv))
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
            ["*", num(F(1, 8)), beta, zv[0]],
            ["*", num(F(1, 8)), beta, zv[1]],
            ["neg", ["*", num(F(1, 8)), one_m_beta, wv[0], inv1t]],
            ["neg", ["*", num(F(1, 8)), one_m_beta, wv[1], inv1t]],
        )
        # ν₁(z) = z·ĥ(Q₁(z))/8, a radial field with one transverse zero
        x, y = var(0), var(1)
        qa1 = pole1.form_ast(x, y)
        hh = [
            "/",
            num(1),
            ["sqrt", ["+", qa1, ["-", num(1), ["smoothstep", qa1]]]],
        ]
        nu_asts[(1,)] = (
            ["*", num(F(1, 8)), x, hh],
            ["*", num(F(1, 8)), y, hh],
        )
        # ν₂(w) = −w·k(Q₂(w))/8
        qa2 = pole2.form_ast(x, y)
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

    # ----- declared perturbation samples and section values (exact, orbit-extended) -----
    nu_samples: dict = {}
    if euler:
        # chart 1: ν₁ = P₁·(cosθ, sinθ)/8 on the rings, 0 at the center
        ring = pole1.ring(lambda a: _dyadic(*pole1.framed((math.cos(a) / 8.0,
                                                           math.sin(a) / 8.0))))
        nu1 = np.r_[np.zeros((1, 2), np.int64), ring, ring, ring]
        # chart 2: ν₂ = −w/(8(1+t)) on the rings, 0 at the center
        nu2 = [np.zeros((1, 2), np.int64)]
        for q in RING_Q:
            r = 1.0 / (1.0 + q / 4)

            def nu2_at(a):
                w = pole2.framed((r * math.cos(a), r * math.sin(a)))
                scale = -r / 8.0
                return _dyadic(scale * w[0], scale * w[1])

            nu2.append(pole2.ring(nu2_at))
        nu2 = np.concatenate(nu2)
        # chart 12: outer rings are the pushforwards of the basic values
        # (coordinate-change compatibility holds exactly); the middle ring
        # mixes both blocks and is orbit-extended from the representatives
        nu12 = np.zeros((n12 + 4 * D, 4), np.int64)
        nu12[:L, :2] = nu1[rho1[:L]]
        nu12[2 * L : n12, 2:] = nu2[rho2[2 * L :]]
        mid_reps = []
        for j in range(N):
            uu = j / L
            z = pole1.framed((math.cos(2.0 * math.pi * n2 * uu),
                              math.sin(2.0 * math.pi * n2 * uu)))
            w = pole2.framed((math.cos(2.0 * math.pi * n1 * uu) / 1.5,
                              -math.sin(2.0 * math.pi * n1 * uu) / 1.5))
            mid_reps.append(_dyadic(z[0] / 16.0, z[1] / 16.0, -w[0] / 24.0, -w[1] / 24.0))
        for k in range(D):
            nu12[L + (np.arange(N) + shift[k]) % L] = np.array(mid_reps) @ act12[k].T
        # obstruction samples carry the same ν value as the underlying
        # ring point (ν₁₂ is independent of the E₁ coordinates)
        nu12[n12:] = nu12[L + shift[e_k]]
        for I, values in (((1,), nu1), ((2,), nu2), ((1, 2), nu12)):
            nu_samples[I] = (np.arange(len(values)), RationalArray.reduced(values, RAT_DEN))
        # declared section values at the obstruction samples: the graph
        # relation s₁₂ = (e₁, M(x)e₁) at e₁ = _AXES[b]/2, t = 1/2, u = 0,
        # orbit-extended
        base = [_dyadic(*map(float, eval_vector(section_asts12, [F(e1, 2), F(e2, 2), F(1, 2), 0])))
                for e1, e2 in _AXES.tolist()]
        # obstruction sample n12 + b·D + k: act12[k]·base[b]
        s_e = np.einsum("kij,bj->bki", act12, np.array(base)).reshape(-1, 4)

    # ----- obstruction grids (in halves; chart 12's over RAT_DEN) -----
    if euler:
        half = RAT_DEN // 2
        rows12 = np.r_[np.zeros((1, 4), np.int64), np.pad(pole1.grid[1:] * half, ((0, 0), (0, 2))),
                       np.pad(pole2.grid[1:] * half, ((0, 0), (2, 0))), s_e]
        grid12 = RationalArray.reduced(np.array(list(dict.fromkeys(map(tuple, rows12.tolist())))),
                                       RAT_DEN)
        phi1 = [[1, 0], [0, 1], [0, 0], [0, 0]]
        phi2 = [[0, 0], [0, 0], [1, 0], [0, 1]]
        s12 = RationalArray.reduced(np.r_[np.zeros((n12, 4), np.int64), s_e], RAT_DEN)
        sec_asts_basic = (num(0), num(0))
    else:
        grid12, phi1, phi2 = _zeros(1, 0), (), ()
        s12, sec_asts_basic = _zeros(n12, 0), None
    m_basic, m12 = (2, 4) if euler else (0, 0)
    # index 0: as many tangent coordinates as obstruction ones; Ũ₁₂ is
    # tangent to the band and the circle
    tangent1, tangent12 = tuple(range(m_basic)), tuple(range(m12))
    tilde_tangent = (2, 3) if euler else ()

    def pole_chart(pole):
        domain = pole.domain()
        return ChartModel(
            index=pole.index,
            domain=domain,
            obstruction_dim=m_basic,
            obstruction_action=RationalArray(pole.powers, 1) if euler else (),
            obstruction_points=RationalArray.reduced(pole.grid, 2) if euler else _zeros(1, 0),
            section_samples=_zeros(len(domain.points), m_basic),
            footprint_map=pole.footprint(),
            section_asts=sec_asts_basic,
            tangent_dims=tangent1,
        )

    chart1, chart2 = pole_chart(pole1), pole_chart(pole2)
    chart12 = ChartModel(
        index=(1, 2),
        domain=GroupQuotientModel(points=RationalArray.reduced(pts12, 4 * L), group=g12,
                                  perms=perms12),
        obstruction_dim=m12,
        obstruction_action=RationalArray(act12, 1) if euler else (),
        obstruction_points=grid12,
        section_samples=s12,
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
        return (RING_Q[i // L], i % L % N) if i < n12 else (2, 0)

    positions = [
        position(orbit[0])
        for chart, position in (
            (chart1, pole1.position), (chart2, pole2.position), (chart12, position12)
        )
        for orbit in chart.domain.classes()
    ]
    metric = _band_circle_metric(positions, N)

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
    V = Reduction(sets={(1,): v1, (2,): v2, (1, 2): v12})
    built = BuiltExample(
        kind="euler" if euler else "atlas",
        atlas=atlas,
        V=V,
        parameters={"density": N, "orders": [n1, n2]},
    )
    if euler:
        built.C = Reduction(sets={(1,): v1, (2,): v2, (1, 2): frozenset(range(n12))})
        built.nu = Perturbation(asts=nu_asts, samples=nu_samples)
        built.norms = EquivariantNorms(maps={i: RationalArray(pole.norm_rows, 1)
                                             for i, pole in ((1, pole1), (2, pole2))})
        built.sigma = F(1, 4)
    return built


# ---------------------------------------------------------------------------
# single-chart examples
# ---------------------------------------------------------------------------


def _orbit_chart(order: int, orbits: dict, parameters: dict) -> BuiltExample:
    """One chart with Γ = Z_order and E = 0 whose samples are the orbits of
    ``orbits`` ({footprint label: orbit size}) end to end: s ∈ Z_order
    turns each orbit by s steps."""
    sizes = list(orbits.values())
    starts = [0, *itertools.accumulate(sizes)]
    perms = [[a + (k + s) % size for a, size in zip(starts, sizes) for k in range(size)]
             for s in range(order)]
    n = starts[-1]
    chart = ChartModel(
        index=(1,),
        domain=GroupQuotientModel(points=RationalArray(np.arange(n)[:, None], 1),
                                  group=cyclic_group(order), perms=perms),
        obstruction_dim=0,
        obstruction_action=(),
        obstruction_points=((),),
        section_samples=_zeros(n, 0),
        footprint_map=dict(enumerate(lab for lab, size in orbits.items() for _ in range(size))),
    )
    atlas = AtlasModel(
        x_labels=tuple(orbits),
        cover={1: frozenset(orbits)},
        charts={(1,): chart},
        changes={},
    )
    V = Reduction(sets={(1,): frozenset(range(n))})
    return BuiltExample(kind="orbifold", atlas=atlas, V=V, parameters=parameters)


def _single_orbifold_chart(order: int) -> BuiltExample:
    """One free Z_n permutation chart with trivial obstruction."""
    if order < 1:
        raise ValueError("group order must be a positive integer")
    return _orbit_chart(order, {"p": order}, {"order": order})


def _football_fclass() -> BuiltExample:
    """A single chart M/Z₆ with one fixed point and orbits of size 2, 3, 6
    — the orbifold fundamental-class model of the football."""
    return _orbit_chart(6, {"p1": 1, "p2": 2, "p3": 3, "p6": 6}, {})


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
    """The atlas validators in order, each report made when it is asked for
    and yielded with the categories built so far (``None`` before them):
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
        yield rep, None
    if ok:
        cats = build_categories(atlas)
        yield cats.report, cats
        yield check_realizations(atlas, cats.domain_category), cats


def _groupoid_stages(built: BuiltExample, categories: CategoriesResult, zsets: dict,
                     signs_by_object: dict, stages: list, report: dict):
    """Completion in B_K (``categories``) → Hausdorff quotient → Λ → wnb
    axioms → total: the Hausdorff groupoid and the weights, or ``None`` at
    a failed stage.  ``signs_by_object`` holds the set of zero signs of
    each object; a class whose objects carry two signs fails a
    ``zero_signs`` stage, appended only then."""
    atlas = built.atlas
    completed = complete_groupoid(atlas, built.V, zsets, categories)
    if not _stage(stages, completed.report):
        return None
    hausdorff = hausdorff_complete(completed)
    if not _stage(stages, hausdorff.report):
        return None
    weights = weight_function(atlas, hausdorff)
    if not _stage(stages, weights.report):
        return None
    wnb = wnb_check(atlas, hausdorff, weights.weights)
    if not _stage(stages, wnb.report):
        return None
    vals: dict = {p: set() for p in hausdorff.classes}
    for o in hausdorff.objects:
        vals[hausdorff.class_of[o]].update(signs_by_object.get(o, ()))
    mixed = CheckReport("zero_signs")
    for p, v in vals.items():
        if len(v) > 1:
            mixed.fail("zero_class_signs_differ", representative=repr(p), signs=sorted(v))
    if not mixed.ok:
        _stage(stages, mixed)
        return None
    signs = {p: v.pop() if v else 1 for p, v in vals.items()}
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
        I, zidx = p  # a class is named by its smallest object
        lab = atlas.charts[I].footprint_map.get(zidx)
        if lab is not None:
            foot_sum[lab] = foot_sum.get(lab, F(0)) + signs[p] * weights.weights[p]
    report["footprint_weights"] = {lab: rat_str(w) for lab, w in sorted(foot_sum.items())}
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

    def end(code: int, **fields) -> tuple[dict, int]:
        report.update(fields, ok=code == 0)
        return report, code

    try:
        built = build_example(descriptor)
    except ValueError as ex:
        return end(3, error=str(ex))

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
        return end(0 if model.boundary_identity == 0 else 1)

    atlas = built.atlas
    for rep, categories in _atlas_stages(atlas):
        if not _stage(stages, rep):
            return end(1)
    ok = _stage(stages, check_reduction(atlas, built.V))
    ok = ok and _stage(stages, build_pruned_category(atlas, built.V))
    if not ok:
        return end(1)

    signs_by_object: dict = {}
    if built.kind == "euler":
        if not _stage(stages, built.norms.validate(atlas)):
            return end(1)
        seeds = None
        if seed_grid >= 2:
            seeds = {I: atlas.charts[I].domain.coordinates[sorted(built.V.sets[I])]
                     for I in atlas.index_sets()}
        try:
            zres = find_zeros(atlas, built.V, built.nu, seeds=seeds)
        except PerturbationRejected as ex:
            return end(2, rejection=str(ex))
        zero_pairs = [(z.chart_index, z.coordinates) for z in zres.zeros]
        ok = _stage(stages, check_perturbation(atlas, built.V, built.nu, C=built.C,
                                               zeros=zero_pairs))
        try:
            constants = compute_adaptedness_constants(atlas, built.V, built.C, built.norms)
            adapted = check_adapted(atlas, built.C, built.norms, constants, built.sigma,
                                    built.nu, zeros=zero_pairs)
            report["constants"] = {
                "delta_V": rat_str(constants.delta_V),
                "delta": rat_str(constants.delta),
                "sigma": rat_str(constants.sigma) if constants.sigma is not None else None,
                "sigma_used": rat_str(built.sigma),
            }
            ok = _stage(stages, adapted) and ok
        except ValueError as ex:
            rep = CheckReport("adapted")
            rep.fail("constants_unavailable", error=str(ex))
            ok = _stage(stages, rep) and ok
        if not ok:
            return end(1)
        # snap the numeric zeros to their sample classes and close under Γ
        zsets = {I: set() for I in atlas.index_sets()}
        snapped = {}
        for z in zres.zeros:
            domain = atlas.charts[z.chart_index].domain
            idx = domain.nearest(z.coordinates)
            if np.abs(domain.coordinates[idx] - z.coordinates).max() >= 1e-3:
                rep = CheckReport("zero_sampling")
                rep.fail("zero_not_at_sample", chart=z.chart_index,
                         point=list(z.coordinates))
                _stage(stages, rep)
                return end(1)
            snapped[(z.chart_index, idx)] = z
            orbit = domain.orbit(idx)
            zsets[z.chart_index].update(orbit)
            for o in orbit:
                signs_by_object.setdefault((z.chart_index, o), set()).add(z.sign)
        zsets = {I: frozenset(s) for I, s in zsets.items()}
        groupoid = _groupoid_stages(built, categories, zsets, signs_by_object, stages, report)
        if groupoid is None:
            return end(1)
        hausdorff, weights = groupoid
        for (I, idx), z in snapped.items():
            p = hausdorff.class_of[(I, idx)]
            z.minimal_footprint = tuple(hausdorff.minimal_footprint[p])
            z.weight = weights[p]
        report["zero_set"] = zero_set_report(
            zres.zeros, total=parse_rat(report["total"]), warnings=zres.warnings
        )
        return end(0)

    # E = 0 examples: the zero set is everything in the reduction
    zsets = {I: frozenset(set(built.V.sets[I]) & set(atlas.charts[I].zero_sample_indices()))
             for I in atlas.index_sets()}
    if _groupoid_stages(built, categories, zsets, signs_by_object, stages, report) is None:
        return end(1)
    return end(0)


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
    red = reduction_from_json(data["reduction"], atlas) if "reduction" in data else None
    norms = norms_from_json(data["norms"]) if "norms" in data else None
    nu = (perturbation_from_json(data["perturbation"], atlas)
          if "perturbation" in data and red is not None else None)
    stages: list = []
    report = {"schema": RUN_SCHEMA, "mode": "check", "stages": stages}
    ok = True
    for rep, _ in _atlas_stages(atlas):
        ok = _stage(stages, rep) and ok
    if red is not None:
        ok = _stage(stages, check_reduction(atlas, red)) and ok
        ok = _stage(stages, build_pruned_category(atlas, red)) and ok
    if norms is not None:
        ok = _stage(stages, norms.validate(atlas)) and ok
    if nu is not None:
        ok = _stage(stages, check_perturbation(atlas, red, nu)) and ok
    report["ok"] = ok
    return report
