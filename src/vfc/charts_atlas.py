"""Chart/atlas data model, validators, categories and realizations.

Manifold-level data is modeled by finite group-stable sample clouds with
exact rational coordinates plus optional membership predicates and smooth
expression ASTs.  All set-theoretic conditions (coverings, cocycle
conditions, tameness, category axioms) are verified extensionally on the
sample model; smooth data enters only through derivative evaluations.

Conventions
-----------
* Chart indices are sorted tuples of basic-chart labels (ints).
* The isotropy group of a multi-chart index ``I`` is the product of the
  basic groups, with element labels joined by ``"|"`` in sorted index
  order; canonical projections/inclusions act by component surgery.
* Composition of morphisms is diagrammatic: ``compose(f, g)`` is defined
  when ``target(f) == source(g)`` and represents "f then g".
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exterior_engine import RationalMatrix, parse_rat, rat_str
from .expressions import eval_pred, eval_vector, value_and_jacobian

__all__ = [
    "TAU_RANK",
    "LOOSE_TOL",
    "CheckReport",
    "FiniteGroup",
    "trivial_group",
    "cyclic_group",
    "product_group",
    "split_label",
    "join_label",
    "project_label",
    "kernel_labels",
    "GroupQuotientModel",
    "ChartModel",
    "CoordinateChangeModel",
    "AtlasModel",
    "FiniteCategory",
    "check_group_quotient",
    "check_chart",
    "check_group_covering",
    "restrict_chart",
    "check_coordinate_change",
    "compose_coordinate_changes",
    "CompositeChange",
    "check_cocycle",
    "check_tame_and_filtration",
    "check_atlas_model",
    "build_categories",
    "CategoriesResult",
    "check_category",
    "composition_table",
    "b_composite",
    "UnionFind",
    "realize",
    "RealizeResult",
    "check_realizations",
    "atlas_to_json",
    "atlas_from_json",
]

TAU_RANK = 1e-9
#: loose tolerance for consistency between smooth ASTs and the rational
#: sample cloud (samples are deterministic dyadic approximations)
LOOSE_TOL = 1e-4

Vec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of a validator: named clauses with failure witnesses."""

    name: str
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, clause: str, **witness) -> None:
        entry = {"clause": clause}
        entry.update(witness)
        self.failures.append(entry)

    def merge(self, other: "CheckReport") -> None:
        for f in other.failures:
            entry = dict(f)
            entry.setdefault("from", other.name)
            self.failures.append(entry)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "failures": [_jsonable(f) for f in self.failures],
            "details": _jsonable(self.details),
        }


def _jsonable(value):
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    return value


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by an explicit multiplication table."""

    elements: tuple[str, ...]
    table: dict  # (str, str) -> str
    identity: str

    def mul(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def inv(self, a: str) -> str:
        for b in self.elements:
            if self.table[(a, b)] == self.identity:
                return b
        raise ValueError(f"no inverse for {a!r}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def validate(self) -> CheckReport:
        rep = CheckReport("finite_group")
        els = self.elements
        if self.identity not in els:
            rep.fail("identity_missing", identity=self.identity)
            return rep
        for a in els:
            if self.table.get((self.identity, a)) != a or self.table.get((a, self.identity)) != a:
                rep.fail("identity_law", element=a)
        for a in els:
            if not any(self.table.get((a, b)) == self.identity for b in els):
                rep.fail("no_inverse", element=a)
        for a in els:
            for b in els:
                if self.table.get((a, b)) not in els:
                    rep.fail("not_closed", pair=(a, b))
        if rep.ok:
            for a in els:
                for b in els:
                    for c in els:
                        if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                            rep.fail("associativity", triple=(a, b, c))
                            return rep
        return rep


def trivial_group() -> FiniteGroup:
    return FiniteGroup(("e",), {("e", "e"): "e"}, "e")


def cyclic_group(n: int, prefix: str = "g") -> FiniteGroup:
    """Z_n with elements ``e, g1, ..., g{n-1}``."""
    labels = tuple("e" if k == 0 else f"{prefix}{k}" for k in range(n))
    table = {
        (labels[a], labels[b]): labels[(a + b) % n] for a in range(n) for b in range(n)
    }
    return FiniteGroup(labels, table, "e")


def join_label(parts: Sequence[str]) -> str:
    return "|".join(parts)


def split_label(label: str, nfactors: int) -> tuple[str, ...]:
    parts = tuple(label.split("|")) if nfactors > 1 else (label,)
    if len(parts) != nfactors:
        raise ValueError(f"label {label!r} does not split into {nfactors} factors")
    return parts


def product_group(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Direct product; labels joined with ``|`` in factor order."""
    if len(factors) == 1:
        return factors[0]
    elements = tuple(
        join_label(combo) for combo in itertools.product(*[g.elements for g in factors])
    )
    table = {}
    n = len(factors)
    for a in elements:
        pa = split_label(a, n)
        for b in elements:
            pb = split_label(b, n)
            table[(a, b)] = join_label(
                [g.mul(x, y) for g, x, y in zip(factors, pa, pb)]
            )
    identity = join_label([g.identity for g in factors])
    return FiniteGroup(elements, table, identity)


def project_label(label: str, J: tuple, I: tuple) -> str:
    """Canonical projection Γ_J → Γ_I for I ⊆ J (component surgery)."""
    parts = split_label(label, len(J))
    keep = [parts[J.index(i)] for i in I]
    return join_label(keep)


def kernel_labels(group_J: FiniteGroup, J: tuple, I: tuple,
                  identity_I: str) -> list[str]:
    """Elements of Γ_{J∖I} inside Γ_J (identity components on I)."""
    return [g for g in group_J.elements if project_label(g, J, I) == identity_I]


# ---------------------------------------------------------------------------
# group quotients
# ---------------------------------------------------------------------------


@dataclass
class GroupQuotientModel:
    """A finite sample model of a group quotient (U, Γ).

    ``perms`` gives a left action on point indices; ``affine`` optionally
    gives the coordinate-level map ``x ↦ A·x + b`` realizing each element.
    """

    points: tuple[Vec, ...]
    group: FiniteGroup
    perms: dict  # label -> tuple[int, ...]
    affine: dict | None = None  # label -> (RationalMatrix, Vec)
    membership: list | None = None  # predicate AST

    def act(self, g: str, idx: int) -> int:
        return self.perms[g][idx]

    def orbit(self, idx: int) -> tuple[int, ...]:
        return tuple(sorted({self.perms[g][idx] for g in self.group.elements}))

    def stabilizer(self, idx: int) -> tuple[str, ...]:
        return tuple(g for g in self.group.elements if self.perms[g][idx] == idx)

    def classes(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for i in range(len(self.points)):
            if i in seen:
                continue
            orb = self.orbit(i)
            seen.update(orb)
            out.append(orb)
        return out

    def class_index_of(self) -> dict:
        """point index -> quotient class index (classes ordered by min)."""
        mapping = {}
        for ci, orb in enumerate(self.classes()):
            for i in orb:
                mapping[i] = ci
        return mapping


def check_group_quotient(model: GroupQuotientModel) -> CheckReport:
    """Group-action laws, quotient classes and stabilizers."""
    rep = CheckReport("group_quotient")
    rep.merge(model.group.validate())
    n = len(model.points)
    ids = tuple(range(n))
    if tuple(model.perms.get(model.group.identity, ())) != ids:
        rep.fail("identity_not_trivial")
    for g in model.group.elements:
        perm = model.perms.get(g)
        if perm is None or sorted(perm) != list(ids):
            rep.fail("not_a_permutation", element=g)
    if rep.ok:
        for g in model.group.elements:
            for h in model.group.elements:
                gh = model.group.mul(g, h)
                for i in range(n):
                    if model.perms[gh][i] != model.perms[g][model.perms[h][i]]:
                        rep.fail("action_law", pair=(g, h), point=i)
                        break
    if model.affine is not None and rep.ok:
        for g, (mat, shift) in model.affine.items():
            for i, p in enumerate(model.points):
                image = tuple(v + s for v, s in zip(mat.matvec(p), shift))
                if image != model.points[model.perms[g][i]]:
                    rep.fail("affine_vs_permutation", element=g, point=i)
                    break
    if model.membership is not None:
        for i, p in enumerate(model.points):
            if not eval_pred(model.membership, list(p)):
                rep.fail("sample_outside_domain", point=i)
    if rep.ok:
        classes = model.classes()
        rep.details["num_classes"] = len(classes)
        rep.details["stabilizer_orders"] = [
            len(model.stabilizer(orb[0])) for orb in classes
        ]
    return rep


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


@dataclass
class ChartModel:
    """A Kuranishi chart on a finite sample model.

    ``section_samples`` are the declared (exact rational) values of the
    section at every domain sample; ``section_asts`` optionally give the
    smooth formula used for derivatives and zero finding.
    ``footprint_map`` sends zero-sample indices to footprint labels.
    """

    index: tuple
    domain: GroupQuotientModel
    obstruction_dim: int
    obstruction_action: dict  # label -> RationalMatrix
    obstruction_points: tuple[Vec, ...]
    section_samples: tuple[Vec, ...]
    footprint_map: dict  # zero sample index -> footprint label
    section_asts: tuple | None = None
    tangent_dims: tuple = ()

    @property
    def group(self) -> FiniteGroup:
        return self.domain.group

    def zero_sample_indices(self) -> list[int]:
        return [
            i
            for i, v in enumerate(self.section_samples)
            if all(c == 0 for c in v)
        ]

    def obstruction_point_index(self) -> dict:
        return {tuple(p): i for i, p in enumerate(self.obstruction_points)}

    def act_obstruction(self, g: str, e: Vec) -> Vec:
        if self.obstruction_dim == 0:
            return ()
        return tuple(self.obstruction_action[g].matvec(e))

    def points_float(self) -> list[tuple[float, ...]]:
        return [tuple(float(c) for c in p) for p in self.domain.points]


def check_chart(atlas: "AtlasModel", I: tuple) -> CheckReport:
    """Chart-level invariants: action laws, equivariance, footprints."""
    chart = atlas.charts[I]
    rep = CheckReport(f"chart {I}")
    rep.merge(check_group_quotient(chart.domain))
    g0 = chart.group
    m = chart.obstruction_dim
    if m > 0:
        act = chart.obstruction_action
        ident = act.get(g0.identity)
        if ident is None or ident.entries != RationalMatrix.identity(m).entries:
            rep.fail("obstruction_identity_action")
        for a in g0.elements:
            for b in g0.elements:
                if act[a].mul(act[b]).entries != act[g0.mul(a, b)].entries:
                    rep.fail("obstruction_action_law", pair=(a, b))
                    break
    eidx = chart.obstruction_point_index()
    for g in g0.elements:
        for e in chart.obstruction_points:
            if tuple(chart.act_obstruction(g, e)) not in eidx:
                rep.fail("obstruction_grid_not_stable", element=g, vector=e)
                break
    # section equivariance on declared samples: s(γx) = γ·s(x)
    for g in g0.elements:
        for i, sval in enumerate(chart.section_samples):
            expect = chart.act_obstruction(g, sval)
            got = chart.section_samples[chart.domain.act(g, i)]
            if tuple(got) != tuple(expect):
                rep.fail("section_not_equivariant", element=g, point=i)
                break
    # footprint map: (zero samples)/Γ_I → F_I bijection
    zeros = chart.zero_sample_indices()
    class_of = chart.domain.class_index_of()
    label_of_class: dict = {}
    for i in zeros:
        lab = chart.footprint_map.get(i)
        if lab is None:
            rep.fail("zero_sample_without_footprint", point=i)
            continue
        prev = label_of_class.setdefault(class_of[i], lab)
        if prev != lab:
            rep.fail("footprint_not_class_constant", point=i)
    zero_classes = {class_of[i] for i in zeros}
    F_I = atlas.footprint(I)
    labels = [label_of_class[c] for c in sorted(zero_classes) if c in label_of_class]
    if sorted(labels) != sorted(set(labels)) or set(labels) != F_I:
        rep.fail(
            "footprint_not_bijective",
            footprint=sorted(F_I),
            mapped=sorted(labels),
        )
    # loose consistency of smooth section vs declared samples
    if chart.section_asts is not None:
        for i, p in enumerate(chart.points_float()):
            got = [float(v) for v in eval_vector(chart.section_asts, list(p))]
            want = [float(v) for v in chart.section_samples[i]]
            err = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
            if err > LOOSE_TOL:
                rep.fail("section_ast_inconsistent", point=i, error=err)
                break
    return rep


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


@dataclass
class CoordinateChangeModel:
    """A coordinate change from chart I into chart J (I ⊊ J).

    ``tilde_indices`` enumerates the lifted domain Ũ_IJ as a subset of the
    target chart's samples; ``rho_idx`` is the sample-level covering map
    into the source chart; ``tilde_tangent_dims`` are the target tangent
    coordinates spanning the tangent space of Ũ_IJ.
    """

    source_index: tuple
    target_index: tuple
    tilde_indices: tuple
    rho_idx: dict  # target sample idx -> source sample idx
    phi_hat: RationalMatrix
    rho_asts: tuple | None = None
    domain_pred: list | None = None  # on source chart coordinates (Ū_IJ lift)
    lifted_pred: list | None = None  # on target chart coordinates (Ũ_IJ)
    tilde_tangent_dims: tuple = ()


def _tilde_set(atlas: "AtlasModel", I: tuple, J: tuple) -> list[int]:
    if I == J:
        return list(range(len(atlas.charts[J].domain.points)))
    return list(atlas.changes[(I, J)].tilde_indices)


def _rho(atlas: "AtlasModel", I: tuple, J: tuple, idx: int) -> int:
    if I == J:
        return idx
    return atlas.changes[(I, J)].rho_idx[idx]


def check_group_covering(atlas: "AtlasModel", I: tuple, J: tuple) -> CheckReport:
    """Covering conditions for ρ_IJ: free kernel, fibers, stabilizers."""
    rep = CheckReport(f"group_covering {I}->{J}")
    src = atlas.charts[I]
    tgt = atlas.charts[J]
    if I == J:
        rep.details["identity_covering"] = True
        return rep
    change = atlas.changes[(I, J)]
    tilde = list(change.tilde_indices)
    tset = set(tilde)
    gJ = tgt.group
    # Ũ_IJ is Γ_J-invariant
    for g in gJ.elements:
        if any(tgt.domain.act(g, y) not in tset for y in tilde):
            rep.fail("tilde_not_invariant", element=g)
            break
    kernel = kernel_labels(gJ, J, I, src.group.identity)
    rep.details["kernel_order"] = len(kernel)
    for g in kernel:
        if g == gJ.identity:
            continue
        for y in tilde:
            if tgt.domain.act(g, y) == y:
                rep.fail("kernel_action_not_free", element=g, point=y)
                break
    # fibers of ρ are kernel orbits
    fibers: dict = {}
    for y in tilde:
        fibers.setdefault(change.rho_idx[y], set()).add(y)
    for x, fib in fibers.items():
        if len(fib) != len(kernel):
            rep.fail("fiber_size", source_point=x, size=len(fib))
            continue
        orbit = {tgt.domain.act(g, next(iter(fib))) for g in kernel}
        if orbit != fib:
            rep.fail("fiber_not_kernel_orbit", source_point=x)
    # induced quotient map Ũ_IJ/Γ_J → image/Γ_I is a bijection
    cls_J = tgt.domain.class_index_of()
    cls_I = src.domain.class_index_of()
    quot: dict = {}
    for y in tilde:
        quot.setdefault(cls_J[y], set()).add(cls_I[change.rho_idx[y]])
    images = []
    for cj, cis in quot.items():
        if len(cis) != 1:
            rep.fail("quotient_map_not_well_defined", target_class=cj)
        images.extend(cis)
    if len(images) != len(set(images)):
        rep.fail("quotient_map_not_injective")
    # stabilizers map isomorphically Γ_J^y → Γ_I^{ρ(y)}
    for y in tilde:
        stab_J = tgt.domain.stabilizer(y)
        x = change.rho_idx[y]
        stab_I = src.domain.stabilizer(x)
        mapped = [project_label(g, J, I) for g in stab_J]
        if len(set(mapped)) != len(mapped) or set(mapped) != set(stab_I):
            rep.fail("stabilizer_not_isomorphic", point=y)
    return rep


def restrict_chart(chart: ChartModel, vbar_pred: list) -> ChartModel:
    """Restrict a chart to the preimage of an intermediate-level subset.

    The predicate is evaluated on domain coordinates and must be constant
    on Γ-orbits; the retained footprint must be a union of full footprint
    fibers (footprint condition of the restriction construction).
    """
    keep = [
        i
        for i, p in enumerate(chart.domain.points)
        if eval_pred(vbar_pred, list(p))
    ]
    keep_set = set(keep)
    for i in keep:
        for g in chart.group.elements:
            if chart.domain.act(g, i) not in keep_set:
                raise ValueError(
                    "restriction predicate is not pulled back from the quotient"
                )
    # footprint condition: labels are retained entirely or not at all
    by_label: dict = {}
    for i in chart.zero_sample_indices():
        by_label.setdefault(chart.footprint_map[i], []).append(i)
    for lab, idxs in by_label.items():
        kept = [i for i in idxs if i in keep_set]
        if kept and len(kept) != len(idxs):
            raise ValueError(f"footprint fiber for {lab!r} only partially retained")
    renum = {old: new for new, old in enumerate(keep)}
    perms = {
        g: tuple(renum[chart.domain.act(g, old)] for old in keep)
        for g in chart.group.elements
    }
    domain = GroupQuotientModel(
        points=tuple(chart.domain.points[i] for i in keep),
        group=chart.group,
        perms=perms,
        affine=chart.domain.affine,
        membership=vbar_pred,
    )
    return ChartModel(
        index=chart.index,
        domain=domain,
        obstruction_dim=chart.obstruction_dim,
        obstruction_action=chart.obstruction_action,
        obstruction_points=chart.obstruction_points,
        section_samples=tuple(chart.section_samples[i] for i in keep),
        footprint_map={
            renum[i]: lab
            for i, lab in chart.footprint_map.items()
            if i in keep_set
        },
        section_asts=chart.section_asts,
        tangent_dims=chart.tangent_dims,
    )


def _longdouble_rank_full(matrix: np.ndarray, tol: float) -> bool:
    """Certify full rank of a square matrix by elimination in extended
    precision (partial pivoting)."""
    a = matrix.astype(np.longdouble).copy()
    n = a.shape[0]
    if n == 0:
        return True
    scale = max(np.max(np.abs(a)), 1.0)
    for col in range(n):
        piv = int(np.argmax(np.abs(a[col:, col]))) + col
        if abs(a[piv, col]) <= tol * scale:
            return False
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        for r in range(col + 1, n):
            a[r, col:] -= (a[r, col] / a[col, col]) * a[col, col:]
    return True


def check_coordinate_change(atlas: "AtlasModel", I: tuple, J: tuple) -> CheckReport:
    """Equivariance, section compatibility, and the tangent bundle condition."""
    rep = CheckReport(f"coordinate_change {I}->{J}")
    src = atlas.charts[I]
    tgt = atlas.charts[J]
    change = atlas.changes[(I, J)]
    tilde = list(change.tilde_indices)
    rep.merge(check_group_covering(atlas, I, J))
    gJ = tgt.group
    # equivariance of ρ w.r.t. the canonical projection ρ^Γ
    for g in gJ.elements:
        gI = project_label(g, J, I)
        for y in tilde:
            if change.rho_idx[tgt.domain.act(g, y)] != src.domain.act(gI, change.rho_idx[y]):
                rep.fail("rho_not_equivariant", element=g, point=y)
                break
    # φ̂ injective with equivariant cokernel data
    m_I, m_J = src.obstruction_dim, tgt.obstruction_dim
    if change.phi_hat.rows != m_J or change.phi_hat.cols != m_I:
        rep.fail("phi_hat_shape")
        return rep
    if m_I > 0 and change.phi_hat.rank() != m_I:
        rep.fail("cokernel", reason="phi_hat not injective")
    for g in gJ.elements:
        gI = project_label(g, J, I)
        if m_I == 0 or m_J == 0:
            continue
        lhs = tgt.obstruction_action[g].mul(change.phi_hat)
        rhs = change.phi_hat.mul(src.obstruction_action[gI])
        if lhs.entries != rhs.entries:
            rep.fail("phi_hat_not_equivariant", element=g)
            break
    # section compatibility at samples: s_J∘φ̃ = φ̂∘s_I∘ρ (φ̃ = inclusion)
    for y in tilde:
        want = change.phi_hat.matvec(src.section_samples[change.rho_idx[y]])
        if tuple(tgt.section_samples[y]) != tuple(want):
            rep.fail("section_compatibility", point=y)
            break
    # index condition
    n_I, n_J = len(src.tangent_dims), len(tgt.tangent_dims)
    if n_J - n_I != m_J - m_I:
        rep.fail("index_condition", dims=(n_I, n_J, m_I, m_J))
    # tangent bundle condition at each Ũ_IJ sample:
    # [φ̂ | ds_J restricted to a complement of T Ũ_IJ] must be invertible.
    complement = [d for d in tgt.tangent_dims if d not in change.tilde_tangent_dims]
    if len(change.tilde_tangent_dims) != n_I and n_I > 0:
        rep.fail("tilde_tangent_dimension", expected=n_I)
    elif tgt.section_asts is not None and (m_J > 0 or complement):
        if m_J != m_I + len(complement):
            rep.fail("tbc_shape")
        else:
            phi_f = np.array(
                [[float(v) for v in row] for row in change.phi_hat.entries],
                dtype=float,
            ).reshape(m_J, m_I)
            for y in tilde:
                coords = [Fraction(c) for c in tgt.domain.points[y]]
                _, rows = value_and_jacobian(
                    tgt.section_asts, coords, tangent_dims=list(tgt.tangent_dims)
                )
                cols = []
                for d in complement:
                    j = list(tgt.tangent_dims).index(d)
                    cols.append([float(r[j]) for r in rows])
                block = np.zeros((m_J, m_J))
                block[:, :m_I] = phi_f
                for k, c in enumerate(cols):
                    block[:, m_I + k] = c
                sv = np.linalg.svd(block, compute_uv=False)
                smallest = sv[-1] if len(sv) else 1.0
                scale = max(sv[0] if len(sv) else 1.0, 1.0)
                if smallest <= TAU_RANK * scale or not _longdouble_rank_full(
                    block, TAU_RANK
                ):
                    rep.fail("tangent_bundle_condition", point=y, sigma_min=smallest)
                    break
    # smooth-level ρ vs sample-level ρ (loose tolerance; samples are
    # rational approximations of the smooth model)
    if change.rho_asts is not None:
        for y in tilde:
            got = [
                float(v)
                for v in eval_vector(
                    change.rho_asts, [float(c) for c in tgt.domain.points[y]]
                )
            ]
            want = [float(c) for c in src.domain.points[change.rho_idx[y]]]
            err = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
            if err > LOOSE_TOL:
                rep.fail("rho_ast_inconsistent", point=y, error=err)
                break
    return rep


def _subst_asts(outer: Sequence, inner: Sequence) -> list:
    """Compose expression ASTs: outer evaluated on the outputs of inner."""

    def walk(node):
        if isinstance(node, list):
            if node and node[0] == "var":
                return inner[node[1]]
            return [node[0]] + [walk(sub) for sub in node[1:]] if len(node) > 1 else list(node)
        return node

    return [walk(a) for a in outer]


@dataclass
class CompositeChange:
    change: CoordinateChangeModel
    report: CheckReport
    empty_domain: bool


def compose_coordinate_changes(
    atlas: "AtlasModel", I: tuple, J: tuple, K: tuple
) -> CompositeChange:
    """Composite of coordinate changes for I ⊊ J ⊊ K."""
    cIJ = atlas.changes[(I, J)]
    cJK = atlas.changes[(J, K)]
    tilde = [
        z for z in cJK.tilde_indices if cJK.rho_idx[z] in set(cIJ.tilde_indices)
    ]
    rho = {z: cIJ.rho_idx[cJK.rho_idx[z]] for z in tilde}
    rho_asts = None
    if cIJ.rho_asts is not None and cJK.rho_asts is not None:
        rho_asts = tuple(_subst_asts(cIJ.rho_asts, cJK.rho_asts))
    change = CoordinateChangeModel(
        source_index=I,
        target_index=K,
        tilde_indices=tuple(tilde),
        rho_idx=rho,
        phi_hat=cJK.phi_hat.mul(cIJ.phi_hat),
        rho_asts=rho_asts,
        tilde_tangent_dims=tuple(
            d for d in cJK.tilde_tangent_dims if d in cJK.tilde_tangent_dims
        ),
    )
    empty = not tilde
    report = CheckReport(f"composite {I}->{J}->{K}")
    if not empty:
        # run the coordinate-change checks on a shadow atlas holding the
        # composite in place of the direct change
        shadow = AtlasModel(
            x_labels=atlas.x_labels,
            cover=atlas.cover,
            charts=atlas.charts,
            changes={**atlas.changes, (I, K): change},
            metric=atlas.metric,
        )
        report.merge(check_coordinate_change(shadow, I, K))
        kernel = kernel_labels(
            atlas.charts[K].group, K, I, atlas.charts[I].group.identity
        )
        fibers: dict = {}
        for z in tilde:
            fibers.setdefault(rho[z], 0)
            fibers[rho[z]] += 1
        for x, size in fibers.items():
            if size != len(kernel):
                report.fail("composite_fiber_count", source_point=x, size=size)
    return CompositeChange(change=change, report=report, empty_domain=empty)


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------


@dataclass
class AtlasModel:
    """An additive weak Kuranishi atlas on a finite footprint model."""

    x_labels: tuple[str, ...]
    cover: dict  # basic index -> frozenset of x labels
    charts: dict  # tuple index -> ChartModel
    changes: dict  # (I, J) -> CoordinateChangeModel
    metric: dict | None = None  # (key, key) -> Fraction on intermediate samples

    def index_sets(self) -> list[tuple]:
        return sorted(self.charts.keys(), key=lambda t: (len(t), t))

    def basic_indices(self) -> list[int]:
        return sorted(i for (i,) in (I for I in self.charts if len(I) == 1))

    def footprint(self, I: tuple) -> set:
        out = set(self.x_labels)
        for i in I:
            out &= set(self.cover[i])
        return out

    def group_of(self, I: tuple) -> FiniteGroup:
        return self.charts[I].group

    def intermediate_keys(self) -> list[tuple]:
        keys = []
        for I in self.index_sets():
            for ci in range(len(self.charts[I].domain.classes())):
                keys.append((I, ci))
        return keys

    def distance(self, a: tuple, b: tuple) -> Fraction:
        if a == b:
            return Fraction(0)
        if self.metric is None:
            raise ValueError("atlas has no metric")
        key = (a, b) if (a <= b) else (b, a)
        d = self.metric.get(key)
        if d is None:
            raise ValueError(f"metric entry missing for {key}")
        return d


def check_atlas_model(atlas: AtlasModel) -> CheckReport:
    """Index-set and additivity invariants of the atlas."""
    rep = CheckReport("atlas_model")
    nonempty = {
        I
        for r in range(1, len(atlas.basic_indices()) + 1)
        for I in itertools.combinations(atlas.basic_indices(), r)
        if atlas.footprint(I)
    }
    declared = set(atlas.index_sets())
    if declared != nonempty:
        rep.fail(
            "index_set_mismatch",
            declared=sorted(declared),
            from_cover=sorted(nonempty),
        )
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        if tuple(sorted(I)) != I:
            rep.fail("index_not_sorted", index=I)
        factors = [atlas.charts[(i,)] for i in I]
        want_group = product_group([c.group for c in factors])
        got = chart.group
        if set(got.elements) != set(want_group.elements) or any(
            got.table.get(k) != want_group.table[k] for k in want_group.table
        ):
            rep.fail("group_not_additive", index=I)
        if chart.obstruction_dim != sum(c.obstruction_dim for c in factors):
            rep.fail("obstruction_not_additive", index=I)
        # φ̂ canonical block inclusions
        offset = 0
        for pos, i in enumerate(I):
            m_i = factors[pos].obstruction_dim
            if len(I) > 1 and m_i > 0:
                change = atlas.changes.get(((i,), I))
                if change is None:
                    rep.fail("missing_change", pair=((i,), I))
                else:
                    want = RationalMatrix.from_rows(
                        [
                            [
                                Fraction(1)
                                if (r - offset) == c and offset <= r < offset + m_i
                                else Fraction(0)
                                for c in range(m_i)
                            ]
                            for r in range(chart.obstruction_dim)
                        ]
                    )
                    if change.phi_hat.entries != want.entries:
                        rep.fail("phi_hat_not_canonical", pair=((i,), I))
            offset += m_i
    for (I, J) in atlas.changes:
        if not set(I) < set(J):
            rep.fail("change_index_not_nested", pair=(I, J))
        if I not in atlas.charts or J not in atlas.charts:
            rep.fail("change_without_chart", pair=(I, J))
    return rep


# ---------------------------------------------------------------------------
# cocycle and tameness
# ---------------------------------------------------------------------------


def _ubar_classes(atlas: AtlasModel, I: tuple, J: tuple) -> set:
    """Intermediate-level domain Ū_IJ as a set of chart-I class indices."""
    src = atlas.charts[I]
    cls = src.domain.class_index_of()
    if I == J:
        return set(cls.values())
    change = atlas.changes[(I, J)]
    return {cls[change.rho_idx[y]] for y in change.tilde_indices}


def _phibar_map(atlas: AtlasModel, I: tuple, J: tuple) -> dict:
    """φ̲_IJ: Ū_IJ classes (in chart I) → Ū_J classes (in chart J)."""
    if I == J:
        cls = atlas.charts[I].domain.class_index_of()
        return {c: c for c in set(cls.values())}
    change = atlas.changes[(I, J)]
    cls_I = atlas.charts[I].domain.class_index_of()
    cls_J = atlas.charts[J].domain.class_index_of()
    out: dict = {}
    for y in change.tilde_indices:
        out[cls_I[change.rho_idx[y]]] = cls_J[y]
    return out


def check_cocycle(atlas: AtlasModel, strength: str = "weak") -> CheckReport:
    """Cocycle conditions over all triples I ⊊ J ⊊ K.

    ``weak``: the maps agree on the common overlap.  ``cocycle``: in
    addition Ū_IJ ∩ φ̲_IJ⁻¹(Ū_JK) ⊆ Ū_IK.  ``strong``: equality holds.
    """
    if strength not in {"weak", "cocycle", "strong"}:
        raise ValueError(f"unknown strength {strength!r}")
    rep = CheckReport(f"cocycle[{strength}]")
    indices = atlas.index_sets()
    triples = [
        (I, J, K)
        for I in indices
        for J in indices
        for K in indices
        if set(I) < set(J) < set(K)
    ]
    rep.details["triples"] = len(triples)
    for (I, J, K) in triples:
        cIJ = atlas.changes.get((I, J))
        cJK = atlas.changes.get((J, K))
        cIK = atlas.changes.get((I, K))
        if cIJ is None or cJK is None or cIK is None:
            rep.fail("missing_change", triple=(I, J, K))
            continue
        tIJ = set(cIJ.tilde_indices)
        tIK = set(cIK.tilde_indices)
        for z in cJK.tilde_indices:
            if z in tIK and cJK.rho_idx[z] in tIJ:
                if cIK.rho_idx[z] != cIJ.rho_idx[cJK.rho_idx[z]]:
                    rep.fail("weak_overlap", triple=(I, J, K), point=z)
        if cJK.phi_hat.mul(cIJ.phi_hat).entries != cIK.phi_hat.entries:
            rep.fail("phi_hat_composition", triple=(I, J, K))
        if strength in {"cocycle", "strong"}:
            u_IJ = _ubar_classes(atlas, I, J)
            u_JK = _ubar_classes(atlas, J, K)
            u_IK = _ubar_classes(atlas, I, K)
            phibar = _phibar_map(atlas, I, J)
            lhs = {c for c in u_IJ if phibar.get(c) in u_JK}
            if strength == "cocycle" and not lhs <= u_IK:
                rep.fail("domain_inclusion", triple=(I, J, K))
            if strength == "strong" and lhs != u_IK:
                rep.fail("domain_equality", triple=(I, J, K))
    return rep


def _phi_hat_of(atlas: AtlasModel, I: tuple, J: tuple) -> RationalMatrix:
    if I == J:
        return RationalMatrix.identity(atlas.charts[I].obstruction_dim)
    return atlas.changes[(I, J)].phi_hat


def check_tame_and_filtration(atlas: AtlasModel) -> CheckReport:
    """Tameness identities and bundle-filtration identities on samples."""
    rep = CheckReport("tame_and_filtration")
    indices = atlas.index_sets()
    declared = set(indices)
    # intersection identity for intermediate domains
    for I in indices:
        supersets = [J for J in indices if set(I) <= set(J)]
        for J in supersets:
            for K in supersets:
                L = tuple(sorted(set(J) | set(K)))
                lhs = _ubar_classes(atlas, I, J) & _ubar_classes(atlas, I, K)
                rhs = _ubar_classes(atlas, I, L) if L in declared else set()
                if lhs != rhs:
                    rep.fail("domain_intersection", indices=(I, J, K))
    # pushforward identity: φ̲_IJ(Ū_IK) = Ū_JK ∩ s̲_J⁻¹(im φ̂_IJ)
    for I in indices:
        for J in indices:
            if not set(I) <= set(J):
                continue
            for K in indices:
                if not set(J) <= set(K):
                    continue
                phibar = _phibar_map(atlas, I, J)
                u_IK = _ubar_classes(atlas, I, K)
                if any(c not in phibar for c in u_IK):
                    rep.fail("domain_not_in_phibar", indices=(I, J, K))
                    continue
                lhs = {phibar[c] for c in u_IK}
                chart_J = atlas.charts[J]
                phi = _phi_hat_of(atlas, I, J)
                cls_J = chart_J.domain.class_index_of()
                rep_point: dict = {}
                for idx, c in cls_J.items():
                    rep_point.setdefault(c, idx)
                rhs = set()
                for c in _ubar_classes(atlas, J, K):
                    sval = chart_J.section_samples[rep_point[c]]
                    if chart_J.obstruction_dim == 0 or phi.solve(sval) is not None:
                        rhs.add(c)
                if lhs != rhs:
                    rep.fail("pushforward_identity", indices=(I, J, K))
    # filtration: φ̂-images of the obstruction grids intersect additively
    for J in indices:
        chart_J = atlas.charts[J]
        if chart_J.obstruction_dim == 0:
            continue
        subs = [I for I in indices if set(I) <= set(J)] + [()]

        def image(I: tuple) -> frozenset:
            if I == ():
                return frozenset({(Fraction(0),) * chart_J.obstruction_dim})
            phi = _phi_hat_of(atlas, I, J)
            return frozenset(
                tuple(phi.matvec(e)) for e in atlas.charts[I].obstruction_points
            )

        for I in subs:
            for H in subs:
                meet = tuple(sorted(set(I) & set(H)))
                if meet != () and meet not in declared:
                    rep.fail("filtration_index_missing", indices=(I, H, J))
                    continue
                if image(I) & image(H) != image(meet):
                    rep.fail("filtration_intersection", indices=(I, H, J))
    return rep


# ---------------------------------------------------------------------------
# categories
# ---------------------------------------------------------------------------


@dataclass
class FiniteCategory:
    """A finite category with an explicit (partial) composition table.

    ``compose[(f, g)]`` is "f then g", defined iff target(f) == source(g).
    """

    objects: tuple
    morphisms: tuple
    source: dict
    target: dict
    compose: dict
    identity_of: dict

    def morphisms_between(self, a, b) -> list:
        return [
            m for m in self.morphisms if self.source[m] == a and self.target[m] == b
        ]


def check_category(cat: FiniteCategory) -> CheckReport:
    """Category axioms verified by exhaustion (int-interned for speed)."""
    rep = CheckReport("category_axioms")
    obj_idx = {o: i for i, o in enumerate(cat.objects)}
    midx = {m: i for i, m in enumerate(cat.morphisms)}
    nm = len(cat.morphisms)
    src = [0] * nm
    tgt = [0] * nm
    for m, i in midx.items():
        s = cat.source.get(m)
        t = cat.target.get(m)
        if s not in obj_idx or t not in obj_idx:
            rep.fail("endpoint_outside_objects", morphism=m)
            return rep
        src[i] = obj_idx[s]
        tgt[i] = obj_idx[t]
    out_by_obj: list[list[int]] = [[] for _ in cat.objects]
    for i in range(nm):
        out_by_obj[src[i]].append(i)
    comp: dict = {}
    for (f, g), h in cat.compose.items():
        fi, gi = midx.get(f), midx.get(g)
        hi = midx.get(h)
        if fi is None or gi is None or hi is None:
            rep.fail("compose_outside_morphisms", pair=(f, g))
            return rep
        if tgt[fi] != src[gi]:
            rep.fail("compose_of_non_composable", pair=(f, g))
            return rep
        if src[hi] != src[fi] or tgt[hi] != tgt[gi]:
            rep.fail("compose_endpoints", pair=(f, g))
            return rep
        comp[(fi, gi)] = hi
    # every composable pair has a composite
    for f in range(nm):
        for g in out_by_obj[tgt[f]]:
            if (f, g) not in comp:
                rep.fail(
                    "composable_pair_undefined",
                    pair=(cat.morphisms[f], cat.morphisms[g]),
                )
                return rep
    # identities
    idm = {}
    for o, m in cat.identity_of.items():
        if o not in obj_idx or m not in midx:
            rep.fail("identity_missing", object=o)
            return rep
        idm[obj_idx[o]] = midx[m]
    for i in range(len(cat.objects)):
        if i not in idm:
            rep.fail("object_without_identity", object=cat.objects[i])
            return rep
    for f in range(nm):
        if comp[(idm[src[f]], f)] != f or comp[(f, idm[tgt[f]])] != f:
            rep.fail("identity_law", morphism=cat.morphisms[f])
            return rep
    # associativity on all composable triples
    for (f, g), fg in comp.items():
        for h in out_by_obj[tgt[g]]:
            if comp[(fg, h)] != comp[(f, comp[(g, h)])]:
                rep.fail(
                    "associativity",
                    triple=(cat.morphisms[f], cat.morphisms[g], cat.morphisms[h]),
                )
                return rep
    rep.details["objects"] = len(cat.objects)
    rep.details["morphisms"] = nm
    rep.details["composable_pairs"] = len(comp)
    return rep


def composition_table(rep: CheckReport, clause: str, morphisms, source: dict,
                      target: dict, law) -> dict:
    """``{(f, g): law(f, g)}`` over every composable pair "f then g".

    A composite that is not a morphism (not a key of ``source``) is
    reported as ``clause`` with the pair and the result, and left out.
    """
    by_source: dict = {}
    for m in morphisms:
        by_source.setdefault(source[m], []).append(m)
    table: dict = {}
    for f in morphisms:
        for g in by_source.get(target[f], ()):
            h = law(f, g)
            if h in source:
                table[(f, g)] = h
            else:
                rep.fail(clause, pair=(f, g), result=h)
    return table


def b_composite(atlas: "AtlasModel", f: tuple, g: tuple) -> tuple:
    """The composite "f then g" of morphisms (I, J, y, γ) and (J, K, z, δ)
    of B_K: (I, K, z, ρ^Γ_{JI}(δ)·γ)."""
    I, _, _, gamma = f
    J, K, z, delta = g
    return (I, K, z, atlas.charts[I].group.mul(project_label(delta, J, I), gamma))


@dataclass
class CategoriesResult:
    domain_category: FiniteCategory  # B_K
    obstruction_category: FiniteCategory  # E_K
    functors: dict  # name -> (object map, morphism map)
    report: CheckReport


def build_categories(atlas: AtlasModel) -> CategoriesResult:
    """The categories B_K and E_K with pr, section, zero and footprint
    functors, all axioms verified by exhaustion."""
    rep = CheckReport("build_categories")
    indices = atlas.index_sets()
    pairs = [(I, J) for I in indices for J in indices if set(I) <= set(J)]
    pairs = [
        (I, J)
        for (I, J) in pairs
        if I == J or (I, J) in atlas.changes
    ]

    # ----- B_K -----
    objects = []
    for I in indices:
        for x in range(len(atlas.charts[I].domain.points)):
            objects.append((I, x))
    morphisms = []
    b_src: dict = {}
    b_tgt: dict = {}
    for (I, J) in pairs:
        gI = atlas.charts[I].group
        for y in _tilde_set(atlas, I, J):
            for gamma in gI.elements:
                m = (I, J, y, gamma)
                morphisms.append(m)
                x = atlas.charts[I].domain.act(gI.inv(gamma), _rho(atlas, I, J, y))
                b_src[m] = (I, x)
                b_tgt[m] = (J, y)
    identity_of = {
        (I, x): (I, I, x, atlas.charts[I].group.identity) for (I, x) in objects
    }
    b_comp = composition_table(
        rep, "composability_violated", morphisms, b_src, b_tgt,
        functools.partial(b_composite, atlas),
    )
    B = FiniteCategory(
        objects=tuple(objects),
        morphisms=tuple(morphisms),
        source=b_src,
        target=b_tgt,
        compose=b_comp,
        identity_of=identity_of,
    )
    rep.merge(check_category(B))

    # ----- E_K -----
    egrid_index = {I: atlas.charts[I].obstruction_point_index() for I in indices}
    # group action on grid indices, per chart
    eact: dict = {}
    for I in indices:
        chart = atlas.charts[I]
        eact[I] = {
            g: tuple(
                egrid_index[I][tuple(chart.act_obstruction(g, e))]
                for e in chart.obstruction_points
            )
            for g in chart.group.elements
        }
    # φ̂ on grid indices
    phi_idx: dict = {}
    grids_closed = True
    for (I, J) in pairs:
        phi = _phi_hat_of(atlas, I, J)
        mapping = []
        for e in atlas.charts[I].obstruction_points:
            image = tuple(phi.matvec(e))
            j = egrid_index[J].get(image)
            if j is None:
                rep.fail("obstruction_grid_not_phi_closed", pair=(I, J), vector=e)
                grids_closed = False
                break
            mapping.append(j)
        phi_idx[(I, J)] = tuple(mapping)
    e_objects = []
    for I in indices:
        for x in range(len(atlas.charts[I].domain.points)):
            for e in range(len(atlas.charts[I].obstruction_points)):
                e_objects.append((I, x, e))
    e_morphisms = []
    e_src: dict = {}
    e_tgt: dict = {}
    if grids_closed:
        for (I, J) in pairs:
            gI = atlas.charts[I].group
            chart_I = atlas.charts[I]
            n_e = len(chart_I.obstruction_points)
            pmap = phi_idx[(I, J)]
            for y in _tilde_set(atlas, I, J):
                rho_y = _rho(atlas, I, J, y)
                for gamma in gI.elements:
                    inv = gI.inv(gamma)
                    x = chart_I.domain.act(inv, rho_y)
                    for e in range(n_e):
                        m = (I, J, y, e, gamma)
                        e_morphisms.append(m)
                        e_src[m] = (I, x, eact[I][inv][e])
                        e_tgt[m] = (J, y, pmap[e])
    e_identity = {}
    for (I, x, e) in e_objects:
        e_identity[(I, x, e)] = (I, I, x, e, atlas.charts[I].group.identity)

    def e_compose(f, g):
        I, J, _, e, gamma = f
        _, K, z, _, delta = g
        proj = project_label(delta, J, I)
        return (I, K, z, eact[I][proj][e], atlas.charts[I].group.mul(proj, gamma))

    e_comp = composition_table(
        rep, "composability_violated_E", e_morphisms, e_src, e_tgt, e_compose
    )
    E = FiniteCategory(
        objects=tuple(e_objects),
        morphisms=tuple(e_morphisms),
        source=e_src,
        target=e_tgt,
        compose=e_comp,
        identity_of=e_identity,
    )
    e_axioms = check_category(E)
    e_axioms.name = "category_axioms_E"
    rep.merge(e_axioms)

    # ----- functors -----
    pr_obj = {(I, x, e): (I, x) for (I, x, e) in e_objects}
    pr_mor = {m: (m[0], m[1], m[2], m[4]) for m in e_morphisms}

    s_idx: dict = {}
    s_ok = True
    for I in indices:
        chart = atlas.charts[I]
        vals = []
        for sval in chart.section_samples:
            j = egrid_index[I].get(tuple(sval))
            if j is None:
                rep.fail("section_value_outside_grid", index=I, value=sval)
                s_ok = False
                break
            vals.append(j)
        s_idx[I] = vals
    s_obj: dict = {}
    s_mor: dict = {}
    z_obj = {}
    z_mor = {}
    zero_idx = {
        I: egrid_index[I].get((Fraction(0),) * atlas.charts[I].obstruction_dim)
        for I in indices
    }
    if any(v is None for v in zero_idx.values()):
        rep.fail("zero_vector_outside_grid")
        s_ok = False
    if s_ok:
        for (I, x) in objects:
            s_obj[(I, x)] = (I, x, s_idx[I][x])
            z_obj[(I, x)] = (I, x, zero_idx[I])
        for m in morphisms:
            I, J, y, gamma = m
            s_mor[m] = (I, J, y, s_idx[I][_rho(atlas, I, J, y)], gamma)
            z_mor[m] = (I, J, y, zero_idx[I], gamma)
        _check_functor(rep, "pr", E, B, pr_obj, pr_mor)
        _check_functor(rep, "section", B, E, s_obj, s_mor)
        _check_functor(rep, "zero", B, E, z_obj, z_mor)
        for (I, x) in objects:
            if pr_obj[s_obj[(I, x)]] != (I, x):
                rep.fail("pr_after_section_not_identity", object=(I, x))
        for m in morphisms:
            if pr_mor[s_mor[m]] != m:
                rep.fail("pr_after_section_not_identity", morphism=m)

    # footprint functor ψ on the zero-object subcategory
    psi_obj: dict = {}
    for I in indices:
        chart = atlas.charts[I]
        for x in chart.zero_sample_indices():
            psi_obj[(I, x)] = chart.footprint_map[x]
    for m in morphisms:
        s, t = b_src[m], b_tgt[m]
        if s in psi_obj and t in psi_obj and psi_obj[s] != psi_obj[t]:
            rep.fail("footprint_functor_not_constant", morphism=m)
    if set(psi_obj.values()) != set(atlas.x_labels):
        rep.fail(
            "footprint_functor_not_surjective",
            image=sorted(set(psi_obj.values())),
        )

    functors = {
        "pr": (pr_obj, pr_mor),
        "section": (s_obj, s_mor),
        "zero": (z_obj, z_mor),
        "footprint": (psi_obj, None),
    }
    return CategoriesResult(
        domain_category=B,
        obstruction_category=E,
        functors=functors,
        report=rep,
    )


def _check_functor(rep, name, dom: FiniteCategory, cod: FiniteCategory, fobj, fmor):
    cod_morphisms = set(cod.morphisms)
    for m in dom.morphisms:
        if fmor[m] not in cod_morphisms:
            rep.fail(f"functor_{name}_morphism_outside_codomain", morphism=m)
            return
    cod_src, cod_tgt = cod.source, cod.target
    for m in dom.morphisms:
        if cod_src[fmor[m]] != fobj[dom.source[m]] or cod_tgt[fmor[m]] != fobj[dom.target[m]]:
            rep.fail(f"functor_{name}_endpoints", morphism=m)
            return
    for o, m in dom.identity_of.items():
        if fmor[m] != cod.identity_of[fobj[o]]:
            rep.fail(f"functor_{name}_identity", object=o)
            return
    for (f, g), h in dom.compose.items():
        if cod.compose.get((fmor[f], fmor[g])) != fmor[h]:
            rep.fail(f"functor_{name}_composition", pair=(f, g))
            return


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


class UnionFind:
    """Disjoint sets of ordered items; a set's representative is always its
    smallest member, whatever the order of the unions."""

    def __init__(self, items: Iterable, pairs: Iterable = ()):
        self.parent = {x: x for x in items}
        for a, b in pairs:
            self.union(a, b)

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller representative wins
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def groups(self) -> dict:
        """Representative -> members, in the order the items were given."""
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


@dataclass
class RealizeResult:
    classes: list  # list of sorted object tuples
    class_of: dict  # object -> class index
    representatives: list  # smallest object per class


def _quotient(items, pairs) -> RealizeResult:
    groups = UnionFind(items, pairs).groups()
    reps = sorted(groups)
    classes = [tuple(sorted(groups[r])) for r in reps]
    class_of = {o: ci for ci, cls in enumerate(classes) for o in cls}
    return RealizeResult(classes=classes, class_of=class_of, representatives=reps)


def realize(category: FiniteCategory) -> RealizeResult:
    """Quotient of the object set by the morphism relation."""
    return _quotient(
        category.objects,
        ((category.source[m], category.target[m]) for m in category.morphisms),
    )


def realize_intermediate(atlas: AtlasModel) -> RealizeResult:
    """Realization of the intermediate (quotient-level) category."""
    cls_maps = {I: atlas.charts[I].domain.class_index_of() for I in atlas.index_sets()}
    return _quotient(
        atlas.intermediate_keys(),
        (
            ((J, cls_maps[J][y]), (I, cls_maps[I][change.rho_idx[y]]))
            for (I, J), change in atlas.changes.items()
            for y in change.tilde_indices
        ),
    )


def check_realizations(atlas: AtlasModel, B: FiniteCategory) -> CheckReport:
    """|K| ↔ |K̲| bijection and zero-set classes ↔ footprint samples."""
    rep = CheckReport("realizations")
    full = realize(B)
    inter = realize_intermediate(atlas)
    rep.details["full_classes"] = len(full.classes)
    rep.details["intermediate_classes"] = len(inter.classes)
    cls_maps = {I: atlas.charts[I].domain.class_index_of() for I in atlas.index_sets()}
    # canonical map: class of (I, x) in |K| -> class of (I, [x]) in |K̲|
    mapping: dict = {}
    for ci, cls in enumerate(full.classes):
        images = {inter.class_of[(I, cls_maps[I][x])] for (I, x) in cls}
        if len(images) != 1:
            rep.fail("projection_not_well_defined", full_class=ci)
            continue
        mapping[ci] = next(iter(images))
    if len(set(mapping.values())) != len(mapping) or len(mapping) != len(
        inter.classes
    ):
        rep.fail(
            "realization_not_bijective",
            full=len(full.classes),
            intermediate=len(inter.classes),
        )
    # zero-object subcategory realizes to the footprint sample set
    zero_objects = set()
    footprint_label = {}
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        for x in chart.zero_sample_indices():
            zero_objects.add((I, x))
            footprint_label[(I, x)] = chart.footprint_map[x]
    zero_morphisms = (
        (B.source[m], B.target[m]) for m in B.morphisms
        if B.source[m] in zero_objects and B.target[m] in zero_objects
    )
    by_root = {
        root: {footprint_label[o] for o in members}
        for root, members in UnionFind(zero_objects, zero_morphisms).groups().items()
    }
    labels = []
    for root, labs in by_root.items():
        if len(labs) != 1:
            rep.fail("zero_class_with_mixed_footprints", representative=root)
        labels.extend(labs)
    if sorted(labels) != sorted(set(labels)) or set(labels) != set(atlas.x_labels):
        rep.fail(
            "zero_classes_not_bijective_with_footprint",
            classes=len(by_root),
            footprint=len(atlas.x_labels),
        )
    rep.details["zero_classes"] = len(by_root)
    return rep


# ---------------------------------------------------------------------------
# JSON serialization (schema "vfc-atlas/1")
# ---------------------------------------------------------------------------

SCHEMA = "vfc-atlas/1"


def _vec_to_json(v: Sequence) -> list:
    return [rat_str(Fraction(c)) for c in v]


def _vec_from_json(v: Sequence) -> Vec:
    return tuple(parse_rat(c) for c in v)


def _index_key(I: tuple) -> str:
    return ",".join(str(i) for i in I)


def _index_from_key(key: str) -> tuple:
    return tuple(int(p) for p in key.split(","))


def _group_to_json(g: FiniteGroup) -> dict:
    return {
        "elements": list(g.elements),
        "identity": g.identity,
        "table": [[a, b, g.table[(a, b)]] for (a, b) in sorted(g.table)],
    }


def _group_from_json(d: dict) -> FiniteGroup:
    return FiniteGroup(
        elements=tuple(d["elements"]),
        table={(a, b): c for a, b, c in d["table"]},
        identity=d["identity"],
    )


def _quotient_to_json(q: GroupQuotientModel) -> dict:
    out = {
        "points": [_vec_to_json(p) for p in q.points],
        "group": _group_to_json(q.group),
        "perms": {g: list(p) for g, p in q.perms.items()},
    }
    if q.affine is not None:
        out["affine"] = {
            g: {"matrix": mat.to_json(), "shift": _vec_to_json(shift)}
            for g, (mat, shift) in q.affine.items()
        }
    if q.membership is not None:
        out["membership"] = q.membership
    return out


def _quotient_from_json(d: dict) -> GroupQuotientModel:
    affine = None
    if "affine" in d:
        affine = {
            g: (RationalMatrix.from_json(a["matrix"]), _vec_from_json(a["shift"]))
            for g, a in d["affine"].items()
        }
    return GroupQuotientModel(
        points=tuple(_vec_from_json(p) for p in d["points"]),
        group=_group_from_json(d["group"]),
        perms={g: tuple(p) for g, p in d["perms"].items()},
        affine=affine,
        membership=d.get("membership"),
    )


def _chart_to_json(c: ChartModel) -> dict:
    out = {
        "index": list(c.index),
        "domain": _quotient_to_json(c.domain),
        "obstruction_dim": c.obstruction_dim,
        "obstruction_action": {
            g: m.to_json() for g, m in c.obstruction_action.items()
        },
        "obstruction_points": [_vec_to_json(p) for p in c.obstruction_points],
        "section_samples": [_vec_to_json(v) for v in c.section_samples],
        "footprint_map": {str(i): lab for i, lab in c.footprint_map.items()},
        "tangent_dims": list(c.tangent_dims),
    }
    if c.section_asts is not None:
        out["section_asts"] = list(c.section_asts)
    return out


def _chart_from_json(d: dict) -> ChartModel:
    return ChartModel(
        index=tuple(d["index"]),
        domain=_quotient_from_json(d["domain"]),
        obstruction_dim=d["obstruction_dim"],
        obstruction_action={
            g: RationalMatrix.from_json(m)
            for g, m in d["obstruction_action"].items()
        },
        obstruction_points=tuple(
            _vec_from_json(p) for p in d["obstruction_points"]
        ),
        section_samples=tuple(_vec_from_json(v) for v in d["section_samples"]),
        footprint_map={int(i): lab for i, lab in d["footprint_map"].items()},
        section_asts=tuple(d["section_asts"]) if "section_asts" in d else None,
        tangent_dims=tuple(d["tangent_dims"]),
    )


def _change_to_json(c: CoordinateChangeModel) -> dict:
    out = {
        "source": list(c.source_index),
        "target": list(c.target_index),
        "tilde_indices": list(c.tilde_indices),
        "rho_idx": {str(k): v for k, v in c.rho_idx.items()},
        "phi_hat": c.phi_hat.to_json(),
        "tilde_tangent_dims": list(c.tilde_tangent_dims),
    }
    if c.rho_asts is not None:
        out["rho_asts"] = list(c.rho_asts)
    if c.domain_pred is not None:
        out["domain_pred"] = c.domain_pred
    if c.lifted_pred is not None:
        out["lifted_pred"] = c.lifted_pred
    return out


def _change_from_json(d: dict) -> CoordinateChangeModel:
    return CoordinateChangeModel(
        source_index=tuple(d["source"]),
        target_index=tuple(d["target"]),
        tilde_indices=tuple(d["tilde_indices"]),
        rho_idx={int(k): v for k, v in d["rho_idx"].items()},
        phi_hat=RationalMatrix.from_json(d["phi_hat"]),
        rho_asts=tuple(d["rho_asts"]) if "rho_asts" in d else None,
        domain_pred=d.get("domain_pred"),
        lifted_pred=d.get("lifted_pred"),
        tilde_tangent_dims=tuple(d["tilde_tangent_dims"]),
    )


def _metric_key_to_json(key: tuple) -> list:
    (I, ci) = key
    return [_index_key(I), ci]


def atlas_to_json(atlas: AtlasModel) -> dict:
    out = {
        "schema": SCHEMA,
        "x_samples": list(atlas.x_labels),
        "cover": {str(i): sorted(labels) for i, labels in atlas.cover.items()},
        "charts": {
            _index_key(I): _chart_to_json(c) for I, c in atlas.charts.items()
        },
        "changes": [
            _change_to_json(c)
            for (_, _), c in sorted(atlas.changes.items())
        ],
    }
    if atlas.metric is not None:
        out["metric"] = [
            _metric_key_to_json(a) + _metric_key_to_json(b) + [rat_str(d)]
            for (a, b), d in sorted(atlas.metric.items())
        ]
    return out


def atlas_from_json(data: dict) -> AtlasModel:
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema: {data.get('schema')!r}")
    charts = {
        _index_from_key(k): _chart_from_json(c) for k, c in data["charts"].items()
    }
    changes = {}
    for cd in data["changes"]:
        c = _change_from_json(cd)
        changes[(c.source_index, c.target_index)] = c
    metric = None
    if "metric" in data:
        metric = {}
        for entry in data["metric"]:
            ka = (_index_from_key(entry[0]), entry[1])
            kb = (_index_from_key(entry[2]), entry[3])
            metric[(ka, kb)] = parse_rat(entry[4])
    return AtlasModel(
        x_labels=tuple(data["x_samples"]),
        cover={int(i): frozenset(labels) for i, labels in data["cover"].items()},
        charts=charts,
        changes=changes,
        metric=metric,
    )
