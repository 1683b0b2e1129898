"""Chart/atlas data model, validators, categories and realizations.

Manifold-level data is modeled by finite group-stable sample clouds with
exact rational coordinates plus optional membership predicates and smooth
expression ASTs.  All set-theoretic conditions (coverings, cocycle
conditions, tameness, category axioms) are verified extensionally on the
sample model; smooth data enters only through derivative evaluations.

Conventions
-----------
* Chart indices are sorted tuples of basic-chart labels (ints).
* Group elements are int indices.  The isotropy group of a multi-chart
  index ``I`` is the product of the basic groups, its element names
  joined by ``"|"`` in sorted index order; names are read only at the
  JSON boundary and in witnesses.  The canonical projections ρ^Γ_{JI}
  are int arrays computed once per atlas (:attr:`AtlasModel.projection`);
  kernels and lifts are read off them.
* Composition of morphisms is diagrammatic: ``compose(f, g)`` is defined
  when ``target(f) == source(g)`` and represents "f then g".
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .exterior_engine import eliminate, parse_rat, rat_str
from .expressions import compile_vector, eval_pred, evaluate_until_raise

__all__ = [
    "TAU_RANK",
    "LOOSE_TOL",
    "CheckReport",
    "FiniteGroup",
    "trivial_group",
    "cyclic_group",
    "product_group",
    "join_label",
    "GroupQuotientModel",
    "ChartModel",
    "CoordinateChangeModel",
    "RationalArray",
    "AtlasModel",
    "FiniteCategory",
    "PairIndex",
    "check_group_quotient",
    "check_chart",
    "check_group_covering",
    "check_coordinate_change",
    "check_cocycle",
    "check_tame_and_filtration",
    "check_atlas_model",
    "build_categories",
    "CategoriesResult",
    "check_category",
    "composition_table",
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


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on the element indices ``0 .. n-1``.

    ``table[a, b]`` is the index of a·b, or ``-1`` where the product is no
    element; ``identity`` is an index.  ``elements`` holds the names, which
    are read only where a witness or a ``vfc-atlas/1`` document is written
    and parsed where a document is read.
    """

    elements: tuple[str, ...]
    table: np.ndarray  # int (n, n)
    identity: int

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """Per element its inverse, ``-1`` where it has none."""
        hit = self.table == self.identity
        return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    @property
    def order(self) -> int:
        return len(self.elements)

    def validate(self) -> CheckReport:
        rep = CheckReport("finite_group")
        names, n, table, e = self.elements, self.order, self.table, self.identity
        if not 0 <= e < n:
            rep.fail("identity_missing", identity=e)
            return rep
        every = np.arange(n)
        for a in np.flatnonzero((table[e] != every) | (table[:, e] != every)).tolist():
            rep.fail("identity_law", element=names[a])
        for a in np.flatnonzero(self.inverse < 0).tolist():
            rep.fail("no_inverse", element=names[a])
        for a, b in np.argwhere((table < 0) | (table >= n)).tolist():
            rep.fail("not_closed", pair=(names[a], names[b]))
        if rep.ok:
            bad = np.argwhere(table[table] != table[every[:, None, None], table[None]])
            if bad.size:
                rep.fail("associativity", triple=tuple(names[i] for i in bad[0]))
        return rep


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def cyclic_group(n: int, prefix: str = "g") -> FiniteGroup:
    """Z_n with elements ``e, g1, ..., g{n-1}``; element k is g^k."""
    names = tuple("e" if k == 0 else f"{prefix}{k}" for k in range(n))
    every = np.arange(n)
    return FiniteGroup(names, (every[:, None] + every[None, :]) % n, 0)


def join_label(parts: Sequence[str]) -> str:
    return "|".join(parts)


def product_group(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Direct product; element k has the factor indices
    ``np.unravel_index(k, orders)`` and is named by joining the factor
    names with ``|`` in factor order."""
    if len(factors) == 1:
        return factors[0]
    orders = [g.order for g in factors]
    names = tuple(
        join_label(combo) for combo in itertools.product(*[g.elements for g in factors])
    )
    coords = np.indices(orders).reshape(len(factors), -1)
    table = np.zeros((len(names), len(names)), dtype=np.int64)
    for g, c, order in zip(factors, coords, orders):
        part = g.table[c[:, None], c[None, :]]
        table = np.where((table < 0) | (part < 0), -1, table * order + part)
    identity = int(np.ravel_multi_index([g.identity for g in factors], orders))
    return FiniteGroup(names, table, identity)


# ---------------------------------------------------------------------------
# group quotients
# ---------------------------------------------------------------------------


@dataclass
class GroupQuotientModel:
    """A finite sample model of a group quotient (U, Γ).

    ``perms`` is an int (|Γ|, samples) array: row g is the left action of
    element g on sample indices.  ``affine`` optionally gives the
    coordinate-level maps ``x ↦ A·x + b`` realizing the elements: the rows
    of [A | b] per element, in element order, kept as one (|Γ|, d, d + 1)
    :class:`RationalArray`.  The orbits are computed once, on first use;
    the model is not changed after that.
    """

    points: tuple[Vec, ...]
    group: FiniteGroup
    perms: np.ndarray
    affine: RationalArray | None = None
    membership: list | None = None  # predicate AST

    def __post_init__(self):
        self.perms = np.asarray(self.perms, np.int64).reshape(self.group.order, len(self.points))
        if self.affine is not None:
            d = len(self.points[0]) if self.points else 0
            self.affine = RationalArray.of(self.affine, "affine", (self.group.order, d, d + 1))

    def act(self, g: int, idx: int) -> int:
        return int(self.perms[g, idx])

    def orbit(self, idx: int) -> tuple[int, ...]:
        return tuple(sorted(set(self.perms[:, idx].tolist())))

    def stabilizer(self, idx: int) -> np.ndarray:
        return np.flatnonzero(self.perms[:, idx] == idx)

    @functools.cached_property
    def _orbits(self) -> tuple[list, dict]:
        classes, class_of = [], {}
        for i in range(len(self.points)):
            if i not in class_of:
                classes.append(self.orbit(i))
                class_of.update(dict.fromkeys(classes[-1], len(classes) - 1))
        return classes, class_of

    def classes(self) -> list[tuple[int, ...]]:
        return self._orbits[0]

    def class_index_of(self) -> dict:
        """point index -> quotient class index (classes ordered by min)."""
        return self._orbits[1]


def check_group_quotient(model: GroupQuotientModel) -> CheckReport:
    """Group-action laws, quotient classes and stabilizers."""
    rep = CheckReport("group_quotient")
    group, perms, names = model.group, model.perms, model.group.elements
    rep.merge(group.validate())
    ids = np.arange(len(model.points))
    if 0 <= group.identity < group.order and (perms[group.identity] != ids).any():
        rep.fail("identity_not_trivial")
    for g in np.flatnonzero((np.sort(perms, axis=1) != ids).any(axis=1)).tolist():
        rep.fail("not_a_permutation", element=names[g])
    if rep.ok:
        bad = perms[group.table] != perms[:, perms]
        for g, h in np.argwhere(bad.any(axis=2)).tolist():
            rep.fail("action_law", pair=(names[g], names[h]), point=int(bad[g, h].argmax()))
    if model.affine is not None and rep.ok:
        # A·x + b = [A | b]·(x, 1) for every element and point at once
        shape = (len(model.points), model.affine.num.shape[2])
        points = RationalArray.of([(*p, 1) for p in model.points], "affine", shape)
        images = _matmul(points, model.affine.mT, "affine")
        moved = RationalArray(points.num[perms, :-1], points.den)
        bad = ~_equal(images, moved, "affine").all(axis=2)
        for g in np.flatnonzero(bad.any(axis=1)).tolist():
            rep.fail("affine_vs_permutation", element=names[g], point=int(bad[g].argmax()))
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
# exact rational arrays
# ---------------------------------------------------------------------------

INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class RationalArray:
    """Exact rationals as integers over one denominator: entry ``[i, ...]``
    is ``num[i, ...] / den``, with ``num`` an int64 array of any shape and
    ``den`` a positive int.

    :meth:`of` (from rational sequences) and :meth:`reduced` give lowest
    terms, where ``den`` is the lcm of the reduced denominators of the
    entries.  Every entry and
    ``den`` fit int64; the checks form products with :func:`_matmul` and
    compare with :func:`_equal`, which raise ``ValueError`` where an
    integer could leave int64.
    """

    num: np.ndarray
    den: int

    @classmethod
    def of(cls, values, where: str, shape: tuple) -> "RationalArray":
        """The rationals ``values`` (nested sequences or arrays of numbers)
        in lowest terms, or a ``RationalArray`` as it is.

        ``shape`` may hold -1 for any length; empty ``values`` take
        ``shape`` with 0 for -1.  Raises ``ValueError`` naming ``where``
        for another shape and for a numerator or denominator that does not
        fit int64."""
        if isinstance(values, RationalArray):
            return cls(_shaped(values.num, shape, where), values.den)
        entries = _shaped(np.array(values, dtype=object), shape, where)
        flat = [f if type(f) is Fraction else Fraction(f) for f in entries.ravel().tolist()]
        den = math.lcm(1, *(f.denominator for f in flat))
        nums = [f.numerator * (den // f.denominator) for f in flat]
        if max([den, *map(abs, nums)]) > INT64_MAX:
            raise ValueError(f"{where}: the entries over their common denominator "
                             f"{den} do not fit int64")
        return cls(np.array(nums, dtype=np.int64).reshape(entries.shape), den)

    @classmethod
    def reduced(cls, num: np.ndarray, den: int) -> "RationalArray":
        """``num / den`` with the common factor of all entries and ``den``
        divided out."""
        g = math.gcd(den, int(np.gcd.reduce(num, axis=None)))
        return cls(num // g, den // g)

    @property
    def mT(self) -> "RationalArray":
        """The transpose of the last two axes."""
        return RationalArray(np.swapaxes(self.num, -1, -2), self.den)

    def fractions(self) -> list:
        """The entries as nested lists of ``Fraction``."""
        return self._nest([Fraction(n, self.den) for n in self.num.ravel().tolist()])

    def floats(self) -> np.ndarray:
        """The entries as floats, each the float nearest its rational."""
        flat = [n / self.den for n in self.num.ravel().tolist()]
        return np.array(flat, dtype=float).reshape(self.num.shape)

    def strings(self) -> list:
        """The entries as nested lists of ``"p/q"`` in lowest terms."""
        g = np.gcd(self.num, self.den)
        return self._nest([
            f"{p}/{q}"
            for p, q in zip((self.num // g).ravel().tolist(), (self.den // g).ravel().tolist())
        ])

    def _nest(self, flat: list) -> list:
        return np.array(flat, dtype=object).reshape(self.num.shape).tolist()

    def to_json(self) -> dict:
        """A matrix as ``{"rows", "cols", "entries"}``, the entries row by
        row as ``"p/q"`` in lowest terms."""
        rows, cols = self.num.shape
        return {"rows": rows, "cols": cols, "entries": [x for r in self.strings() for x in r]}

    @classmethod
    def from_json(cls, data: dict, where: str) -> "RationalArray":
        """The matrix of :meth:`to_json`.  Sizes that are not nonnegative
        integers, an entry count other than rows * cols, and 0 rows over
        nonzero cols raise ``ValueError`` naming ``where`` and the field."""
        rows, cols, entries = data["rows"], data["cols"], data["entries"]
        for name, size in (("rows", rows), ("cols", cols)):
            if type(size) is not int or size < 0:
                raise ValueError(f"{where}: {name} is {size!r}, not a nonnegative integer")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{where}: entries has {len(entries)} values, not rows * cols = {rows * cols}"
            )
        if rows == 0 and cols:
            raise ValueError(f"{where}: cols is {cols} over 0 rows")
        flat = cls.of([parse_rat(x) for x in entries], where, (rows * cols,))
        return cls(flat.num.reshape(rows, cols), flat.den)

    def threshold(self, radius) -> int:
        """The largest numerator m with m/den inside the closed ball of
        ``radius``.  An exact radius gives ⌊radius·den⌋; a float radius
        keeps the float test ``float(m/den) <= radius + 1e-15``, which is
        monotone in m."""
        if not isinstance(radius, float):
            return math.floor(Fraction(radius) * self.den)
        bound = radius + 1e-15
        m = math.floor(Fraction(bound) * self.den)
        while float(Fraction(m + 1, self.den)) <= bound:
            m += 1
        return m


def _shaped(array: np.ndarray, shape: tuple, where: str) -> np.ndarray:
    """``array`` checked against ``shape`` (-1 for any length); an empty
    array of too few axes takes ``shape`` with 0 for -1."""
    empty = tuple(max(n, 0) for n in shape)
    if array.size == 0 and array.ndim != len(shape) and 0 in empty:
        array = array.reshape(empty)
    if array.ndim != len(shape) or any(n not in (-1, k) for n, k in zip(shape, array.shape)):
        raise ValueError(f"{where}: not an array of shape {shape} (-1: any length)")
    return array


def _fits(bound: int, where: str) -> None:
    if bound > INT64_MAX:
        raise ValueError(f"{where}: an exact product or comparison would leave int64")


def _largest(x: RationalArray) -> int:
    return int(np.abs(x.num).max()) if x.num.size else 0


def _matmul(a: RationalArray, b: RationalArray, where: str) -> RationalArray:
    """``a @ b`` exactly (numpy broadcasting); raises ``ValueError`` naming
    ``where`` when the shapes do not compose or an entry could leave int64."""
    if a.num.shape[-1] != b.num.shape[-2]:
        raise ValueError(f"{where}: shapes {a.num.shape} and {b.num.shape} do not compose")
    _fits(max(a.num.shape[-1] * _largest(a) * _largest(b), a.den * b.den), where)
    return RationalArray(a.num @ b.num, a.den * b.den)


def _scaled(x: RationalArray, den: int, where: str) -> np.ndarray:
    """The numerators of ``x`` over ``den``, a multiple of ``x.den``."""
    if den == x.den:
        return x.num
    _fits(max(_largest(x) * (den // x.den), den), where)
    return x.num * (den // x.den)


def _equal(x: RationalArray, y: RationalArray, where: str) -> np.ndarray:
    """Entrywise ``x == y``, exactly."""
    den = math.lcm(x.den, y.den)
    return _scaled(x, den, where) == _scaled(y, den, where)


def _lookup(rows: RationalArray, table: RationalArray, where: str) -> np.ndarray:
    """Per vector of ``rows`` (..., m) the index of the equal row of
    ``table`` (k, m), the last if several, or -1."""
    den = math.lcm(rows.den, table.den)
    index = {row: i for i, row in enumerate(map(tuple, _scaled(table, den, where).tolist()))}
    *lead, m = rows.num.shape
    flat = _scaled(rows, den, where).reshape(math.prod(lead), m).tolist()
    return _ints([index.get(tuple(r), -1) for r in flat]).reshape(lead)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


@dataclass
class ChartModel:
    """A Kuranishi chart on a finite sample model.

    The obstruction data are :class:`RationalArray` s: ``obstruction_action``
    (|Γ|, m, m), one matrix per group element in element order;
    ``obstruction_points`` (k, m), the grid; ``section_samples`` (n, m),
    the declared (exact rational) values of the section at the n domain
    samples.  The constructor also takes rational sequences (an empty
    action when m is 0) and converts them once; it raises ``ValueError``
    naming the chart for a wrong shape or for data that do not fit int64.
    ``section_asts`` optionally give the smooth formula used for
    derivatives and zero finding.  ``footprint_map`` sends zero-sample
    indices to footprint labels.
    """

    index: tuple
    domain: GroupQuotientModel
    obstruction_dim: int
    obstruction_action: RationalArray
    obstruction_points: RationalArray
    section_samples: RationalArray
    footprint_map: dict  # zero sample index -> footprint label
    section_asts: tuple | None = None
    tangent_dims: tuple = ()

    def __post_init__(self):
        where, m = f"chart {self.index}", self.obstruction_dim
        self.obstruction_action = RationalArray.of(
            self.obstruction_action, f"{where}: obstruction_action",
            (self.domain.group.order, m, m),
        )
        self.obstruction_points = RationalArray.of(
            self.obstruction_points, f"{where}: obstruction_points", (-1, m)
        )
        self.section_samples = RationalArray.of(
            self.section_samples, f"{where}: section_samples", (len(self.domain.points), m)
        )

    @property
    def group(self) -> FiniteGroup:
        return self.domain.group

    def zero_sample_indices(self) -> list[int]:
        return np.flatnonzero(~self.section_samples.num.any(axis=1)).tolist()

    @functools.cached_property
    def grid_action(self) -> np.ndarray:
        """Γ on grid indices: ``grid_action[γ, e]`` is the index of γ·e in
        ``obstruction_points`` (the last, if it is there twice), or -1
        where γ·e is no grid point."""
        where, grid = f"chart {self.index}", self.obstruction_points
        return _lookup(_matmul(grid, self.obstruction_action.mT, where), grid, where)


def check_chart(atlas: "AtlasModel", I: tuple) -> CheckReport:
    """Chart-level invariants: action laws, equivariance, footprints."""
    chart = atlas.charts[I]
    rep = CheckReport(f"chart {I}")
    rep.merge(check_group_quotient(chart.domain))
    g0, names = chart.group, chart.group.elements
    m, where = chart.obstruction_dim, f"chart {I}"
    act, grid, samples = chart.obstruction_action, chart.obstruction_points, chart.section_samples
    if m > 0:  # E_I = 0 has one vector, on which all of this holds
        if (act.num[g0.identity] != act.den * np.eye(m, dtype=np.int64)).any():
            rep.fail("obstruction_identity_action")
        # act[a]·act[b] against act[a·b], the first failing b per a
        products = _matmul(RationalArray(act.num[:, None], act.den), act, where)
        bad = (g0.table < 0) | ~_equal(
            products, RationalArray(act.num[g0.table], act.den), where
        ).all(axis=(2, 3))
        for a in np.flatnonzero(bad.any(axis=1)).tolist():
            rep.fail("obstruction_action_law", pair=(names[a], names[bad[a].argmax()]))
        outside = chart.grid_action < 0
        for g in np.flatnonzero(outside.any(axis=1)).tolist():
            vector = tuple(grid.fractions()[outside[g].argmax()])
            rep.fail("obstruction_grid_not_stable", element=names[g], vector=vector)
        # section equivariance on declared samples: s(γx) = γ·s(x)
        moved = RationalArray(samples.num[chart.domain.perms], samples.den)
        bad = ~_equal(_matmul(samples, act.mT, where), moved, where).all(axis=2)
        for g in np.flatnonzero(bad.any(axis=1)).tolist():
            rep.fail("section_not_equivariant", element=names[g], point=int(bad[g].argmax()))
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
        section = compile_vector(chart.section_asts, ())
        got, _, error = evaluate_until_raise(section, chart.domain.points)
        err = _max_abs_error(got, samples.floats())
        bad = np.flatnonzero(err > LOOSE_TOL)
        if bad.size:
            rep.fail("section_ast_inconsistent", point=int(bad[0]), error=float(err[bad[0]]))
        elif error is not None:
            raise error
    return rep


def _max_abs_error(got: np.ndarray, want) -> np.ndarray:
    """Per row of ``got``, the largest |got − want| over the shorter row:
    0.0 for an empty row, and a NaN difference is passed over."""
    want = np.atleast_2d(np.asarray(want, dtype=float))[: len(got)]
    k = min(got.shape[1], want.shape[1])
    return np.fmax.reduce(np.abs(got[:, :k] - want[:, :k]), axis=1, initial=0.0)


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


@dataclass
class CoordinateChangeModel:
    """A coordinate change from chart I into chart J (I ⊊ J).

    ``tilde_indices`` enumerates the lifted domain Ũ_IJ as a subset of the
    target chart's samples; ``rho_idx`` is the sample-level covering map
    into the source chart; ``tilde_tangent_dims`` are the target tangent
    coordinates spanning the tangent space of Ũ_IJ.  ``phi_hat`` is a
    (m_J, m_I) :class:`RationalArray`; the constructor also takes rational
    rows and converts them once.
    """

    source_index: tuple
    target_index: tuple
    tilde_indices: tuple
    rho_idx: dict  # target sample idx -> source sample idx
    phi_hat: RationalArray
    rho_asts: tuple | None = None
    domain_pred: list | None = None  # on source chart coordinates (Ū_IJ lift)
    lifted_pred: list | None = None  # on target chart coordinates (Ũ_IJ)
    tilde_tangent_dims: tuple = ()

    def __post_init__(self):
        self.phi_hat = RationalArray.of(self.phi_hat, f"{self._name}: phi_hat", (-1, -1))

    @property
    def _name(self) -> str:
        return f"coordinate change {self.source_index}->{self.target_index}"

    @functools.cached_property
    def image_annihilator(self) -> np.ndarray:
        """An int matrix N whose kernel is im φ̂: v ∈ im φ̂ exactly when
        N·v = 0.  Its rows are a basis of the left null space of φ̂, read
        off the reduced row-echelon form R/d of φ̂ᵀ and made primitive."""
        m_J = self.phi_hat.num.shape[0]
        red = eliminate(self.phi_hat.mT.num)
        rows = []
        for free in sorted(set(range(m_J)) - set(red.pivots)):
            v = [0] * m_J
            v[free] = red.scale
            for r, p in enumerate(red.pivots):
                v[p] = -red.rref[r][free]
            g = math.gcd(*v)
            rows.append([x // g for x in v])
        return RationalArray.of(rows, f"{self._name}: image annihilator", (-1, m_J)).num


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
    names = tgt.group.elements
    perms = tgt.domain.perms
    # Ũ_IJ is Γ_J-invariant
    moved_out = np.flatnonzero(~np.isin(perms[:, tilde], tilde).all(axis=1))
    if moved_out.size:
        rep.fail("tilde_not_invariant", element=names[moved_out[0]])
    kernel = atlas.kernel(I, J)
    rep.details["kernel_order"] = len(kernel)
    for g, fixed in zip(kernel.tolist(), perms[kernel][:, tilde] == tilde):
        if g != tgt.group.identity and fixed.any():
            rep.fail("kernel_action_not_free", element=names[g], point=tilde[fixed.argmax()])
    # fibers of ρ are kernel orbits
    fibers: dict = {}
    for y in tilde:
        fibers.setdefault(change.rho_idx[y], set()).add(y)
    for x, fib in fibers.items():
        if len(fib) != len(kernel):
            rep.fail("fiber_size", source_point=x, size=len(fib))
            continue
        if set(perms[kernel, next(iter(fib))].tolist()) != fib:
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
    proj = atlas.projection[(I, J)]
    for y in tilde:
        mapped = proj[tgt.domain.stabilizer(y)].tolist()
        stab_I = src.domain.stabilizer(change.rho_idx[y]).tolist()
        if len(set(mapped)) != len(mapped) or set(mapped) != set(stab_I):
            rep.fail("stabilizer_not_isomorphic", point=y)
    return rep


def check_coordinate_change(atlas: "AtlasModel", I: tuple, J: tuple) -> CheckReport:
    """Equivariance, section compatibility, and the tangent bundle condition."""
    rep = CheckReport(f"coordinate_change {I}->{J}")
    src = atlas.charts[I]
    tgt = atlas.charts[J]
    change = atlas.changes[(I, J)]
    tilde = list(change.tilde_indices)
    rep.merge(check_group_covering(atlas, I, J))
    names, proj, rho = tgt.group.elements, atlas.projection[(I, J)], change.rho_idx
    # equivariance of ρ w.r.t. the canonical projection ρ^Γ
    for g, (perm, perm_I) in enumerate(
        zip(tgt.domain.perms.tolist(), src.domain.perms[proj].tolist())
    ):
        for y in tilde:
            if rho[perm[y]] != perm_I[rho[y]]:
                rep.fail("rho_not_equivariant", element=names[g], point=y)
                break
    # φ̂ injective with equivariant cokernel data
    m_I, m_J = src.obstruction_dim, tgt.obstruction_dim
    phi, where = change.phi_hat, change._name
    if phi.num.shape != (m_J, m_I):
        rep.fail("phi_hat_shape")
        return rep
    if m_I > 0 and eliminate(phi.num).rank != m_I:
        rep.fail("cokernel", reason="phi_hat not injective")
    if m_I > 0 and m_J > 0:
        lhs = _matmul(tgt.obstruction_action, phi, where)
        act_I = src.obstruction_action
        rhs = _matmul(phi, RationalArray(act_I.num[proj], act_I.den), where)
        bad = ~_equal(lhs, rhs, where).all(axis=(1, 2))
        if bad.any():
            rep.fail("phi_hat_not_equivariant", element=names[bad.argmax()])
    # section compatibility at samples: s_J∘φ̃ = φ̂∘s_I∘ρ (φ̃ = inclusion)
    s_I, s_J = src.section_samples, tgt.section_samples
    pulled = RationalArray(s_I.num[_ints([rho[y] for y in tilde])], s_I.den)
    got = RationalArray(s_J.num[_ints(tilde)], s_J.den)
    bad = ~_equal(_matmul(pulled, phi.mT, where), got, where).all(axis=1)
    if bad.any():
        rep.fail("section_compatibility", point=tilde[bad.argmax()])
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
            dims = list(tgt.tangent_dims)
            section = compile_vector(tgt.section_asts, dims)
            columns = [dims.index(d) for d in complement]
            points = [tgt.domain.points[y] for y in tilde]
            _, jac, error = evaluate_until_raise(section, points)
            blocks = np.zeros((len(jac), m_J, m_J))
            blocks[:, :, :m_I] = phi.floats()
            blocks[:, :, m_I:] = jac[:, :, columns]
            finite = np.isfinite(blocks).all(axis=(1, 2))
            svs = np.zeros((len(blocks), m_J))
            svs[finite] = np.linalg.svd(blocks[finite], compute_uv=False)
            bad = ~finite | (svs[:, -1] <= TAU_RANK * np.maximum(svs[:, 0], 1.0))
            if bad.any():
                k = int(bad.argmax())  # a non-finite block has no singular values
                sigma = float(svs[k, -1]) if finite[k] else None
                rep.fail("tangent_bundle_condition", point=tilde[k], sigma_min=sigma)
            elif error is not None:
                raise error
    # smooth-level ρ vs sample-level ρ (loose tolerance; samples are
    # rational approximations of the smooth model)
    if change.rho_asts is not None:
        rho_f = compile_vector(change.rho_asts, ())
        got, _, error = evaluate_until_raise(rho_f, [tgt.domain.points[y] for y in tilde])
        err = _max_abs_error(got, [src.domain.points[rho[y]] for y in tilde[: len(got)]])
        bad = np.flatnonzero(err > LOOSE_TOL)
        if bad.size:
            rep.fail("rho_ast_inconsistent", point=tilde[bad[0]], error=float(err[bad[0]]))
        elif error is not None:
            raise error
    return rep


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
    metric: RationalArray | None = None  # on intermediate samples

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

    @functools.cached_property
    def key_offset(self) -> dict:
        """Index I -> position of its first key ``(I, 0)`` in
        :meth:`intermediate_keys`, so key (I, c) is metric row
        ``key_offset[I] + c``."""
        offset, start = {}, 0
        for I in self.index_sets():
            offset[I] = start
            start += len(self.charts[I].domain.classes())
        return offset

    @functools.cached_property
    def product_index(self) -> dict:
        """Index I -> per element of Γ_I its index in the product of the
        basic groups of I: the product element of the same name, or
        ``None`` for a chart whose element names are not the product's."""
        out = {}
        for I, chart in self.charts.items():
            product = product_group([self.charts[(i,)].group for i in I])
            where = {name: k for k, name in enumerate(product.elements)}
            index = [where.get(name, -1) for name in chart.group.elements]
            out[I] = _ints(index) if sorted(index) == list(range(product.order)) else None
        return out

    @functools.cached_property
    def projection(self) -> dict:
        """(I, J) -> ρ^Γ_{JI} for index sets I ⊆ J: per element of Γ_J the
        index in Γ_I of its I-components.  Raises ``ValueError`` when a
        chart's element names are not those of the product."""
        coords, orders, element = {}, {}, {}
        for I, index in self.product_index.items():
            if index is None:
                raise ValueError(f"chart {I}: its group is not the product of its basic groups")
            orders[I] = [self.charts[(i,)].group.order for i in I]
            coords[I] = dict(zip(I, np.unravel_index(index, orders[I])))
            element[I] = np.argsort(index)  # product index -> element of Γ_I
        return {
            (I, J): element[I][np.ravel_multi_index([coords[J][i] for i in I], orders[I])]
            for J in self.charts
            for I in self.charts
            if set(I) <= set(J)
        }

    def kernel(self, I: tuple, J: tuple) -> np.ndarray:
        """Γ_{J∖I} as the elements of Γ_J that ρ^Γ_{JI} sends to the identity."""
        return np.flatnonzero(self.projection[(I, J)] == self.charts[I].group.identity)

    @functools.cached_property
    def closure_radius(self) -> Fraction | None:
        """Half the smallest positive metric distance, or ``None`` without
        one; read once per atlas, whose metric is never changed."""
        if self.metric is None:
            return None
        positive = self.metric.num[self.metric.num > 0]
        if not positive.size:
            return None
        return Fraction(int(positive.min()), 2 * self.metric.den)


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
        want = product_group([c.group for c in factors]).table
        index, got = atlas.product_index[I], chart.group.table
        if index is None or not (
            (got >= 0) & (index[got] == want[np.ix_(index, index)])
        ).all():
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
                    want = np.zeros((chart.obstruction_dim, m_i), dtype=np.int64)
                    want[offset:offset + m_i] = np.eye(m_i, dtype=np.int64)
                    phi = change.phi_hat
                    if phi.num.shape != want.shape or (phi.num != want * phi.den).any():
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
        if not _composes(cJK.phi_hat, cIJ.phi_hat, cIK.phi_hat, f"cocycle {I}->{J}->{K}"):
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


def _composes(after: RationalArray, before: RationalArray, whole: RationalArray,
              where: str) -> bool:
    """``after @ before == whole``, shapes included."""
    (rows, inner), (inner2, cols) = after.num.shape, before.num.shape
    if inner != inner2 or (rows, cols) != whole.num.shape:
        return False
    return bool(_equal(_matmul(after, before, where), whole, where).all())


def check_tame_and_filtration(atlas: AtlasModel) -> CheckReport:
    """Tameness identities and bundle-filtration identities on samples."""
    rep = CheckReport("tame_and_filtration")
    indices = atlas.index_sets()
    # the identities below are stated through every coordinate change
    missing = [
        (I, J)
        for I in indices
        for J in indices
        if set(I) < set(J) and (I, J) not in atlas.changes
    ]
    for pair in missing:
        rep.fail("missing_change", pair=pair)
    if missing:
        return rep
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
    in_image: dict = {}  # (I, J) -> per sample of chart J: s_J ∈ im φ̂_IJ
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
                if (I, J) not in in_image:
                    samples = chart_J.section_samples
                    if I == J or chart_J.obstruction_dim == 0:
                        in_image[(I, J)] = np.ones(len(samples.num), dtype=bool)
                    else:
                        change = atlas.changes[(I, J)]
                        N = RationalArray(change.image_annihilator, 1)
                        hit = _matmul(N, samples.mT, change._name).num
                        in_image[(I, J)] = ~hit.any(axis=0)
                cls_J = chart_J.domain.class_index_of()
                rep_point: dict = {}
                for idx, c in cls_J.items():
                    rep_point.setdefault(c, idx)
                rhs = {
                    c for c in _ubar_classes(atlas, J, K) if in_image[(I, J)][rep_point[c]]
                }
                if lhs != rhs:
                    rep.fail("pushforward_identity", indices=(I, J, K))
    # filtration: φ̂-images of the obstruction grids intersect additively
    for J in indices:
        chart_J = atlas.charts[J]
        m_J = chart_J.obstruction_dim
        if m_J == 0:
            continue
        subs = [I for I in indices if set(I) <= set(J)]
        where = f"chart {J}"
        images = {(): RationalArray(np.zeros((1, m_J), dtype=np.int64), 1)}
        for I in subs:
            grid = atlas.charts[I].obstruction_points
            images[I] = grid if I == J else _matmul(grid, atlas.changes[(I, J)].phi_hat.mT, where)
        den = math.lcm(*(v.den for v in images.values()))
        image = {
            I: frozenset(map(tuple, _scaled(v, den, where).tolist()))
            for I, v in images.items()
        }
        for I in subs + [()]:
            for H in subs + [()]:
                meet = tuple(sorted(set(I) & set(H)))
                if meet != () and meet not in declared:
                    rep.fail("filtration_index_missing", indices=(I, H, J))
                    continue
                if image[I] & image[H] != image[meet]:
                    rep.fail("filtration_intersection", indices=(I, H, J))
    return rep


# ---------------------------------------------------------------------------
# categories
# ---------------------------------------------------------------------------


#: composable triples per step of the associativity check; this bounds the
#: memory of its index arrays, which would otherwise grow with the triples
TRIPLE_CHUNK = 1 << 14


def _ints(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each run of ``counts`` starts."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class PairIndex:
    """The composable pairs "f then g" (``tgt[f] == src[g]``) of morphisms
    with endpoints ``src``, ``tgt``, in CSR order: f in morphism order and,
    for each f, g over the morphisms out of ``tgt[f]`` in morphism order.

    Pair (f, g) sits at ``pair_start[f] + rank[g]``, where ``rank[g]`` is
    g's position among the morphisms out of ``src[g]``.  An endpoint
    outside the objects belongs to no pair.
    """

    by_source: np.ndarray  # morphisms sorted by source, stably
    out_start: np.ndarray  # object -> start of its morphisms in by_source
    rank: np.ndarray
    pair_start: np.ndarray
    f: np.ndarray  # pair -> f
    g: np.ndarray  # pair -> g

    @classmethod
    def of(cls, n_objects: int, src: np.ndarray, tgt: np.ndarray) -> "PairIndex":
        inside = np.flatnonzero((src >= 0) & (src < n_objects))
        by_source = inside[np.argsort(src[inside], kind="stable")]
        out_degree = np.bincount(src[by_source], minlength=n_objects)
        out_start = _offsets(out_degree)
        rank = np.zeros(len(src), dtype=np.int64)
        rank[by_source] = np.arange(len(by_source)) - out_start[src[by_source]]
        t_inside = (tgt >= 0) & (tgt < n_objects)
        row = np.append(out_degree, 0)[np.where(t_inside, tgt, n_objects)]
        pair_start = _offsets(row)
        f = np.repeat(np.arange(len(src), dtype=np.int64), row)
        g = by_source[out_start[tgt[f]] + np.arange(len(f)) - pair_start[f]]
        return cls(by_source, out_start, rank, pair_start, f, g)

    def at(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Positions of the composable pairs (f[i], g[i])."""
        return self.pair_start[f] + self.rank[g]

    def triple_counts(self) -> np.ndarray:
        """Per pair (f, g): the composable triples (f, g, h), one per h out
        of ``tgt[g]``, which is the number of pairs that start with g."""
        return np.diff(self.pair_start)[self.g]


@dataclass(eq=False)
class FiniteCategory:
    """A finite category on int indices, with its composition table.

    Morphism ``m`` runs from object ``src[m]`` to object ``tgt[m]``, and
    ``identity[o]`` is the identity morphism of object ``o``.  Composition
    is diagrammatic: "f then g" is defined when ``tgt[f] == src[g]``.
    ``comp[p]`` is the composite of the p-th composable pair of ``pairs``
    (CSR order, see :class:`PairIndex`).

    Values out of range are faults that :func:`check_category` reports: an
    endpoint outside the objects, a composite ``-1`` (undefined) or outside
    the morphisms, an identity ``-1`` (none declared) or outside the
    morphisms.  ``defects`` keeps the faults of label data that the arrays
    cannot hold (see :meth:`from_labels`) as ``(clause, witness)``.

    ``objects`` and ``morphisms`` are the labels.  ``source``, ``target``,
    ``compose`` and ``identity_of`` are read-only label views of the
    arrays, built when first read.
    """

    objects: tuple
    morphisms: tuple
    src: np.ndarray
    tgt: np.ndarray
    identity: np.ndarray
    pairs: PairIndex
    comp: np.ndarray
    defects: tuple = ()

    @classmethod
    def from_labels(cls, objects, morphisms, source: dict, target: dict,
                    compose: dict, identity_of: dict) -> "FiniteCategory":
        """The category of label data; ``compose[(f, g)]`` is "f then g".

        An endpoint that is not an object, a composable pair missing from
        ``compose`` and an identity that is not a morphism are kept in the
        arrays.  A ``compose`` entry that is not a composable pair of
        morphisms, or whose composite is not a morphism, and an
        ``identity_of`` entry that is not object -> morphism are kept, the
        first of each kind in ``compose`` and ``identity_of`` order, in
        ``defects``.
        """
        objects, morphisms = tuple(objects), tuple(morphisms)
        obj_idx = {o: i for i, o in enumerate(objects)}
        mor_idx = {m: i for i, m in enumerate(morphisms)}
        src_l = [obj_idx.get(source.get(m), -1) for m in morphisms]
        tgt_l = [obj_idx.get(target.get(m), -1) for m in morphisms]
        src, tgt = _ints(src_l), _ints(tgt_l)
        pairs = PairIndex.of(len(objects), src, tgt)
        pair_start, rank = pairs.pair_start.tolist(), pairs.rank.tolist()
        comp = np.full(len(pairs.f), -1, dtype=np.int64)
        compose_defect = identity_defect = None
        for (f, g), h in compose.items():
            fi, gi, hi = mor_idx.get(f), mor_idx.get(g), mor_idx.get(h)
            if fi is None or gi is None or hi is None:
                clause = "compose_outside_morphisms"
            elif tgt_l[fi] != src_l[gi] or src_l[gi] < 0:
                clause = "compose_of_non_composable"
            else:
                comp[pair_start[fi] + rank[gi]] = hi
                continue
            compose_defect = compose_defect or (clause, {"pair": (f, g)})
        identity = np.full(len(objects), -1, dtype=np.int64)
        for o, m in identity_of.items():
            oi, mi = obj_idx.get(o), mor_idx.get(m)
            if oi is not None:
                identity[oi] = len(morphisms) if mi is None else mi
            if oi is None or mi is None:
                identity_defect = identity_defect or ("identity_missing", {"object": o})
        defects = tuple(d for d in (compose_defect, identity_defect) if d is not None)
        return cls(objects, morphisms, src, tgt, identity, pairs, comp, defects)

    def composite(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The composites "f[i] then g[i]": ``-1`` where undefined and
        ``-2`` where the pair is not composable."""
        ok = self.tgt[f] == self.src[g]
        out = np.full(len(f), -2, dtype=np.int64)
        out[ok] = self.comp[self.pairs.at(f[ok], g[ok])]
        return out

    @functools.cached_property
    def source(self) -> MappingProxyType:
        return _label_view(self.morphisms, self.objects, self.src)

    @functools.cached_property
    def target(self) -> MappingProxyType:
        return _label_view(self.morphisms, self.objects, self.tgt)

    @functools.cached_property
    def identity_of(self) -> MappingProxyType:
        return _label_view(self.objects, self.morphisms, self.identity)

    @functools.cached_property
    def compose(self) -> MappingProxyType:
        """``{(f, g): "f then g"}`` over the defined composites, in CSR order."""
        m = self.morphisms
        defined = (self.comp >= 0) & (self.comp < len(m))
        return MappingProxyType({
            (m[f], m[g]): m[h]
            for f, g, h in zip(
                self.pairs.f[defined].tolist(),
                self.pairs.g[defined].tolist(),
                self.comp[defined].tolist(),
            )
        })


def _label_view(keys: tuple, values: tuple, index: np.ndarray) -> MappingProxyType:
    inside = (index >= 0) & (index < len(values))
    return MappingProxyType({
        keys[k]: values[v]
        for k, v in zip(np.flatnonzero(inside).tolist(), index[inside].tolist())
    })


def check_category(cat: FiniteCategory) -> CheckReport:
    """Category axioms of ``cat``, verified by exhaustion on its int arrays.

    The clauses are tried in order, and the first that fails is reported
    with its first witness, in morphism, CSR pair, object or triple order:
    endpoints; composites (the label faults of ``defects`` first, then
    composites outside the morphisms or with the wrong endpoints);
    composable pairs without a composite; identities (``defects`` first);
    the identity laws; associativity over every composable triple, checked
    ``TRIPLE_CHUNK`` triples at a time.
    """
    rep = CheckReport("category_axioms")
    failure = _category_failure(cat)
    if failure is not None:
        clause, witness = failure
        rep.fail(clause, **witness)
        return rep
    rep.details["objects"] = len(cat.objects)
    rep.details["morphisms"] = len(cat.morphisms)
    rep.details["composable_pairs"] = len(cat.comp)
    rep.details["composable_triples"] = int(cat.pairs.triple_counts().sum())
    return rep


def _category_failure(cat: FiniteCategory):
    """``(clause, witness)`` of the first failing clause, or ``None``."""
    objects, morphisms = cat.objects, cat.morphisms
    n = len(morphisms)
    src, tgt = cat.src, cat.tgt
    n_obj = len(objects)
    bad = np.flatnonzero((src < 0) | (src >= n_obj) | (tgt < 0) | (tgt >= n_obj))
    if bad.size:
        return "endpoint_outside_objects", {"morphism": morphisms[bad[0]]}

    def defect(*clauses):
        return next((d for d in cat.defects if d[0] in clauses), None)

    found = defect("compose_outside_morphisms", "compose_of_non_composable")
    if found is not None:
        return found
    f, g, h = cat.pairs.f, cat.pairs.g, cat.comp
    outside = (h < -1) | (h >= n)
    defined = np.where((h >= 0) & ~outside, h, -1)
    wrong = (defined >= 0) & ((src[defined] != src[f]) | (tgt[defined] != tgt[g]))
    bad = np.flatnonzero(outside | wrong)
    if bad.size:
        p = bad[0]
        clause = "compose_outside_morphisms" if outside[p] else "compose_endpoints"
        return clause, {"pair": (morphisms[f[p]], morphisms[g[p]])}
    bad = np.flatnonzero(h == -1)
    if bad.size:
        p = bad[0]
        return "composable_pair_undefined", {"pair": (morphisms[f[p]], morphisms[g[p]])}
    found = defect("identity_missing")
    if found is not None:
        return found
    ident = cat.identity
    bad = np.flatnonzero((ident < -1) | (ident >= n))
    if bad.size:
        return "identity_missing", {"object": objects[bad[0]]}
    bad = np.flatnonzero(ident == -1)
    if bad.size:
        return "object_without_identity", {"object": objects[bad[0]]}
    every = np.arange(n)
    bad = np.flatnonzero(
        (cat.composite(ident[src], every) != every)
        | (cat.composite(every, ident[tgt]) != every)
    )
    if bad.size:
        return "identity_law", {"morphism": morphisms[bad[0]]}
    triple = _first_non_associative(cat)
    if triple is not None:
        return "associativity", {"triple": tuple(morphisms[m] for m in triple)}
    return None


def _first_non_associative(cat: FiniteCategory):
    """The first composable triple (f, g, h), in CSR pair order and then h
    in morphism order, with ``(f then g) then h != f then (g then h)``.

    Needs every composite defined and with the right endpoints: (f g, h)
    and (g, h) then sit at rank k of h in the rows of f g and g."""
    pairs, comp = cat.pairs, cat.comp
    counts = pairs.triple_counts()
    ends = np.cumsum(counts)
    starts = ends - counts
    a = 0
    while a < len(counts):
        base = int(starts[a])
        b = max(int(np.searchsorted(ends, base + TRIPLE_CHUNK, side="right")), a + 1)
        p = np.repeat(np.arange(a, b), counts[a:b])
        k = np.arange(len(p)) + base - starts[p]
        left = comp[pairs.pair_start[comp[p]] + k]
        gh = comp[pairs.pair_start[pairs.g[p]] + k]
        right = comp[pairs.at(pairs.f[p], gh)]
        bad = np.flatnonzero(left != right)
        if bad.size:
            q, i = p[bad[0]], k[bad[0]]
            h = pairs.by_source[pairs.out_start[cat.tgt[pairs.g[q]]] + i]
            return pairs.f[q], pairs.g[q], h
        a = b
    return None


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


@dataclass
class CategoriesResult:
    domain_category: FiniteCategory  # B_K
    obstruction_category: FiniteCategory  # E_K
    #: name -> (object map, morphism map), int arrays; "footprint" -> (dict, None)
    functors: dict
    report: CheckReport


def _flat(arrays) -> tuple[np.ndarray, np.ndarray]:
    """The int arrays ``arrays`` end to end, and where each starts."""
    arrays = [_ints(a).ravel() for a in arrays]
    return np.concatenate(arrays or [_ints([])]), _offsets([len(a) for a in arrays])


def _block_category(atlas: AtlasModel, blocks: list, ne: np.ndarray, act: list,
                    phi: list) -> tuple:
    """The int arrays of the category with objects (I, x, e) and morphisms
    (I, J, y, e, γ) over ``blocks``, the (I, J, Ũ_IJ, ρ_IJ) of pairs I ⊆ J.

    e runs over ``ne[i]`` grid points of the i-th index set I, with Γ_I
    acting by ``act[i][γ, e]`` and φ̂ of the k-th block by ``phi[k][e]``.
    (I, J, y, e, γ) runs from (I, γ⁻¹·ρ(y), γ⁻¹·e) to (J, y, φ̂(e)) and is
    number ``start[k] + (t·|Γ_I| + γ)·ne[i] + e`` for y the t-th sample of
    Ũ_IJ; object (I, x, e) is ``obj_start[i] + x·ne[i] + e``.  "f then g"
    for g = (J, K, z, e', δ) is (I, K, z, ρ^Γ_{JI}(δ)·e, ρ^Γ_{JI}(δ)·γ).

    Returns (src, tgt, identity, pairs, comp), the composable pairs (f, g)
    whose composite is no morphism as (f, g, I, K, z, e, γ) with γ named,
    and per morphism the position of I and ρ(y).
    """
    indices = atlas.index_sets()
    where = {I: i for i, I in enumerate(indices)}
    groups = [atlas.charts[I].group for I in indices]
    order = _ints([g.order for g in groups])
    n_points = _ints([len(atlas.charts[I].domain.points) for I in indices])
    block_I, block_J = (_ints([where[b[k]] for b in blocks]) for k in (0, 1))
    block_of = np.full((len(indices), len(indices)), -1, dtype=np.int64)
    block_of[block_I, block_J] = np.arange(len(blocks))
    tilde, tilde_start = _flat(b[2] for b in blocks)
    rho, _ = _flat(b[3] for b in blocks)
    grid, grid_start = _flat(act)
    # γ⁻¹ on the samples and on the grid: row γ of each
    back_perms, back_start = _flat(
        atlas.charts[I].domain.perms[g.inverse] for I, g in zip(indices, groups)
    )
    back_grid, _ = _flat(np.asarray(a)[g.inverse] for a, g in zip(act, groups))
    phis, phi_start = _flat(phi)
    proj, proj_start = _flat(atlas.projection[b[:2]] for b in blocks)
    mul, mul_start = _flat(g.table for g in groups)
    obj_start = _offsets(n_points * ne)
    start = _offsets(np.diff(tilde_start) * order[block_I] * ne[block_I])
    # per morphism: its block, I, J, e, γ and y at position t of Ũ_IJ
    block = np.repeat(np.arange(len(blocks)), np.diff(start))
    I, J = block_I[block], block_J[block]
    local = np.arange(start[-1]) - start[block]
    e, local = local % ne[I], local // ne[I]
    gamma, t = local % order[I], tilde_start[block] + local // order[I]
    y, x = tilde[t], rho[t]
    src = (
        obj_start[I]
        + back_perms[back_start[I] + gamma * n_points[I] + x] * ne[I]
        + back_grid[grid_start[I] + gamma * ne[I] + e]
    )
    tgt = obj_start[J] + y * ne[J] + phis[phi_start[block] + e]
    # the identity of (I, x, e) is (I, I, x, e, 1): t = x in the block (I, I)
    i = np.repeat(np.arange(len(indices)), n_points * ne)
    local = np.arange(obj_start[-1]) - obj_start[i]
    one = _ints([g.identity for g in groups])[i]
    identity = start[block_of[i, i]] + (local // ne[i] * order[i] + one) * ne[i] + local % ne[i]
    pairs = PairIndex.of(obj_start[-1], src, tgt)
    # place[k, y]: the position of sample y in the k-th block's Ũ_IJ, or -1
    place = np.full((len(blocks), int(n_points.max(initial=0))), -1, dtype=np.int64)
    for k, b in enumerate(blocks):
        place[k, b[2]] = np.arange(len(b[2]))
    f, g = pairs.f, pairs.g
    fI, K, z = I[f], J[g], y[g]
    moved = proj[proj_start[block[f]] + gamma[g]]
    gamma2 = mul[mul_start[fI] + moved * order[fI] + gamma[f]]
    e2 = grid[grid_start[fI] + moved * ne[fI] + e[f]]
    k = block_of[fI, K]
    t2 = np.where(k >= 0, place[k, z], -1)
    comp = np.where(t2 >= 0, start[k] + (t2 * order[fI] + gamma2) * ne[fI] + e2, -1)
    missing = [
        (f[p], g[p], indices[fI[p]], indices[K[p]], int(z[p]), int(e2[p]),
         groups[fI[p]].elements[gamma2[p]])
        for p in np.flatnonzero(t2 < 0).tolist()
    ]
    return (src, tgt, identity, pairs, comp), missing, I, x


def build_categories(atlas: AtlasModel) -> CategoriesResult:
    """The categories B_K and E_K with pr, section, zero and footprint
    functors, all axioms verified by exhaustion.

    Both are built on int indices by :func:`_block_category`, B_K with
    one-point grids, so that E_K's morphism (I, J, y, e, γ) is number
    ``e_base[b] + e`` for B_K's morphism b = (I, J, y, γ), and its object
    (I, x, e) is ``eo_base[(I, x)] + e``.
    """
    rep = CheckReport("build_categories")
    indices = atlas.index_sets()
    blocks = []
    for I in indices:
        n = len(atlas.charts[I].domain.points)
        for J in indices:
            if I == J:
                blocks.append((I, J, range(n), range(n)))
            elif set(I) < set(J) and (I, J) in atlas.changes:
                change = atlas.changes[(I, J)]
                tilde = list(change.tilde_indices)
                blocks.append((I, J, tilde, [change.rho_idx[y] for y in tilde]))
    orders = [atlas.charts[I].group.order for I in indices]
    n_points = [len(atlas.charts[I].domain.points) for I in indices]

    def category(name, clause, objects, morphisms, blocks, ne, act, phi, result):
        arrays, missing, I, x = _block_category(atlas, blocks, _ints(ne), act, phi)
        for f, g, *composite in missing:
            rep.fail(clause, pair=(morphisms[f], morphisms[g]), result=result(*composite))
        cat = FiniteCategory(tuple(objects), tuple(morphisms), *arrays)
        axioms = check_category(cat)
        axioms.name = name
        rep.merge(axioms)
        # the sizes of the category; ``merge`` passes failures on, not details
        rep.details[name] = axioms.details
        return cat, I, x

    # ----- B_K -----
    objects = [(I, x) for I, n in zip(indices, n_points) for x in range(n)]
    morphisms = [
        (I, J, y, gamma)
        for I, J, tilde, _ in blocks
        for y in tilde
        for gamma in atlas.charts[I].group.elements
    ]
    B, b_I, b_rho = category(
        "category_axioms", "composability_violated", objects, morphisms, blocks,
        [1] * len(indices), [np.zeros((n, 1)) for n in orders], [[0]] * len(blocks),
        lambda I, K, z, e, gamma: (I, K, z, gamma),
    )

    # ----- E_K -----
    charts = [atlas.charts[I] for I in indices]
    grids = [chart.obstruction_points for chart in charts]
    n_e = [len(grid.num) for grid in grids]
    # Γ_I on grid indices: eact[i][γ, e]
    eact = [chart.grid_action for chart in charts]
    for I, table in zip(indices, eact):
        if (table < 0).any():
            raise ValueError(f"chart {I}: the obstruction grid is not Γ-stable")
    # φ̂ on grid indices
    position = {I: i for i, I in enumerate(indices)}
    phi_idx = []
    for (I, J, _, _) in blocks:
        grid, name = grids[position[I]], f"coordinate change {I}->{J}"
        image = grid if I == J else _matmul(grid, atlas.changes[(I, J)].phi_hat.mT, name)
        phi_idx.append(_lookup(image, grids[position[J]], name))
        if (phi_idx[-1] < 0).any():
            vector = tuple(grid.fractions()[(phi_idx[-1] < 0).argmax()])
            rep.fail("obstruction_grid_not_phi_closed", pair=(I, J), vector=vector)
    grids_closed = all((images >= 0).all() for images in phi_idx)
    obj_ne = np.repeat(_ints(n_e), n_points)
    mor_ne = _ints(n_e)[b_I]
    eo_base, e_base = _offsets(obj_ne), _offsets(mor_ne)
    # without φ̂ on the grids E_K has no morphisms: every identity is missing
    e_blocks, e_phi = (blocks, phi_idx) if grids_closed else ([], [])
    E, _, _ = category(
        "category_axioms_E", "composability_violated_E",
        [(I, x, e) for (I, x), ne in zip(objects, obj_ne.tolist()) for e in range(ne)],
        [
            (I, J, y, e, gamma)
            for (I, J, y, gamma), ne in zip(morphisms, mor_ne.tolist())
            for e in range(ne if e_blocks else 0)
        ],
        e_blocks, n_e, eact, e_phi, lambda I, K, z, e, gamma: (I, K, z, e, gamma),
    )

    # ----- functors -----
    s_idx = {
        I: _lookup(chart.section_samples, grid, f"chart {I}")
        for I, chart, grid in zip(indices, charts, grids)
    }
    for I, chart in zip(indices, charts):
        if (s_idx[I] < 0).any():
            value = tuple(chart.section_samples.fractions()[(s_idx[I] < 0).argmax()])
            rep.fail("section_value_outside_grid", index=I, value=value)
    s_ok = all((vals >= 0).all() for vals in s_idx.values())
    zero_idx = {
        I: int(_lookup(
            RationalArray(np.zeros((1, chart.obstruction_dim), dtype=np.int64), 1),
            grid, f"chart {I}",
        )[0])
        for I, chart, grid in zip(indices, charts, grids)
    }
    if any(v < 0 for v in zero_idx.values()):
        rep.fail("zero_vector_outside_grid")
        s_ok = False
    functors = {}
    if s_ok and grids_closed:
        pr_obj = np.repeat(np.arange(len(objects)), obj_ne)
        pr_mor = np.repeat(np.arange(len(morphisms)), mor_ne)
        s_flat = np.concatenate([_ints(s_idx[I]) for I in indices])
        zero_flat = _ints([zero_idx[I] for I in indices])
        s_obj = eo_base[:-1] + s_flat
        s_mor = e_base[:-1] + s_flat[_offsets(n_points)[b_I] + b_rho]
        z_obj = eo_base[:-1] + np.repeat(zero_flat, n_points)
        z_mor = e_base[:-1] + zero_flat[b_I]
        _check_functor(rep, "pr", E, B, pr_obj, pr_mor)
        _check_functor(rep, "section", B, E, s_obj, s_mor)
        _check_functor(rep, "zero", B, E, z_obj, z_mor)
        functors = {
            "pr": (pr_obj, pr_mor),
            "section": (s_obj, s_mor),
            "zero": (z_obj, z_mor),
        }

    # footprint functor ψ on the zero-object subcategory
    psi_obj = _footprint_labels(atlas, rep)
    label_id = {label: i for i, label in enumerate(sorted(set(psi_obj.values())))}
    psi = np.full(len(objects), -1, dtype=np.int64)
    obj_base = dict(zip(indices, _offsets(n_points).tolist()))
    for (I, x), label in psi_obj.items():
        psi[obj_base[I] + x] = label_id[label]
    s_psi, t_psi = psi[B.src], psi[B.tgt]
    for m in np.flatnonzero((s_psi >= 0) & (t_psi >= 0) & (s_psi != t_psi)).tolist():
        rep.fail("footprint_functor_not_constant", morphism=morphisms[m])
    if set(psi_obj.values()) != set(atlas.x_labels):
        rep.fail(
            "footprint_functor_not_surjective",
            image=sorted(set(psi_obj.values())),
        )
    functors["footprint"] = (psi_obj, None)
    return CategoriesResult(
        domain_category=B,
        obstruction_category=E,
        functors=functors,
        report=rep,
    )


def _footprint_labels(atlas: AtlasModel, rep: CheckReport) -> dict:
    """The footprint label of each zero object (I, x); a zero sample
    without one is reported and left out."""
    labels: dict = {}
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        for x in chart.zero_sample_indices():
            if x in chart.footprint_map:
                labels[(I, x)] = chart.footprint_map[x]
            else:
                rep.fail("zero_sample_without_footprint", index=I, point=x)
    return labels


def _check_functor(rep, name, dom: FiniteCategory, cod: FiniteCategory,
                   fobj: np.ndarray, fmor: np.ndarray) -> None:
    """The functor laws of ``dom -> cod`` given by int maps on objects and
    morphisms; the first failing clause is reported with its first
    witness."""
    bad = np.flatnonzero((fmor < 0) | (fmor >= len(cod.morphisms)))
    if bad.size:
        rep.fail(
            f"functor_{name}_morphism_outside_codomain", morphism=dom.morphisms[bad[0]]
        )
        return
    bad = np.flatnonzero(
        (cod.src[fmor] != fobj[dom.src]) | (cod.tgt[fmor] != fobj[dom.tgt])
    )
    if bad.size:
        rep.fail(f"functor_{name}_endpoints", morphism=dom.morphisms[bad[0]])
        return
    bad = np.flatnonzero(fmor[dom.identity] != cod.identity[fobj])
    if bad.size:
        rep.fail(f"functor_{name}_identity", object=dom.objects[bad[0]])
        return
    defined = np.flatnonzero(dom.comp >= 0)
    f, g = dom.pairs.f[defined], dom.pairs.g[defined]
    bad = np.flatnonzero(cod.composite(fmor[f], fmor[g]) != fmor[dom.comp[defined]])
    if bad.size:
        p = bad[0]
        rep.fail(
            f"functor_{name}_composition", pair=(dom.morphisms[f[p]], dom.morphisms[g[p]])
        )


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
    footprint_label = _footprint_labels(atlas, rep)
    zero_objects = set(footprint_label)
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
    """The group with its table in name order; a product that is no
    element (``-1``) has no name and is left out."""
    names = g.elements
    table = [[names[a], names[b], names[c]] for (a, b), c in np.ndenumerate(g.table) if c >= 0]
    return {"elements": list(names), "identity": names[g.identity], "table": sorted(table)}


def _group_from_json(d: dict, where: str) -> FiniteGroup:
    """A product that is no element becomes ``-1``, which ``validate``
    reports as ``not_closed``; a factor or identity that is no element is
    a ``ValueError``."""
    names = tuple(d["elements"])
    index = {name: k for k, name in enumerate(names)}
    table = np.full((len(names), len(names)), -1, dtype=np.int64)
    for a, b, c in d["table"]:
        if a not in index or b not in index:
            raise ValueError(f"{where}: group table entry {[a, b, c]} names no element")
        table[index[a], index[b]] = index.get(c, -1)
    if d["identity"] not in index:
        raise ValueError(f"{where}: group identity {d['identity']!r} is no element")
    return FiniteGroup(names, table, index[d["identity"]])


def _by_element(where: str, key: str, data: dict, names: tuple) -> list:
    """The values of the element-keyed ``data`` in element order; raises
    ``ValueError`` naming ``where`` and the element for a key that is no
    element and for an element without a key."""
    for name in [*data, *names]:
        if name not in names:
            raise ValueError(f"{where}: {key} has an entry for {name!r}, no group element")
        if name not in data:
            raise ValueError(f"{where}: {key} has no entry for the element {name!r}")
    return [data[name] for name in names]


def _quotient_to_json(q: GroupQuotientModel) -> dict:
    names = q.group.elements
    out = {
        "points": [_vec_to_json(p) for p in q.points],
        "group": _group_to_json(q.group),
        "perms": dict(zip(names, q.perms.tolist())),
    }
    if q.affine is not None:  # each element's rows of [A | b]
        out["affine"] = dict(zip(names, [
            {"matrix": RationalArray(a[:, :-1], q.affine.den).to_json(),
             "shift": RationalArray(a[:, -1], q.affine.den).strings()}
            for a in q.affine.num
        ]))
    if q.membership is not None:
        out["membership"] = q.membership
    return out


def _quotient_from_json(d: dict, where: str) -> GroupQuotientModel:
    group = _group_from_json(d["group"], where)
    points = tuple(_vec_from_json(p) for p in d["points"])
    perms = _by_element(where, "perms", d["perms"], group.elements)
    for name, perm in zip(group.elements, perms):
        # an index out of range would reach the validators as a wrong sample
        if len(perm) != len(points) or not all(0 <= i < len(points) for i in perm):
            raise ValueError(f"{where}: perms of {name!r} is no map of the {len(points)} samples")
    affine = None
    if "affine" in d:
        affine, dim = [], len(points[0]) if points else 0
        for a in _by_element(where, "affine", d["affine"], group.elements):
            mat, shift = RationalArray.from_json(a["matrix"], f"{where}: affine"), a["shift"]
            if mat.num.shape != (dim, dim) or len(shift) != dim:
                raise ValueError(f"{where}: affine is not {dim} x {dim} with a shift of {dim}")
            affine.append([[*row, parse_rat(c)] for row, c in zip(mat.fractions(), shift)])
    return GroupQuotientModel(
        points=points,
        group=group,
        perms=perms,
        affine=affine,
        membership=d.get("membership"),
    )


def _chart_to_json(c: ChartModel) -> dict:
    act = c.obstruction_action
    out = {
        "index": list(c.index),
        "domain": _quotient_to_json(c.domain),
        "obstruction_dim": c.obstruction_dim,
        "obstruction_action": {} if c.obstruction_dim == 0 else dict(zip(
            c.group.elements, [RationalArray(a, act.den).to_json() for a in act.num]
        )),
        "obstruction_points": c.obstruction_points.strings(),
        "section_samples": c.section_samples.strings(),
        "footprint_map": {str(i): lab for i, lab in c.footprint_map.items()},
        "tangent_dims": list(c.tangent_dims),
    }
    if c.section_asts is not None:
        out["section_asts"] = list(c.section_asts)
    return out


def _chart_from_json(d: dict, where: str) -> ChartModel:
    domain = _quotient_from_json(d["domain"], where)
    action = d["obstruction_action"]
    if action or d["obstruction_dim"] != 0:
        action = _by_element(where, "obstruction_action", action, domain.group.elements)
    return ChartModel(
        index=tuple(d["index"]),
        domain=domain,
        obstruction_dim=d["obstruction_dim"],
        obstruction_action=[
            RationalArray.from_json(m, f"{where}: obstruction_action").fractions() for m in action
        ],
        obstruction_points=d["obstruction_points"],
        section_samples=d["section_samples"],
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
    I, J = tuple(d["source"]), tuple(d["target"])
    return CoordinateChangeModel(
        source_index=I,
        target_index=J,
        tilde_indices=tuple(d["tilde_indices"]),
        rho_idx={int(k): v for k, v in d["rho_idx"].items()},
        phi_hat=RationalArray.from_json(d["phi_hat"], f"coordinate change {I}->{J}: phi_hat"),
        rho_asts=tuple(d["rho_asts"]) if "rho_asts" in d else None,
        domain_pred=d.get("domain_pred"),
        lifted_pred=d.get("lifted_pred"),
        tilde_tangent_dims=tuple(d["tilde_tangent_dims"]),
    )


def _metric_key_to_json(key: tuple) -> list:
    (I, ci) = key
    return [_index_key(I), ci]


def _metric_to_json(atlas: AtlasModel) -> list:
    """One ``[I, c, J, d, "p/q"]`` entry per pair of keys a < b, in
    sorted key order."""
    metric = atlas.metric
    keys = atlas.intermediate_keys()
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rows, cols = np.triu_indices(len(keys), 1)
    a = np.asarray(order, dtype=np.int64)[rows]
    b = np.asarray(order, dtype=np.int64)[cols]
    values = RationalArray(metric.num[a, b], metric.den).strings()
    json_keys = [_metric_key_to_json(k) for k in keys]
    return [
        json_keys[i] + json_keys[j] + [value]
        for i, j, value in zip(a.tolist(), b.tolist(), values)
    ]


def _metric_from_json(entries: list, keys: list) -> RationalArray:
    """The metric of ``vfc-atlas/1`` entries over ``keys`` (the atlas's
    intermediate keys).  Each unordered pair of distinct keys must appear,
    in either order; a repeated pair must repeat its value; a diagonal
    entry must be 0.  Raises ``ValueError`` naming the offending pair."""
    row = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    values: dict = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 5:
            raise ValueError(f"metric entry {entry!r} is not [I, c, J, d, value]")
        pair = f"{entry[:2]}, {entry[2:4]}"
        try:
            ka = (_index_from_key(entry[0]), entry[1])
            kb = (_index_from_key(entry[2]), entry[3])
            d = parse_rat(entry[4])
        except (ValueError, TypeError, AttributeError, ZeroDivisionError) as ex:
            raise ValueError(f"metric entry for the pair {pair}: {ex}") from None
        for k in (ka, kb):
            if k not in row:
                raise ValueError(f"metric pair {pair} names an unknown key")
        if d < 0:
            raise ValueError(f"metric pair {pair} has negative distance {entry[4]}")
        i, j = sorted((row[ka], row[kb]))
        if i == j:
            if d != 0:
                raise ValueError(f"metric diagonal entry {pair} is {entry[4]}, not 0")
            continue
        if values.setdefault((i, j), d) != d:
            raise ValueError(f"metric pair {pair} is given two different values")
    if len(values) < n * (n - 1) // 2:
        for i, j in itertools.combinations(range(n), 2):
            if (i, j) not in values:
                pair = f"{_metric_key_to_json(keys[i])}, {_metric_key_to_json(keys[j])}"
                raise ValueError(f"metric entry missing for the pair {pair}")
    flat = RationalArray.of(list(values.values()), "metric", (-1,))
    num = np.zeros((n, n), dtype=np.int64)
    if values:
        rows, cols = np.array(list(values), dtype=np.int64).T
        num[rows, cols] = flat.num
        num[cols, rows] = flat.num
    return RationalArray(num, flat.den)


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
        out["metric"] = _metric_to_json(atlas)
    return out


def atlas_from_json(data: dict) -> AtlasModel:
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema: {data.get('schema')!r}")
    charts = {
        _index_from_key(k): _chart_from_json(c, f"chart {k}") for k, c in data["charts"].items()
    }
    changes = {}
    for cd in data["changes"]:
        c = _change_from_json(cd)
        changes[(c.source_index, c.target_index)] = c
    atlas = AtlasModel(
        x_labels=tuple(data["x_samples"]),
        cover={int(i): frozenset(labels) for i, labels in data["cover"].items()},
        charts=charts,
        changes=changes,
    )
    if "metric" in data:
        atlas.metric = _metric_from_json(data["metric"], atlas.intermediate_keys())
    return atlas
