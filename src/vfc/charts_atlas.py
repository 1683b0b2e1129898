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
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .exterior_engine import eliminate, parse_rat, rat_str
from .expressions import check_grammar, compile_vector, eval_pred_rows, evaluate_until_raise

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
    "Labels",
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
    "quotient",
    "check_realizations",
    "atlas_to_json",
    "atlas_from_json",
]

TAU_RANK = 1e-9
#: loose tolerance for consistency between smooth ASTs and the rational
#: sample cloud (samples are deterministic dyadic approximations)
LOOSE_TOL = 1e-4

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

    def fail_first(self, clause: str, holds: np.ndarray, witness) -> None:
        """Record ``clause`` with ``witness(p)`` at the first p where
        ``holds`` is false, if there is one."""
        bad = _where(~holds)
        if bad.size:
            self.fail(clause, **witness(int(bad[0])))

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
        """The group axioms, checked once: the table is not changed after
        construction, and callers only read the report."""
        return self._validation

    @functools.cached_property
    def _validation(self) -> CheckReport:
        rep = CheckReport("finite_group")
        names, n, table, e = self.elements, self.order, self.table, self.identity
        if not 0 <= e < n:
            rep.fail("identity_missing", identity=e)
            return rep
        every = np.arange(n)
        for a in _where((table[e] != every) | (table[:, e] != every)).tolist():
            rep.fail("identity_law", element=names[a])
        for a in _where(self.inverse < 0).tolist():
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
    names = tuple(join_label(combo) for combo in itertools.product(*[g.elements for g in factors]))
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

    ``points`` holds the samples as one (n, d) :class:`RationalArray`, a
    row per sample; the constructor also takes rational rows and converts
    them once.  ``coordinates`` is its float view, built once, which the
    float-side checks read.  ``perms`` is an int (|Γ|, n) array: row g is
    the left action of element g on sample indices.  ``affine`` optionally
    gives the coordinate-level maps ``x ↦ A·x + b`` realizing the elements:
    the rows of [A | b] per element, in element order, kept as one
    (|Γ|, d, d + 1) :class:`RationalArray`.  The orbits are computed once,
    on first use; the model is not changed after that.
    """

    points: RationalArray
    group: FiniteGroup
    perms: np.ndarray
    affine: RationalArray | None = None
    membership: list | None = None  # predicate AST

    def __post_init__(self):
        self.points = RationalArray.of(self.points, "points", (-1, -1))
        self.perms = np.asarray(self.perms, np.int64).reshape(self.group.order, len(self.points))
        if self.affine is not None:
            d = self.points.num.shape[1]
            self.affine = RationalArray.of(self.affine, "affine", (self.group.order, d, d + 1))

    @functools.cached_property
    def coordinates(self) -> np.ndarray:
        """The samples as floats, (n, d), each the float nearest its
        coordinate; read-only, as every caller shares it."""
        view = self.points.floats()
        view.flags.writeable = False
        return view

    def act(self, g: int, idx: int) -> int:
        return int(self.perms[g, idx])

    def orbit(self, idx: int) -> tuple[int, ...]:
        return tuple(sorted(set(self.perms[:, idx].tolist())))

    @functools.cached_property
    def _orbits(self) -> tuple[list, np.ndarray]:
        """The orbits, each named by its least member (the minimum of a
        column of ``perms``), found with one sort."""
        least = self.perms.min(axis=0, initial=len(self.points))
        members = least.argsort(kind="stable")
        new = np.ones(len(members), dtype=bool)
        new[1:] = least[members[1:]] != least[members[:-1]]
        index = np.empty(len(members), dtype=np.int64)
        index[members] = new.cumsum() - 1
        bounds, members = [*_where(new).tolist(), len(members)], members.tolist()
        return [tuple(members[a:b]) for a, b in zip(bounds, bounds[1:])], _frozen(index)

    def classes(self) -> list[tuple[int, ...]]:
        """The orbits, ordered by their least member, each sorted."""
        return self._orbits[0]

    @property
    def class_index(self) -> np.ndarray:
        """Per sample the index of its orbit in :meth:`classes`; read-only."""
        return self._orbits[1]

    def class_index_of(self) -> dict:
        """point index -> quotient class index (classes ordered by min)."""
        return dict(enumerate(self.class_index.tolist()))


def check_group_quotient(model: GroupQuotientModel) -> CheckReport:
    """Group-action laws, quotient classes and stabilizers."""
    rep = CheckReport("group_quotient")
    group, perms, names = model.group, model.perms, model.group.elements
    rep.merge(group.validate())
    ids = np.arange(len(model.points))
    if 0 <= group.identity < group.order and (perms[group.identity] != ids).any():
        rep.fail("identity_not_trivial")
    for g in _where((np.sort(perms, axis=1) != ids).any(axis=1)).tolist():
        rep.fail("not_a_permutation", element=names[g])
    if rep.ok:
        bad = perms[group.table] != perms[:, perms]
        for g, h in np.argwhere(bad.any(axis=2)).tolist():
            rep.fail("action_law", pair=(names[g], names[h]), point=int(bad[g, h].argmax()))
    if model.affine is not None and rep.ok:
        # A·x + b = [A | b]·(x, 1) for every element and point at once
        x = model.points
        points = RationalArray(np.c_[x.num, np.full(len(x), x.den)], x.den)
        images = _matmul(points, model.affine.mT, "affine")
        moved = RationalArray(points.num[perms, :-1], points.den)
        bad = ~_equal(images, moved, "affine").all(axis=2)
        for g in _where(bad.any(axis=1)).tolist():
            rep.fail("affine_vs_permutation", element=names[g], point=int(bad[g].argmax()))
    if model.membership is not None:
        for i, holds in enumerate(eval_pred_rows(model.membership, model.points)):
            if not holds:
                rep.fail("sample_outside_domain", point=i)
    if rep.ok:
        classes = model.classes()
        rep.details["num_classes"] = len(classes)
        first = _ints([orb[0] for orb in classes])
        rep.details["stabilizer_orders"] = (perms[:, first] == first).sum(axis=0).tolist()
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

    def __len__(self) -> int:
        return len(self.num)

    @classmethod
    def of(cls, values, where: str, shape: tuple) -> "RationalArray":
        """The rationals ``values`` (nested sequences or arrays of numbers;
        ``"p/q"`` strings are read without a ``Fraction`` each) in lowest
        terms, or a ``RationalArray`` as it is.

        ``shape`` may hold -1 for any length; empty ``values`` take
        ``shape`` with 0 for -1.  Raises ``ValueError`` naming ``where``
        for another shape and for a numerator or denominator that does not
        fit int64."""
        if isinstance(values, RationalArray):
            return cls(_shaped(values.num, shape, where), values.den)
        entries = _shaped(np.array(values, dtype=object), shape, where)
        flat = entries.ravel().tolist()
        if not flat:
            return cls(np.zeros(entries.shape, dtype=np.int64), 1)
        parts = _read_rationals(flat)
        if parts is None:
            flat = [f if type(f) is Fraction else Fraction(f) for f in flat]
            parts = [f.numerator for f in flat], [f.denominator for f in flat]
        den = math.lcm(1, *set(parts[1]))
        nums = [n * (den // d) for n, d in zip(*parts)]
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
        """The entries as floats, each the float nearest its rational: one
        IEEE division where numerator and ``den`` are exact floats."""
        if max(self.den, _largest(self)) <= 2**53:
            return self.num / self.den
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


#: ``"p/q"`` strings with q > 0, joined by single spaces
_WIRE = re.compile(r"[-+]?[0-9]+/0*[1-9][0-9]*(?: [-+]?[0-9]+/0*[1-9][0-9]*)*")


def _read_rationals(values: list) -> tuple[list, list] | None:
    """Numerators and denominators, in lowest terms, of a nonempty list of
    ``"p/q"`` strings (q > 0), read with no ``Fraction`` each, or ``None``."""
    text = " ".join(values) if all(type(v) is str for v in values) else ""
    if not _WIRE.fullmatch(text):
        return None
    ints = list(map(int, text.replace("/", " ").split()))
    nums, dens = ints[0::2], ints[1::2]
    common = list(map(math.gcd, nums, dens))
    return [n // g for n, g in zip(nums, common)], [d // g for d, g in zip(dens, common)]


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
        return _where(~self.section_samples.num.any(axis=1)).tolist()

    @functools.cached_property
    def grid_action(self) -> np.ndarray:
        """Γ on grid indices: ``grid_action[γ, e]`` is the index of γ·e in
        ``obstruction_points``, or -1 where γ·e is no grid point.  The grid
        is a set (``obstruction_grid_repeated`` of :func:`check_chart`)."""
        where, grid = f"chart {self.index}", self.obstruction_points
        return _lookup(_matmul(grid, self.obstruction_action.mT, where), grid, where)

    @functools.cached_property
    def section_on_grid(self) -> np.ndarray:
        """The section on grid indices: ``section_on_grid[x]`` is the index
        of s(x) in ``obstruction_points``, or -1 where s(x) is no grid point."""
        return _lookup(self.section_samples, self.obstruction_points, f"chart {self.index}")


def check_chart(atlas: "AtlasModel", I: tuple) -> CheckReport:
    """Chart-level invariants: action laws, equivariance, footprints."""
    chart = atlas.charts[I]
    rep = CheckReport(f"chart {I}")
    rep.merge(check_group_quotient(chart.domain))
    g0, names = chart.group, chart.group.elements
    m, where = chart.obstruction_dim, f"chart {I}"
    act, grid, samples = chart.obstruction_action, chart.obstruction_points, chart.section_samples
    first: dict = {}
    for e, point in enumerate(map(tuple, grid.num.tolist())):
        if first.setdefault(point, e) != e:
            rep.fail("obstruction_grid_repeated", points=(first[point], e))
    if m > 0:  # E_I = 0 has one vector, on which all of this holds
        if (act.num[g0.identity] != act.den * np.eye(m, dtype=np.int64)).any():
            rep.fail("obstruction_identity_action")
        # act[a]·act[b] against act[a·b], the first failing b per a
        products = _matmul(RationalArray(act.num[:, None], act.den), act, where)
        bad = (g0.table < 0) | ~_equal(
            products, RationalArray(act.num[g0.table], act.den), where
        ).all(axis=(2, 3))
        for a in _where(bad.any(axis=1)).tolist():
            rep.fail("obstruction_action_law", pair=(names[a], names[bad[a].argmax()]))
        outside = chart.grid_action < 0
        for g in _where(outside.any(axis=1)).tolist():
            vector = tuple(grid.fractions()[outside[g].argmax()])
            rep.fail("obstruction_grid_not_stable", element=names[g], vector=vector)
        # section equivariance on declared samples: s(γx) = γ·s(x)
        moved = RationalArray(samples.num[chart.domain.perms], samples.den)
        bad = ~_equal(_matmul(samples, act.mT, where), moved, where).all(axis=2)
        for g in _where(bad.any(axis=1)).tolist():
            rep.fail("section_not_equivariant", element=names[g], point=int(bad[g].argmax()))
    rep.fail_first("section_value_outside_grid", chart.section_on_grid >= 0,
                   lambda x: {"point": x, "value": tuple(samples.fractions()[x])})
    if grid.num.any(axis=1).all():
        rep.fail("zero_vector_outside_grid")
    # footprint map: (zero samples)/Γ_I → F_I bijection
    zeros = chart.zero_sample_indices()
    class_of = chart.domain.class_index.tolist()
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
        rep.fail("footprint_not_bijective", footprint=sorted(F_I), mapped=sorted(labels))
    # loose consistency of smooth section vs declared samples
    if chart.section_asts is not None:
        section = atlas.compiled(chart.section_asts)
        got, _, error = evaluate_until_raise(section, chart.domain.coordinates)
        err = _max_abs_error(got, samples.floats())
        bad = _where(err > LOOSE_TOL)
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
    def tilde(self) -> np.ndarray:
        """Ũ_IJ as a read-only int array, in ``tilde_indices`` order."""
        return _frozen(_ints(self.tilde_indices))

    @functools.cached_property
    def rho(self) -> np.ndarray:
        """ρ_IJ on Ũ_IJ, read-only: ``rho[t]`` is ``rho_idx`` of ``tilde[t]``;
        a missing or non-int value raises ``KeyError`` naming it."""
        values = [self.rho_idx[y] for y in self.tilde_indices]
        for v in values:
            if not isinstance(v, int) or abs(v) > INT64_MAX:
                raise KeyError(v)
        return _frozen(_ints(values))

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
    """Covering conditions for ρ_IJ: free kernel, fibers, stabilizers, in
    the order a walk over Ũ_IJ (``tilde_indices`` order) finds them.  A
    sample of Ũ_IJ outside chart J or with ρ-value outside chart I is
    reported at the first, as ``sample_outside_chart``, and nothing more
    is read."""
    rep = CheckReport(f"group_covering {I}->{J}")
    src = atlas.charts[I]
    tgt = atlas.charts[J]
    if I == J:
        rep.details["identity_covering"] = True
        return rep
    change = atlas.changes[(I, J)]
    names, ys, xs = tgt.group.elements, change.tilde, change.rho
    readable = (ys >= 0) & (ys < len(tgt.domain.points)) & (xs >= 0) & (xs < len(src.domain.points))
    rep.fail_first("sample_outside_chart", readable,
                   lambda t: {"pair": (I, J), "point": int(ys[t])})
    if not rep.ok:
        return rep
    moved = tgt.domain.perms[:, ys]
    # Ũ_IJ is Γ_J-invariant
    inside = np.zeros(len(tgt.domain.points), dtype=bool)
    inside[ys] = True
    moved_out = _where(~inside[moved].all(axis=1))
    if moved_out.size:
        rep.fail("tilde_not_invariant", element=names[moved_out[0]])
    kernel = atlas.kernel(I, J)
    rep.details["kernel_order"] = len(kernel)
    fixed = moved[kernel] == ys
    for k in _where(fixed.any(axis=1) & (kernel != tgt.group.identity)).tolist():
        rep.fail("kernel_action_not_free", element=names[kernel[k]],
                 point=int(ys[fixed[k].argmax()]))
    # fibers of ρ are kernel orbits; the orbits of one sample per fiber in one call
    fibers: dict = {}
    for y, x in zip(ys.tolist(), xs.tolist()):
        fibers.setdefault(x, set()).add(y)
    orbits = tgt.domain.perms[kernel][:, [next(iter(fib)) for fib in fibers.values()]].T.tolist()
    for (x, fib), orbit in zip(fibers.items(), orbits):
        if len(fib) != len(kernel):
            rep.fail("fiber_size", source_point=x, size=len(fib))
        elif set(orbit) != fib:
            rep.fail("fiber_not_kernel_orbit", source_point=x)
    # induced quotient map Ũ_IJ/Γ_J → image/Γ_I is a bijection
    quot: dict = {}
    for cj, ci in zip(tgt.domain.class_index[ys].tolist(), src.domain.class_index[xs].tolist()):
        quot.setdefault(cj, set()).add(ci)
    images = []
    for cj, cis in quot.items():
        if len(cis) != 1:
            rep.fail("quotient_map_not_well_defined", target_class=cj)
        images.extend(cis)
    if len(images) != len(set(images)):
        rep.fail("quotient_map_not_injective")
    # stabilizers map isomorphically Γ_J^y → Γ_I^{ρ(y)}: per element of Γ_I,
    # the elements of Γ_J^y that project to it, against Γ_I^{ρ(y)}
    onto = np.eye(src.group.order, dtype=np.int64)[atlas.projection[(I, J)]].T
    hits = onto @ (moved == ys)
    bad = ((hits > 1) | ((hits > 0) != (src.domain.perms[:, xs] == xs))).any(axis=0)
    for t in _where(bad).tolist():
        rep.fail("stabilizer_not_isomorphic", point=int(ys[t]))
    return rep


def check_coordinate_change(atlas: "AtlasModel", I: tuple, J: tuple) -> CheckReport:
    """Equivariance, section compatibility, and the tangent bundle condition."""
    rep = CheckReport(f"coordinate_change {I}->{J}")
    src = atlas.charts[I]
    tgt = atlas.charts[J]
    change = atlas.changes[(I, J)]
    covering = check_group_covering(atlas, I, J)
    rep.merge(covering)
    if any(f["clause"] == "sample_outside_chart" for f in covering.failures):
        return rep
    names, proj = tgt.group.elements, atlas.projection[(I, J)]
    ys, xs = change.tilde, change.rho
    # ρ(γ·y) = ρ^Γ(γ)·ρ(y), the first failing y per γ; where Γ_J moves Ũ_IJ
    # out of itself, ρ(γ·y) is looked up in rho_idx, and a missing key raises
    moved = tgt.domain.perms[:, ys]
    rho_at = np.full(len(tgt.domain.points), -1, dtype=np.int64)
    rho_at[ys] = xs
    image, missing = rho_at[moved], np.zeros(moved.shape, dtype=bool)
    for g, t in zip(*(image < 0).nonzero()):
        missing[g, t] = int(moved[g, t]) not in change.rho_idx
        image[g, t] = change.rho_idx.get(int(moved[g, t]), -1)
    bad = missing | (image != src.domain.perms[proj][:, xs])
    for g in _where(bad.any(axis=1)).tolist():
        t = int(bad[g].argmax())
        if missing[g, t]:
            raise KeyError(int(moved[g, t]))
        rep.fail("rho_not_equivariant", element=names[g], point=int(ys[t]))
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
    rep.fail_first("obstruction_grid_not_phi_closed", atlas.grid_map(I, J) >= 0,
                   lambda e: {"vector": tuple(src.obstruction_points.fractions()[e])})
    # section compatibility at samples: s_J∘φ̃ = φ̂∘s_I∘ρ (φ̃ = inclusion),
    # which holds on E_J = 0
    s_I, s_J = src.section_samples, tgt.section_samples
    if m_J > 0:
        pulled = RationalArray(s_I.num[xs], s_I.den)
        bad = ~_equal(_matmul(pulled, phi.mT, where), RationalArray(s_J.num[ys], s_J.den),
                      where).all(axis=1)
        if bad.any():
            rep.fail("section_compatibility", point=int(ys[bad.argmax()]))
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
            section = atlas.compiled(tgt.section_asts, dims)
            columns = [dims.index(d) for d in complement]
            _, jac, error = evaluate_until_raise(section, tgt.domain.coordinates[ys])
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
                rep.fail("tangent_bundle_condition", point=int(ys[k]), sigma_min=sigma)
            elif error is not None:
                raise error
    # smooth-level ρ vs sample-level ρ (loose tolerance; samples are
    # rational approximations of the smooth model)
    if change.rho_asts is not None:
        rho_f = atlas.compiled(change.rho_asts)
        got, _, error = evaluate_until_raise(rho_f, tgt.domain.coordinates[ys])
        err = _max_abs_error(got, src.domain.coordinates[xs[: len(got)]])
        bad = _where(err > LOOSE_TOL)
        if bad.size:
            rep.fail("rho_ast_inconsistent", point=int(ys[bad[0]]), error=float(err[bad[0]]))
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

    @functools.cached_property
    def _made(self) -> dict:
        """The tapes, grid maps and distances made once per atlas, by key."""
        return {}

    def compiled(self, asts: Sequence, dims: Sequence[int] = ()) -> Callable:
        """:func:`~vfc.expressions.compile_vector` of ``asts`` along
        ``dims``, compiled once per atlas for equal ASTs and dims."""
        key = ("tape", repr(list(asts)), tuple(dims))
        if key not in self._made:
            self._made[key] = compile_vector(asts, dims)
        return self._made[key]

    def grid_map(self, I: tuple, J: tuple) -> np.ndarray:
        """φ̂_IJ on grid indices (the identity where I = J), computed once per
        atlas: per point e of chart I's grid, the index of φ̂_IJ(e) in chart
        J's grid, or -1 where it is no grid point."""
        if ("grid", I, J) not in self._made:
            grid, where = self.charts[I].obstruction_points, f"coordinate change {I}->{J}"
            image = grid if I == J else _matmul(grid, self.changes[(I, J)].phi_hat.mT, where)
            self._made["grid", I, J] = _lookup(image, self.charts[J].obstruction_points, where)
        return self._made["grid", I, J]

    def distance(self, rows: np.ndarray) -> np.ndarray:
        """Per metric row, the least numerator of ``metric`` over the columns
        ``rows`` (nonempty, repeats allowed): its distance to the row set,
        computed once per atlas for an equal set and read-only."""
        columns = np.zeros(len(self.metric.num), dtype=bool)
        columns[rows] = True
        key = ("distance", columns.tobytes())
        if key not in self._made:
            self._made[key] = _frozen(self.metric.num[:, columns].min(axis=1))
        return self._made[key]

    def intermediate_keys(self) -> list[tuple]:
        return [(I, c) for I in self.index_sets()
                for c in range(len(self.charts[I].domain.classes()))]

    @functools.cached_property
    def key_offset(self) -> dict:
        """Index I -> position of its first key ``(I, 0)`` in
        :meth:`intermediate_keys`, so key (I, c) is metric row
        ``key_offset[I] + c``."""
        sizes = [len(self.charts[I].domain.classes()) for I in self.index_sets()]
        return dict(zip(self.index_sets(), _offsets(sizes).tolist()))

    @functools.cached_property
    def _sample_rows(self) -> dict:
        offset = self.key_offset
        return {I: _frozen(offset[I] + c.domain.class_index) for I, c in self.charts.items()}

    def sample_rows(self, I: tuple) -> np.ndarray:
        """The metric row of each sample x of chart I: key (I, [x]);
        computed once per chart, read-only."""
        return self._sample_rows[I]

    def intermediate_classes(self) -> np.ndarray:
        """|K̲| on metric rows: for each row, the smallest row of its class.
        The change I → J joins key (J, [y]) to key (I, [ρ_IJ(y)]) for y in
        Ũ_IJ; read only once ``changes`` is complete."""
        a, b = [_ints([])], [_ints([])]
        for (I, J), change in self.changes.items():
            a.append(self.sample_rows(J)[change.tilde])
            b.append(self.sample_rows(I)[change.rho])
        return quotient(len(self.intermediate_keys()), np.concatenate(a), np.concatenate(b))

    @functools.cached_property
    def intermediate_domains(self) -> dict:
        """(I, J) -> (Ū_IJ, φ̲_IJ) for I = J and every change I ⊊ J between
        charts: chart-I class indices and a dict of them to chart-J classes.
        A sample of Ũ_IJ outside chart J or with ρ-value outside chart I,
        which :func:`check_group_covering` reports, is left out."""
        every = {I: range(len(chart.domain.classes())) for I, chart in self.charts.items()}
        out = {(I, I): (frozenset(c), dict(zip(c, c))) for I, c in every.items()}
        for (I, J), change in self.changes.items():
            if set(I) < set(J) and I in self.charts and J in self.charts:
                down, up = self.charts[I].domain.class_index, self.charts[J].domain.class_index
                x, y = change.rho, change.tilde
                inside = (x >= 0) & (x < len(down)) & (y >= 0) & (y < len(up))
                phibar = dict(zip(down[x[inside]].tolist(), up[y[inside]].tolist()))
                out[(I, J)] = frozenset(phibar), phibar
        return out

    @functools.cached_property
    def products(self) -> dict:
        """Index I -> the product of the basic groups of I."""
        return {I: product_group([self.charts[(i,)].group for i in I]) for I in self.charts}

    @functools.cached_property
    def product_index(self) -> dict:
        """Index I -> per element of Γ_I its index in the product of the
        basic groups of I: the product element of the same name, or
        ``None`` for a chart whose element names are not the product's."""
        out = {}
        for I, chart in self.charts.items():
            product = self.products[I]
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
        return _where(self.projection[(I, J)] == self.charts[I].group.identity)

    @functools.cached_property
    def closure_radius(self) -> Fraction | None:
        """Half the smallest positive metric distance, or ``None`` without
        one; read once per atlas, whose metric is never changed."""
        positive = None if self.metric is None else self.metric.num > 0
        if positive is None or not positive.any():
            return None
        least = self.metric.num.min(where=positive, initial=INT64_MAX)
        return Fraction(int(least), 2 * self.metric.den)


def check_atlas_model(atlas: AtlasModel) -> CheckReport:
    """Index-set and additivity invariants of the atlas."""
    rep = CheckReport("atlas_model")
    basics = atlas.basic_indices()
    nonempty = {I for r in range(1, len(basics) + 1) for I in itertools.combinations(basics, r)
                if atlas.footprint(I)}
    declared = set(atlas.index_sets())
    if declared != nonempty:
        rep.fail("index_set_mismatch", declared=sorted(declared), from_cover=sorted(nonempty))
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        if tuple(sorted(I)) != I:
            rep.fail("index_not_sorted", index=I)
        factors = [atlas.charts[(i,)] for i in I]
        want = atlas.products[I].table
        index, got = atlas.product_index[I], chart.group.table
        if index is None or not ((got >= 0) & (index[got] == want[np.ix_(index, index)])).all():
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


def check_cocycle(atlas: AtlasModel, strength: str = "weak") -> CheckReport:
    """Cocycle conditions over all triples I ⊊ J ⊊ K.

    ``weak``: the maps agree on the common overlap.  ``cocycle``: in
    addition Ū_IJ ∩ φ̲_IJ⁻¹(Ū_JK) ⊆ Ū_IK.  ``strong``: equality holds.
    """
    if strength not in {"weak", "cocycle", "strong"}:
        raise ValueError(f"unknown strength {strength!r}")
    rep = CheckReport(f"cocycle[{strength}]")
    indices = atlas.index_sets()
    triples = [(I, J, K) for I in indices for J in indices for K in indices
               if set(I) < set(J) < set(K)]
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
            domains = atlas.intermediate_domains
            (u_IJ, phibar), u_JK, u_IK = domains[(I, J)], domains[(J, K)][0], domains[(I, K)][0]
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
    missing = [(I, J) for I in indices for J in indices
               if set(I) < set(J) and (I, J) not in atlas.changes]
    for pair in missing:
        rep.fail("missing_change", pair=pair)
    if missing:
        return rep
    declared, domains = set(indices), atlas.intermediate_domains
    # intersection identity for intermediate domains
    for I in indices:
        supersets = [J for J in indices if set(I) <= set(J)]
        for J in supersets:
            for K in supersets:
                L = tuple(sorted(set(J) | set(K)))
                lhs = domains[(I, J)][0] & domains[(I, K)][0]
                rhs = domains[(I, L)][0] if L in declared else set()
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
                phibar, u_IK = domains[(I, J)][1], domains[(I, K)][0]
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
                least = chart_J.domain.classes()
                rhs = {c for c in domains[(J, K)][0] if in_image[(I, J)][least[c][0]]}
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


def _ints(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _where(mask: np.ndarray) -> np.ndarray:
    """The true positions of a 1-D mask (``np.flatnonzero`` without wrappers)."""
    return mask.nonzero()[0]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each run of ``counts`` starts."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.add.accumulate(counts, out=out[1:])
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
        inside = _where((src >= 0) & (src < n_objects))
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


class Labels(Sequence):
    """A tuple of labels that ``build()`` makes when an item is first read;
    ``len`` gives ``n`` and builds nothing."""

    def __init__(self, n: int, build):
        self._n, self._build = n, build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        return self._items[i]

    @functools.cached_property
    def _items(self) -> tuple:
        return tuple(self._build())


@dataclass(frozen=True, eq=False)
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
    morphisms.

    ``objects`` and ``morphisms`` are the labels, as tuples or as
    :class:`Labels` built on first read (E_K's, which no check reads).
    ``source``, ``target``, ``compose`` and ``identity_of`` are
    read-only label views of the arrays, built when first read.
    ``failure``, the first failing axiom, is also computed once, when first
    read: the arrays are not changed after construction.  Associativity is
    proved where a category is built; no check scans composable triples.
    """

    objects: Sequence
    morphisms: Sequence
    src: np.ndarray
    tgt: np.ndarray
    identity: np.ndarray
    pairs: PairIndex
    comp: np.ndarray

    def composite(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The composites "f[i] then g[i]": ``-1`` where undefined and
        ``-2`` where the pair is not composable."""
        ok = self.tgt[f] == self.src[g]
        out = np.full(len(f), -2, dtype=np.int64)
        out[ok] = self.comp[self.pairs.at(f[ok], g[ok])]
        return out

    @functools.cached_property
    def failure(self):
        """``(clause, witness)`` of the first failing axiom, or ``None``."""
        objects, morphisms, src, tgt = self.objects, self.morphisms, self.src, self.tgt
        n, n_obj = len(morphisms), len(objects)
        bad = _where((src < 0) | (src >= n_obj) | (tgt < 0) | (tgt >= n_obj))
        if bad.size:
            return "endpoint_outside_objects", {"morphism": morphisms[bad[0]]}
        f, g, h = self.pairs.f, self.pairs.g, self.comp
        outside = (h < -1) | (h >= n)
        defined = np.where((h >= 0) & ~outside, h, -1)
        wrong = (defined >= 0) & ((src[defined] != src[f]) | (tgt[defined] != tgt[g]))
        bad = _where(outside | wrong)
        if bad.size:
            p = bad[0]
            clause = "compose_outside_morphisms" if outside[p] else "compose_endpoints"
            return clause, {"pair": (morphisms[f[p]], morphisms[g[p]])}
        bad = _where(h == -1)
        if bad.size:
            p = bad[0]
            return "composable_pair_undefined", {"pair": (morphisms[f[p]], morphisms[g[p]])}
        ident = self.identity
        bad = _where((ident < -1) | (ident >= n))
        if bad.size:
            return "identity_missing", {"object": objects[bad[0]]}
        bad = _where(ident == -1)
        if bad.size:
            return "object_without_identity", {"object": objects[bad[0]]}
        every = np.arange(n)
        bad = _where(
            (self.composite(ident[src], every) != every)
            | (self.composite(every, ident[tgt]) != every)
        )
        if bad.size:
            return "identity_law", {"morphism": morphisms[bad[0]]}
        return None

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
        for k, v in zip(_where(inside).tolist(), index[inside].tolist())
    })


def check_category(cat: FiniteCategory) -> CheckReport:
    """Category axioms of ``cat``, verified by exhaustion on its int arrays.

    The clauses are tried in order, and the first that fails is reported
    with its first witness, in morphism, CSR pair, object or triple order:
    endpoints; composites outside the morphisms or with the wrong
    endpoints; composable pairs without a composite; identities; the
    identity laws.  Associativity is proved where the category is built
    (see :class:`FiniteCategory`).
    """
    rep = CheckReport("category_axioms")
    if cat.failure is not None:
        rep.fail(cat.failure[0], **cat.failure[1])
    else:
        rep.details["objects"] = len(cat.objects)
        rep.details["morphisms"] = len(cat.morphisms)
        rep.details["composable_pairs"] = len(cat.comp)
        rep.details["composable_triples"] = int(cat.pairs.triple_counts().sum())
    return rep


@dataclass
class CategoriesResult:
    """What :func:`build_categories` returns; E_K, read by no check, is built
    when first read.  Both categories are ``None`` where a sample index or a
    group table that B_K would read fails its fact.  ``domain_parts`` gives
    per morphism (I, J, y, γ) of B_K as int arrays: I and J by their
    position in ``atlas.index_sets()``, γ an element index of Γ_I."""

    domain_category: FiniteCategory | None  # B_K
    domain_parts: tuple | None
    report: CheckReport
    build_obstruction: Callable[[], FiniteCategory] = field(repr=False)

    @functools.cached_property
    def obstruction_category(self) -> FiniteCategory | None:  # E_K
        return self.build_obstruction()


def _flat(arrays) -> tuple[np.ndarray, np.ndarray]:
    """The int arrays ``arrays`` end to end, and where each starts."""
    arrays = [_ints(a).ravel() for a in arrays]
    return np.concatenate(arrays or [_ints([])]), _offsets([len(a) for a in arrays])


def _runs(counts) -> tuple[np.ndarray, np.ndarray]:
    """Per item of runs of ``counts`` items end to end: its run and place."""
    counts = _ints(counts)
    run = np.arange(len(counts)).repeat(counts)
    return run, np.arange(len(run)) - _offsets(counts)[run]


class _Blocks:
    """The blocks (I, J, Ũ_IJ, ρ_IJ), I ⊆ J, as the int arrays the category
    builders read: per index set i its group, order, sample count, identity
    and (flat, with their starts, see :func:`_flat`) table, inverses and
    perms; per block k its index sets I[k], J[k] and, flat, Ũ_IJ, ρ_IJ and
    ρ^Γ_{JI}; and ``block_of[i, j]`` (or -1)."""

    def __init__(self, atlas: AtlasModel, blocks: list):
        self.blocks, self.indices = blocks, atlas.index_sets()
        where = {I: i for i, I in enumerate(self.indices)}
        domains = [atlas.charts[I].domain for I in self.indices]
        self.groups = [d.group for d in domains]
        self.order, self.n_points, self.one = _ints(
            [[g.order for g in self.groups], [len(d.points) for d in domains],
             [g.identity for g in self.groups]]).reshape(3, -1)
        self.mul = _flat(g.table for g in self.groups)
        self.inverse = _flat(g.inverse for g in self.groups)
        self.perms = _flat(d.perms for d in domains)
        self.I, self.J = (_ints([where[b[k]] for b in blocks]) for k in (0, 1))
        self.tilde = _flat(b[2] for b in blocks)
        self.rho = _flat(b[3] for b in blocks)
        self.proj = _flat(atlas.projection[b[:2]] for b in blocks)
        self.block_of = np.full((len(where), len(where)), -1, dtype=np.int64)
        self.block_of[self.I, self.J] = np.arange(len(blocks))

    def element(self, i: int, g: int) -> str:
        """The name of element g of the i-th index set's group."""
        return self.groups[i].elements[g]


def _block_category(bk: _Blocks, ne: np.ndarray, act: tuple, phi: tuple) -> tuple:
    """The int arrays of the category with objects (I, x, e) and morphisms
    (I, J, y, e, γ) over the blocks ``bk``.

    e runs over ``ne[i]`` grid points of the i-th index set I, with Γ_I
    acting by ``act[i][γ, e]`` and φ̂ of the k-th block by ``phi[k][e]``,
    both given flat as ``(values, start)`` (see :func:`_flat`).
    (I, J, y, e, γ) runs from (I, γ⁻¹·ρ(y), γ⁻¹·e) to (J, y, φ̂(e)) and is
    number ``start[k] + (t·|Γ_I| + γ)·ne[i] + e`` for y the t-th sample of
    Ũ_IJ; object (I, x, e) is ``obj_start[i] + x·ne[i] + e``.  "f then g"
    for g = (J, K, z, e', δ) is (I, K, z, ρ^Γ_{JI}(δ)·e, ρ^Γ_{JI}(δ)·γ).

    Returns (src, tgt, identity, pairs, comp), the composable pairs (f, g)
    whose composite is no morphism as (f, g, I, K, z, e, γ) with γ named,
    and per morphism (I, J, y, γ) as int arrays, I and J by position.
    """
    order, n_points, block_of = bk.order, bk.n_points, bk.block_of
    (tilde, tilde_start), (rho, _) = bk.tilde, bk.rho
    (inverse, at), (perms, perm_start), (mul, mul_start) = bk.inverse, bk.perms, bk.mul
    (proj, proj_start), (grid, grid_start), (phis, phi_start) = bk.proj, act, phi
    obj_start = _offsets(n_points * ne)
    start = _offsets((tilde_start[1:] - tilde_start[:-1]) * order[bk.I] * ne[bk.I])
    # per morphism: its block, I, J, e, γ and y at position t of Ũ_IJ
    block, local = _runs(start[1:] - start[:-1])
    I, J = bk.I[block], bk.J[block]
    e, local = local % ne[I], local // ne[I]
    gamma, t = local % order[I], tilde_start[block] + local // order[I]
    y, x = tilde[t], rho[t]
    back = inverse[at[I] + gamma]  # γ⁻¹
    src = (
        obj_start[I]
        + perms[perm_start[I] + back * n_points[I] + x] * ne[I]
        + grid[grid_start[I] + back * ne[I] + e]
    )
    tgt = obj_start[J] + y * ne[J] + phis[phi_start[block] + e]
    # the identity of (I, x, e) is (I, I, x, e, 1): t = x in the block (I, I)
    i, local = _runs(n_points * ne)
    identity = (start[block_of[i, i]]
                + (local // ne[i] * order[i] + bk.one[i]) * ne[i] + local % ne[i])
    pairs = PairIndex.of(obj_start[-1], src, tgt)
    # place[k, y]: the position of sample y in the k-th block's Ũ_IJ, or -1
    place = np.full((len(bk.blocks), int(n_points.max(initial=0))), -1, dtype=np.int64)
    k, position = _runs(tilde_start[1:] - tilde_start[:-1])
    place[k, tilde] = position
    f, g = pairs.f, pairs.g
    fI, K, z = I[f], J[g], y[g]
    moved = proj[proj_start[block[f]] + gamma[g]]
    gamma2 = mul[mul_start[fI] + moved * order[fI] + gamma[f]]
    e2 = grid[grid_start[fI] + moved * ne[fI] + e[f]]
    k = block_of[fI, K]
    t2 = np.where(k >= 0, place[k, z], -1)
    comp = np.where(t2 >= 0, start[k] + (t2 * order[fI] + gamma2) * ne[fI] + e2, -1)
    missing = [
        (f[p], g[p], bk.indices[fI[p]], bk.indices[K[p]], int(z[p]), int(e2[p]),
         bk.groups[fI[p]].elements[gamma2[p]])
        for p in _where(t2 < 0).tolist()
    ]
    return (src, tgt, identity, pairs, comp), missing, (I, J, y, gamma)


def _domain_facts(bk: _Blocks, rep: CheckReport) -> bool:
    """Report each failing fact that B_K's arrays need, at its first
    witness: every sample index (perms, Ũ_IJ, ρ_IJ) lies in its chart
    (``sample_outside_chart``) and every Γ_I is a group
    (``group_not_valid``); ``False`` if one fails."""
    n, order, blocks, name = bk.n_points, bk.order, bk.blocks, bk.element
    (perms, _), (tilde, tilde_start), (rho, _) = bk.perms, bk.tilde, bk.rho
    i, x = _runs(order * n)
    perms_in = (perms >= 0) & (perms < n[i])
    rep.fail_first("sample_outside_chart", perms_in, lambda p: {
        "index": bk.indices[i[p]], "element": name(i[p], x[p] // n[i[p]]),
    })
    k, _ = _runs(tilde_start[1:] - tilde_start[:-1])
    changes_in = (tilde >= 0) & (tilde < n[bk.J[k]]) & (rho >= 0) & (rho < n[bk.I[k]])
    rep.fail_first("sample_outside_chart", changes_in, lambda p: {
        "pair": blocks[k[p]][:2], "point": int(tilde[p]),
    })
    valid = np.array([g.validate().ok for g in bk.groups], dtype=bool)
    rep.fail_first("group_not_valid", valid, lambda p: {"index": bk.indices[p]})
    return bool(valid.all() and perms_in.all() and changes_in.all())


def build_categories(atlas: AtlasModel) -> CategoriesResult:
    """The category B_K, built by :func:`_block_category` with one-point
    grids and checked on its arrays, and the sizes of E_K.

    Callers must first pass :func:`check_atlas_model`, :func:`check_chart`
    on every chart, :func:`check_coordinate_change` on every change and
    :func:`check_cocycle`, as ``vfc run`` and ``vfc check`` do.  The laws of
    B_K and E_K that follow from those stages are not checked again here:
    ρ^Γ is the projection of product groups whose tables pass
    ``group_not_additive``, so it is a homomorphism and composes, and both
    bracketings of composable (I, J, y, γ), (J, K, z, δ), (K, L, w, ε) are
    (I, L, w, ρ^Γ_{KI}(ε)·ρ^Γ_{JI}(δ)·γ).  E_K's object (I, x, e) lies over
    B_K's (I, x) and its morphism (I, J, y, e, γ) over (I, J, y, γ), with e
    moved by Γ_I and φ̂; its axioms and the laws of pr, section and zero
    follow from B_K's and from these clauses: Γ_I acts on the grid
    (``obstruction_identity_action``, ``obstruction_grid_repeated``,
    ``obstruction_action_law``, ``obstruction_grid_not_stable``); φ̂ maps
    grids into grids (``obstruction_grid_not_phi_closed``), is
    ρ^Γ-equivariant (``phi_hat_not_equivariant``) and composes
    (``phi_hat_composition``); the section lies on the grid
    (``section_value_outside_grid``), is Γ_I-equivariant
    (``section_not_equivariant``) and φ̂-compatible
    (``section_compatibility``); the zero vector lies on the grid
    (``zero_vector_outside_grid``) and is fixed by linearity.

    Checked here is what B_K's arrays read: every sample index lies in its
    chart and every Γ_I is a group (:func:`_domain_facts`), then B_K's
    composites, endpoints and identities (``composability_violated``,
    :func:`check_category`).  A grid that is not Γ-stable or misses a
    section value, the zero vector or a value of φ̂ raises ``ValueError``
    naming the chart or change.  E_K's sizes are B_K's, each object,
    morphism, pair (f, g) and triple counted n_e[I] times, the grid size of
    the chart I of the object or of f; E_K is built when
    ``obstruction_category`` is read.
    """
    rep = CheckReport("build_categories")
    indices = atlas.index_sets()
    blocks = []
    for I in indices:
        every = np.arange(len(atlas.charts[I].domain.points))
        for J in indices:
            if I == J:
                blocks.append((I, J, every, every))
            elif set(I) < set(J) and (I, J) in atlas.changes:
                change = atlas.changes[(I, J)]
                blocks.append((I, J, change.tilde, change.rho))
    bk = _Blocks(atlas, blocks)
    n_points = bk.n_points.tolist()

    # ----- B_K, when its indices and tables can be read -----
    objects = tuple(itertools.chain.from_iterable(
        itertools.product([I], range(n)) for I, n in zip(indices, n_points)
    ))
    tables_ok = _domain_facts(bk, rep)
    B = parts = None
    if tables_ok:
        one_point = np.zeros(int(bk.order.sum()), dtype=np.int64), _offsets(bk.order)
        arrays, missing, parts = _block_category(
            bk, np.ones(len(indices), dtype=np.int64), one_point,
            (np.zeros(len(blocks), dtype=np.int64), np.arange(len(blocks) + 1)),
        )
        morphisms = tuple(itertools.chain.from_iterable(
            itertools.product([I], [J], tilde.tolist(), atlas.charts[I].group.elements)
            for I, J, tilde, _ in blocks
        ))
        for f, g, I, K, z, _, gamma in missing:
            rep.fail("composability_violated", pair=(morphisms[f], morphisms[g]),
                     result=(I, K, z, gamma))
        B = FiniteCategory(objects, morphisms, *arrays)
        axioms = check_category(B)
        rep.merge(axioms)
        # the sizes of the category; ``merge`` passes failures on, not details
        rep.details["category_axioms"] = axioms.details

    # ----- E_K -----
    charts = [atlas.charts[I] for I in indices]
    n_e = _ints([len(chart.obstruction_points.num) for chart in charts])
    for I, chart in zip(indices, charts):
        for broken, what in (
            ((chart.grid_action < 0).any(), "the obstruction grid is not Γ-stable"),
            ((chart.section_on_grid < 0).any(), "a section value is no grid point"),
            (chart.obstruction_points.num.any(axis=1).all(), "the zero vector is no grid point"),
        ):
            if broken:
                raise ValueError(f"chart {I}: {what}")
    for I, J, _, _ in blocks:
        if (atlas.grid_map(I, J) < 0).any():
            raise ValueError(f"coordinate change {I}->{J}: φ̂ maps a grid point off the grid")
    # Γ_I on grid indices, eact[i][γ, e], and φ̂ of the k-th block on them,
    # each flat with where each chart or block starts
    eact = _flat(chart.grid_action for chart in charts)
    phis = _flat(atlas.grid_map(I, J) for I, J, _, _ in blocks)
    obj_ne, mor_ne = n_e.repeat(n_points), None if B is None else n_e[parts[0]]
    weights = None if B is None else mor_ne[B.pairs.f]
    # E_K's sizes, where B_K passes
    rep.details["category_axioms_E"] = {
        "objects": int(obj_ne.sum()),
        "morphisms": int(mor_ne.sum()),
        "composable_pairs": int(weights.sum()),
        "composable_triples": int((weights * B.pairs.triple_counts()).sum()),
    } if rep.ok else {}

    def obstruction_category():
        if B is None:
            return None
        e_objects = Labels(int(obj_ne.sum()), lambda: (
            (I, x, e) for (I, x), ne in zip(objects, obj_ne.tolist()) for e in range(ne)
        ))
        e_morphisms = Labels(int(mor_ne.sum()), lambda: (
            (I, J, y, e, gamma)
            for (I, J, y, gamma), ne in zip(morphisms, mor_ne.tolist()) for e in range(ne)
        ))
        return FiniteCategory(e_objects, e_morphisms, *_block_category(bk, n_e, eact, phis)[0])

    return CategoriesResult(domain_category=B, domain_parts=parts, report=rep,
                            build_obstruction=obstruction_category)


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


def quotient(n: int, a, b) -> np.ndarray:
    """The classes of items 0..n−1 under the equivalence generated by the
    pairs (a[k], b[k]): for each item, the smallest item of its class.

    Each round hooks the larger root of every pair still apart to the
    smaller one (to one of them where several pairs share it), then jumps
    pointers until every item points at its root."""
    root, a, b = np.arange(n), _ints(a), _ints(b)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return root
        root[np.maximum(ra, rb)[apart]] = np.minimum(ra, rb)[apart]
        while (root[root] != root).any():
            root = root[root]


def check_realizations(atlas: AtlasModel, B: FiniteCategory) -> CheckReport:
    """|K| ↔ |K̲| bijection and zero-set classes ↔ footprint samples.

    |K| is the quotient of B's objects by its morphisms.  Its classes are
    numbered, and the zero classes named, by their smallest object label
    in label order, which is not B's int order: ((1, 2), 0) < ((2,), 0)."""
    rep = CheckReport("realizations")
    n = len(B.objects)
    by_label = sorted(range(n), key=B.objects.__getitem__)
    rank = np.empty(n, dtype=np.int64)
    rank[by_label] = np.arange(n)
    src, tgt = rank[B.src], rank[B.tgt]
    root = quotient(n, src, tgt)
    smallest = root == np.arange(n)
    full = (np.cumsum(smallest) - 1)[root][rank]
    n_full = int(smallest.sum())
    inter = atlas.intermediate_classes()
    n_inter = int((inter == np.arange(len(inter))).sum())
    rep.details["full_classes"] = n_full
    rep.details["intermediate_classes"] = n_inter
    # canonical map: class of (I, x) in |K| -> class of (I, [x]) in |K̲|
    image = inter[_ints([atlas.sample_rows(I)[x] for I, x in B.objects])]
    mapping = np.zeros(n_full, dtype=np.int64)
    mapping[full] = image
    bad = np.zeros(n_full, dtype=bool)
    bad[full[image != mapping[full]]] = True
    for ci in _where(bad).tolist():
        rep.fail("projection_not_well_defined", full_class=ci)
    mapping = mapping[~bad].tolist()
    if len(set(mapping)) != len(mapping) or len(mapping) != n_inter:
        rep.fail("realization_not_bijective", full=n_full, intermediate=n_inter)
    # zero-object subcategory realizes to the footprint sample set; a zero
    # sample without a footprint label is reported and left out
    footprint_label: dict = {}
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        for x in chart.zero_sample_indices():
            if x in chart.footprint_map:
                footprint_label[(I, x)] = chart.footprint_map[x]
            else:
                rep.fail("zero_sample_without_footprint", index=I, point=x)
    label = [footprint_label.get(o) for o in B.objects]
    zero = np.array([lab is not None for lab in label], dtype=bool)
    both = zero[B.src] & zero[B.tgt]
    root = quotient(n, src[both], tgt[both])[rank]
    by_root: dict = {}
    for o in _where(zero).tolist():
        by_root.setdefault(int(root[o]), set()).add(label[o])
    labels = []
    for r in sorted(by_root):
        if len(by_root[r]) != 1:
            rep.fail("zero_class_with_mixed_footprints", representative=B.objects[by_label[r]])
        labels.extend(by_root[r])
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
        "points": q.points.strings(),
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
    # string rows of one length, and int perms of the right shape, are read at
    # once; anything else entry by entry, so that a fault raises as before
    rows = d["points"]
    width = {len(p) if type(p) is list else -1 for p in rows}
    if len(width) != 1 or -1 in width or not all(type(c) is str for p in rows for c in p):
        rows = [[parse_rat(c) for c in p] for p in rows]
    points = RationalArray.of(rows, f"{where}: points", (-1, -1))
    perms, n = _by_element(where, "perms", d["perms"], group.elements), len(points)
    suspects = range(len(perms))
    if {len(p) if type(p) is list else -1 for p in perms} <= {n}:
        table = np.array(perms)
        if table.dtype.kind == "i" and table.shape == (len(perms), n):
            suspects = _where(((table < 0) | (table >= n)).any(axis=1)).tolist()
    for k in suspects:  # an index out of range would reach the validators
        if len(perms[k]) != n or not all(0 <= i < n for i in perms[k]):
            raise ValueError(
                f"{where}: perms of {group.elements[k]!r} is no map of the {n} samples")
    affine = None
    if "affine" in d:
        affine, dim = [], points.num.shape[1]
        for a in _by_element(where, "affine", d["affine"], group.elements):
            mat, shift = RationalArray.from_json(a["matrix"], f"{where}: affine"), a["shift"]
            if mat.num.shape != (dim, dim) or len(shift) != dim:
                raise ValueError(f"{where}: affine is not {dim} x {dim} with a shift of {dim}")
            affine.append([[*row, parse_rat(c)] for row, c in zip(mat.fractions(), shift)])
    return GroupQuotientModel(points=points, group=group, perms=perms, affine=affine,
                              membership=d.get("membership"))


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


def _check_asts(chart: ChartModel | None, where: str, asts, predicate: bool = False) -> None:
    """:func:`~vfc.expressions.check_grammar` of ``asts`` (one predicate if
    ``predicate``) on ``chart``'s coordinates; none without either."""
    if chart is not None and asts is not None:
        dim = chart.domain.points.num.shape[1]
        check_grammar([asts] if predicate else asts, dim, where, predicate)


def _check_dims(chart: ChartModel | None, where: str, dims: tuple) -> None:
    """Raise ``ValueError`` naming ``where`` unless ``dims`` are distinct
    ints below ``chart``'s coordinate count (any ints without a chart)."""
    dim = chart.domain.points.num.shape[1] if chart is not None else math.inf
    if not (all(type(d) is int and 0 <= d < dim for d in dims) and len(set(dims)) == len(dims)):
        raise ValueError(f"{where}: {list(dims)!r} are not distinct coordinates below {dim}")


def _chart_from_json(d: dict, where: str) -> ChartModel:
    domain = _quotient_from_json(d["domain"], where)
    action = d["obstruction_action"]
    if action or d["obstruction_dim"] != 0:
        action = _by_element(where, "obstruction_action", action, domain.group.elements)
    chart = ChartModel(
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
    _check_dims(chart, f"{where}: tangent_dims", chart.tangent_dims)
    _check_asts(chart, f"{where}: section_asts", chart.section_asts)
    _check_asts(chart, f"{where}: membership", domain.membership, predicate=True)
    return chart


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


def _change_from_json(d: dict, charts: dict) -> CoordinateChangeModel:
    I, J = tuple(d["source"]), tuple(d["target"])
    tilde = tuple(d["tilde_indices"])
    rho_idx = {int(k): v for k, v in d["rho_idx"].items()}
    for key, K, values in (("tilde_indices", J, tilde), ("rho_idx", I, rho_idx.values())):
        if K not in charts:
            continue
        n = len(charts[K].domain.points)
        for v in values:
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"coordinate change {I}->{J}: {key}: {v!r} is not "
                                 f"a sample of chart {K}, which has {n}")
    change = CoordinateChangeModel(
        source_index=I,
        target_index=J,
        tilde_indices=tilde,
        rho_idx=rho_idx,
        phi_hat=RationalArray.from_json(d["phi_hat"], f"coordinate change {I}->{J}: phi_hat"),
        rho_asts=tuple(d["rho_asts"]) if "rho_asts" in d else None,
        domain_pred=d.get("domain_pred"),
        lifted_pred=d.get("lifted_pred"),
        tilde_tangent_dims=tuple(d["tilde_tangent_dims"]),
    )
    # ρ_IJ and the lift of Ũ_IJ are evaluated on chart J
    name = f"coordinate change {I}->{J}"
    _check_dims(charts.get(J), f"{name}: tilde_tangent_dims", change.tilde_tangent_dims)
    _check_asts(charts.get(J), f"{name}: rho_asts", change.rho_asts)
    _check_asts(charts.get(J), f"{name}: lifted_pred", change.lifted_pred, predicate=True)
    return change


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
        "changes": [_change_to_json(c) for (_, _), c in sorted(atlas.changes.items())],
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
        c = _change_from_json(cd, charts)
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
