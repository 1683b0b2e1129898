"""Sample points as one ``RationalArray`` per chart: the constructor's one
conversion, the ``vfc-atlas/1`` round trip, the float view, the form the
builders hand over, and what an in-process pass imports.  Points beyond
int64 are in ``test_examples_cli.py``, with the other exit-3 arrays."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vfc
from vfc.charts_atlas import (
    GroupQuotientModel,
    RationalArray,
    atlas_from_json,
    atlas_to_json,
    cyclic_group,
)
from vfc.examples_cli import ExampleDescriptor, build_example

F = Fraction
INT64_MAX = 2**63 - 1


def test_constructor_converts_rational_rows_once():
    domain = GroupQuotientModel(
        points=((F(1, 2), F(0)), (F(-3, 4), 2)), group=cyclic_group(2), perms=[(0, 1), (1, 0)]
    )
    assert isinstance(domain.points, RationalArray)
    assert (domain.points.num.tolist(), domain.points.den) == ([[2, 0], [-3, 8]], 4)
    assert domain.coordinates.tolist() == [[0.5, 0.0], [-0.75, 2.0]]
    assert not domain.coordinates.flags.writeable
    # a RationalArray is taken as it is
    again = GroupQuotientModel(points=domain.points, group=domain.group, perms=domain.perms)
    assert again.points.num is domain.points.num and again.points.den == 4


def test_constructor_takes_no_points_and_rejects_ragged_rows():
    empty = GroupQuotientModel(points=(), group=cyclic_group(1), perms=[()])
    assert empty.points.num.shape == (0, 0) and empty.coordinates.shape == (0, 0)
    with pytest.raises(ValueError, match="points: not an array of shape"):
        GroupQuotientModel(points=((F(0),), (F(1), F(2))), group=cyclic_group(1), perms=[(0, 1)])


@pytest.mark.parametrize("name", ["sphere-euler", "football-euler", "football-atlas"])
def test_points_survive_the_json_round_trip(name):
    """The builders hand over points in lowest terms, as the reader makes them."""
    atlas = build_example(ExampleDescriptor(name, {"density": 8})).atlas
    again = atlas_from_json(json.loads(json.dumps(atlas_to_json(atlas))))
    for I, chart in atlas.charts.items():
        got, want = again.charts[I].domain, chart.domain
        assert (got.points.num.tolist(), got.points.den) == (
            want.points.num.tolist(), want.points.den)
        assert got.coordinates.tolist() == want.coordinates.tolist()
    assert atlas_to_json(again) == atlas_to_json(atlas)


_numerators = st.one_of(st.integers(-(2**53), 2**53), st.integers(-INT64_MAX, INT64_MAX))
_denominators = st.one_of(st.integers(1, 2**53), st.integers(1, INT64_MAX))


@settings(max_examples=300, deadline=None)
@given(st.lists(_numerators, max_size=12), _denominators)
def test_float_view_is_the_float_of_each_fraction(nums, den):
    points = RationalArray(np.array(nums, dtype=np.int64).reshape(-1, 1), den)
    want = [[float(F(n, den))] for n in nums]
    assert points.floats().tolist() == want
    domain = GroupQuotientModel(points=points, group=cyclic_group(1), perms=[range(len(nums))])
    assert domain.coordinates.tolist() == want


def test_built_charts_hold_their_points_as_rational_arrays():
    atlas = build_example(ExampleDescriptor("football-euler", {"density": 12})).atlas
    for I, chart in atlas.charts.items():
        points = chart.domain.points
        assert isinstance(points, RationalArray) and points.num.dtype == np.int64
        assert points.num.shape == (chart.domain.perms.shape[1], 4 if I == (1, 2) else 2)


def test_builders_make_no_fraction_per_sample(monkeypatch):
    """Building an Euler example makes as many ``Fraction`` s at density 48
    as at density 8: those of its expressions, none per sample."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    counts = []
    for density in (8, 48):
        monkeypatch.setattr(Fraction, "__new__", counted)
        build_example(ExampleDescriptor("football-euler", {"density": density}))
        monkeypatch.undo()
        counts.append(len(made))
        made.clear()
    assert counts[0] == counts[1]


#: passes that must not load ``numpy.ma`` (which the first plain ``np.unique``
#: does) or ``click``: two runs, and a check of a document with a reduction,
#: norms and ν, whose every stage runs
PASSES = {
    "sphere-euler-run":
        "code = run_example(ExampleDescriptor('sphere-euler', {'density': 12}))[1]",
    "football-euler-run":
        "code = run_example(ExampleDescriptor('football-euler', {'density': 12}))[1]",
    "football-euler-check": (
        "built = build_example(ExampleDescriptor('football-euler', {'density': 8}))\n"
        "doc = json.loads(json.dumps(example_to_json(built)))\n"
        "assert {'reduction', 'norms', 'perturbation'} <= set(doc)\n"
        "code = 0 if check_atlas_data(doc)['ok'] else 1"
    ),
}


@pytest.mark.parametrize("run", PASSES.values(), ids=PASSES)
def test_an_euler_pass_loads_neither_numpy_ma_nor_click(run):
    code = (
        "import json, sys\n"
        "from vfc.examples_cli import ExampleDescriptor, build_example, check_atlas_data, "
        "example_to_json, run_example\n"
        f"{run}\n"
        "print(code, 'numpy.ma' in sys.modules, 'click' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vfc.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.split() == ["0", "False", "False"]
