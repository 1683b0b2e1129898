"""Workload definitions, the toy-atlas generator and the oracles.

Nothing here imports ``vfc``: the oracles are computed from the workload's
own parameters (isotropy orders, the generator's cover), never from the
program's output, so a fault in the program cannot also fault its check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

#: name -> (kind, parameters).  ``p`` and ``q`` are the isotropy orders of
#: the two disk charts of the example, i.e. the spindle S²(p, q).
WORKLOADS = {
    "football-euler-n12": ("run", {"example": "football-euler", "density": 12, "p": 2, "q": 3}),
    "sphere-euler-n48": ("run", {"example": "sphere-euler", "density": 48, "p": 1, "q": 1}),
    "toy-atlas-check": ("check", {"atlases": 32}),
}

#: The shapes of the toy atlases (point count, chart count, cover sizes,
#: isotropy orders) come from this fixed stream, so every ``--seed`` checks
#: atlases of the same sizes and a pass does the same work whatever the seed.
#: The seed relabels the points, renumbers the charts and shuffles the set.
TOY_DESIGN_SEED = 20150806

#: files in a workload's output directory: the toy specs (generator
#: arguments, for the oracles) and the atlases, one JSON document a line
TOY_SPECS = "toy-specs.json"
TOY_ATLASES = "toy-atlases.json"

#: tolerance on the position of a zero at a disk centre
CENTRE_TOL = 1e-9


# ---------------------------------------------------------------------------
# toy atlases
# ---------------------------------------------------------------------------


def toy_shapes(count: int) -> list[dict]:
    """The fixed design: ``count`` covers drawn like ``random_toy_atlas``
    (2–3 charts over 4–7 points, isotropy orders in {1, 2, 3}), on point
    indices ``0..nx-1`` and chart numbers ``1..ncharts``."""
    rng = random.Random(TOY_DESIGN_SEED)
    shapes = []
    for _ in range(count):
        nx = rng.randint(4, 7)
        ncharts = rng.randint(2, 3)
        cover = {}
        for i in range(1, ncharts + 1):
            cover[i] = set(rng.sample(range(nx), rng.randint(2, nx)))
        for k in range(nx):
            if not any(k in s for s in cover.values()):
                cover[1 + (k % ncharts)].add(k)
        orders = {i: rng.choice([1, 2, 3]) for i in cover}
        shapes.append({"nx": nx, "cover": cover, "orders": orders})
    return shapes


def toy_specs(seed: int, count: int) -> list[dict]:
    """The toy atlases of one run: the fixed shapes, relabelled by ``seed``.

    Each spec holds the arguments of ``build_toy_atlas`` in JSON form:
    ``x_labels``, ``cover`` (chart number as a string -> labels) and
    ``orders``.
    """
    rng = random.Random(seed)
    specs = []
    for shape in toy_shapes(count):
        nx = shape["nx"]
        names = [f"x{k}" for k in rng.sample(range(100), nx)]
        charts = list(shape["cover"])
        renumber = dict(zip(charts, rng.sample(charts, len(charts))))
        specs.append({
            "x_labels": sorted(names),
            "cover": {
                str(renumber[i]): sorted(names[k] for k in pts)
                for i, pts in sorted(shape["cover"].items())
            },
            "orders": {str(renumber[i]): o for i, o in sorted(shape["orders"].items())},
        })
    rng.shuffle(specs)
    return specs


def _cyclic(n: int) -> tuple[list[str], dict]:
    """Z_n as ``vfc`` labels it: elements ``e, g1, …, g{n-1}``."""
    labels = ["e" if k == 0 else f"g{k}" for k in range(n)]
    table = {(labels[a], labels[b]): labels[(a + b) % n] for a in range(n) for b in range(n)}
    return labels, table


def _product(factors: list) -> tuple[list[str], dict]:
    """Direct product, labels joined with ``|`` in factor order."""
    if len(factors) == 1:
        return factors[0]
    elements = ["|".join(c) for c in itertools.product(*[f[0] for f in factors])]
    table = {
        (a, b): "|".join(
            f[1][(x, y)] for f, x, y in zip(factors, a.split("|"), b.split("|"))
        )
        for a in elements
        for b in elements
    }
    return elements, table


def _project(label: str, J: tuple, I: tuple) -> str:
    parts = label.split("|") if len(J) > 1 else [label]
    return "|".join(parts[J.index(i)] for i in I)


def toy_atlas_document(spec: dict) -> dict:
    """The ``vfc-atlas/1`` document of a toy atlas, written from its spec.

    Charts U_I = F_I × Γ_I over the footprint F_I, with Γ_I = Π_{i∈I} Z_{o_i}
    acting on the second factor, obstruction 0, and for I ⊊ J the coordinate
    change that projects Γ_J onto Γ_I: the shape ``build_toy_atlas`` builds.
    """
    x_labels = list(spec["x_labels"])
    cover = {int(i): set(s) for i, s in spec["cover"].items()}
    basics = {i: _cyclic(int(spec["orders"].get(str(i), 1))) for i in cover}
    sets = [I for I, _ in _index_sets(spec)]
    charts, layouts = {}, {}
    for I in sets:
        elements, table = _product([basics[i] for i in I])
        foot = sorted(set(x_labels).intersection(*(cover[i] for i in I)))
        pts = [(x, g) for x in foot for g in elements]
        layout = {p: k for k, p in enumerate(pts)}
        layouts[I] = layout
        charts[",".join(map(str, I))] = {
            "index": list(I),
            "domain": {
                "points": [
                    [f"{x_labels.index(x)}/1", f"{elements.index(g)}/1"] for x, g in pts
                ],
                "group": {
                    "elements": elements,
                    "identity": elements[0],
                    "table": [[a, b, table[(a, b)]] for (a, b) in sorted(table)],
                },
                "perms": {
                    d: [layout[(x, table[(d, g)])] for x, g in pts] for d in elements
                },
            },
            "obstruction_dim": 0,
            "obstruction_action": {},
            "obstruction_points": [[]],
            "section_samples": [[] for _ in pts],
            "footprint_map": {str(k): x for (x, _), k in layout.items()},
            "tangent_dims": [],
        }
    changes = [
        {
            "source": list(I),
            "target": list(J),
            "tilde_indices": list(range(len(layouts[J]))),
            "rho_idx": {
                str(k): layouts[I][(x, _project(g, J, I))]
                for (x, g), k in layouts[J].items()
            },
            "phi_hat": {"rows": 0, "cols": 0, "entries": []},
            "tilde_tangent_dims": [],
        }
        for I in sets
        for J in sets
        if set(I) < set(J)
    ]
    changes.sort(key=lambda c: (c["source"], c["target"]))
    return {
        "schema": "vfc-atlas/1",
        "x_samples": x_labels,
        "cover": {str(i): sorted(s) for i, s in cover.items()},
        "charts": charts,
        "changes": changes,
    }


def _index_sets(spec: dict) -> list[tuple[tuple[int, ...], frozenset]]:
    """Index sets I with nonempty footprint F_I, with F_I."""
    cover = {int(i): set(s) for i, s in spec["cover"].items()}
    out = []
    for r in range(1, len(cover) + 1):
        for I in itertools.combinations(sorted(cover), r):
            foot = set(spec["x_labels"])
            for i in I:
                foot &= cover[i]
            if foot:
                out.append((I, frozenset(foot)))
    return out


def _group_order(spec: dict, I: tuple) -> int:
    out = 1
    for i in I:
        out *= int(spec["orders"][str(i)])
    return out


def toy_oracle(spec: dict) -> dict:
    """Closed forms for one toy atlas, from its cover alone.

    - realization full classes and zero classes: |X|;
    - strong-cocycle triples: strict chains I ⊂ J ⊂ K of index sets with
      nonempty footprint;
    - B_K objects: Σ_I |F_I|·|Γ_I|;
    - B_K morphisms: Σ_{I ⊆ J} |F_J|·|Γ_J|·|Γ_I|.
    """
    sets = _index_sets(spec)
    chains = sum(
        1
        for (I, _), (J, _), (K, _) in itertools.product(sets, repeat=3)
        if set(I) < set(J) < set(K)
    )
    objects = sum(len(F) * _group_order(spec, I) for I, F in sets)
    morphisms = sum(
        len(FJ) * _group_order(spec, J) * _group_order(spec, I)
        for (I, _), (J, FJ) in itertools.product(sets, repeat=2)
        if set(I) <= set(J)
    )
    return {
        "classes": len(spec["x_labels"]),
        "cocycle_triples": chains,
        "bk_objects": objects,
        "bk_morphisms": morphisms,
    }


# ---------------------------------------------------------------------------
# oracles on reports
# ---------------------------------------------------------------------------


def euler_errors(report: dict, p: int, q: int) -> list[str]:
    """Check a ``vfc run --json`` report of the spindle S²(p, q).

    The total is χ^orb = 1/p + 1/q; there are exactly two zeros, one at
    the centre of each disk chart, each with sign +1 and weight 1/p resp.
    1/q.
    """
    errors = []
    if report.get("ok") is not True:
        errors.append("report is not ok")
    want_total = Fraction(1, p) + Fraction(1, q)
    try:
        total = Fraction(report["total"])
    except (KeyError, TypeError, ValueError):
        return errors + ["report has no total"]
    if total != want_total:
        errors.append(f"total {total} != 1/{p} + 1/{q} = {want_total}")
    zeros = report.get("zero_set", {}).get("zeros", [])
    if len(zeros) != 2:
        return errors + [f"{len(zeros)} zeros, expected 2"]
    want = {(1,): Fraction(1, p), (2,): Fraction(1, q)}
    seen = set()
    for z in zeros:
        chart = tuple(z.get("chart", ()))
        if chart not in want or chart in seen:
            errors.append(f"zero in unexpected chart {chart}")
            continue
        seen.add(chart)
        if z.get("sign") != 1:
            errors.append(f"zero in chart {chart} has sign {z.get('sign')}")
        if Fraction(z.get("weight", "0")) != want[chart]:
            errors.append(
                f"zero in chart {chart} has weight {z.get('weight')}, expected {want[chart]}"
            )
        coords = z.get("coordinates", ())
        if not coords or max(abs(c) for c in coords) > CENTRE_TOL:
            errors.append(f"zero in chart {chart} at {coords}, not at the disk centre")
    return errors


def _stage(report: dict, name: str) -> dict:
    for st in report.get("stages", ()):
        if st["name"] == name:
            return st
    return {}


def toy_errors(report: dict, oracle: dict) -> list[str]:
    """Check a ``vfc check --json`` report of a toy atlas against its oracle."""
    errors = []
    if report.get("ok") is not True:
        errors.append("report is not ok")
    real = _stage(report, "realizations").get("details", {})
    for key in ("full_classes", "zero_classes"):
        if real.get(key) != oracle["classes"]:
            errors.append(f"realizations {key} {real.get(key)} != |X| = {oracle['classes']}")
    triples = _stage(report, "cocycle[strong]").get("details", {}).get("triples")
    if triples != oracle["cocycle_triples"]:
        errors.append(
            f"strong-cocycle triples {triples} != chains {oracle['cocycle_triples']}"
        )
    return errors


def category_errors(bk_sizes: tuple[int, int], oracle: dict) -> list[str]:
    """Check the B_K object and morphism counts of a toy atlas."""
    want = (oracle["bk_objects"], oracle["bk_morphisms"])
    if tuple(bk_sizes) != want:
        return [f"B_K (objects, morphisms) {tuple(bk_sizes)} != {want}"]
    return []

