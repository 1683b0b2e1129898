"""Outside-in layer tracing of the ``vfc`` modules.

``install`` replaces each traced public function by a wrapper, in its home
module and in every ``vfc`` module that imported it by name, and each
traced method on its class.  A wrapper records a span (name, start, end,
parent) for the outermost call of its function only, so recursion is not
counted twice; spans stay in memory until ``write_spans``.  Nothing in the
program changes.  Work counters are read after a call returns, from its
arguments or its result, inside a ``perfbench.hook`` span whose time is
taken out of every enclosing span, so that no layer is charged for it.
``zeroset_branched.newton_seeds`` is the one counter derived from inputs
(see ``newton_seeds``) rather than read from what the program returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from collections import Counter

MODULES = (
    "examples_cli",
    "charts_atlas",
    "expressions",
    "zeroset_branched",
    "reduction_perturb",
    "exterior_engine",
)

#: (home module, function or Class.method).  Functions outside the per-layer
#: list (the two roots, ``check_atlas_model``, ``build_pruned_category``,
#: ``EquivariantNorms.validate``, ``fundamental_class_0d``,
#: ``zero_set_report``) are traced so that the time they take is charged to
#: their own module's ``self_s`` and not to the caller's.
TRACED = (
    ("examples_cli", "run_example"),
    ("examples_cli", "check_atlas_data"),
    ("examples_cli", "build_example"),
    ("examples_cli", "emit_json"),
    ("charts_atlas", "atlas_from_json"),
    ("charts_atlas", "check_atlas_model"),
    ("charts_atlas", "check_chart"),
    ("charts_atlas", "check_coordinate_change"),
    ("charts_atlas", "check_cocycle"),
    ("charts_atlas", "check_tame_and_filtration"),
    ("charts_atlas", "build_categories"),
    ("charts_atlas", "check_category"),
    ("charts_atlas", "check_realizations"),
    ("expressions", "value_and_jacobian"),
    ("zeroset_branched", "find_zeros"),
    ("zeroset_branched", "complete_groupoid"),
    ("zeroset_branched", "hausdorff_complete"),
    ("zeroset_branched", "weight_function"),
    ("zeroset_branched", "wnb_check"),
    ("zeroset_branched", "fundamental_class_0d"),
    ("zeroset_branched", "zero_set_report"),
    ("reduction_perturb", "check_reduction"),
    ("reduction_perturb", "build_pruned_category"),
    ("reduction_perturb", "EquivariantNorms.validate"),
    ("reduction_perturb", "compute_adaptedness_constants"),
    ("reduction_perturb", "check_adapted"),
    ("reduction_perturb", "check_perturbation"),
    ("reduction_perturb", "epsilon_closure_radius"),
    ("exterior_engine", "RationalMatrix.matvec"),
    ("exterior_engine", "zero_sign"),
)

#: span time of these is reported as ``<name>_s``
TIMED = (
    "examples_cli.build_example",
    "examples_cli.emit_json",
    "charts_atlas.atlas_from_json",
    "charts_atlas.check_chart",
    "charts_atlas.check_coordinate_change",
    "charts_atlas.check_cocycle",
    "charts_atlas.check_tame_and_filtration",
    "charts_atlas.check_realizations",
    "charts_atlas.build_categories",
    "charts_atlas.check_category",
    "expressions.value_and_jacobian",
    "zeroset_branched.find_zeros",
    "reduction_perturb.check_reduction",
    "reduction_perturb.compute_adaptedness_constants",
    "reduction_perturb.check_adapted",
    "reduction_perturb.check_perturbation",
    "reduction_perturb.epsilon_closure_radius",
    "exterior_engine.matvec",
    "exterior_engine.zero_sign",
)

#: the number of outermost calls of these is reported as ``<name>_calls``
CALLED = (
    "expressions.value_and_jacobian",
    "reduction_perturb.epsilon_closure_radius",
    "exterior_engine.matvec",
)

#: ``zeroset_branched.groupoid_s``: completion, Hausdorff quotient, Λ, wnb
GROUPOID = (
    "zeroset_branched.complete_groupoid",
    "zeroset_branched.hausdorff_complete",
    "zeroset_branched.weight_function",
    "zeroset_branched.wnb_check",
)

COUNTERS = (
    "examples_cli.report_bytes",
    "charts_atlas.objects",
    "charts_atlas.morphisms",
    "charts_atlas.composable_pairs",
    "charts_atlas.composable_triples",
    "charts_atlas.cocycle_triples",
    "zeroset_branched.newton_seeds",
    "zeroset_branched.zeros_found",
)

HOOK = "perfbench.hook"


def span_name(module: str, attr: str) -> str:
    """``exterior_engine.RationalMatrix.matvec`` -> ``exterior_engine.matvec``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def composable_triples(cat) -> int:
    """Composable triples (f, g, h) of a ``FiniteCategory``."""
    out_degree = Counter(cat.source[m] for m in cat.morphisms)
    return sum(out_degree[cat.target[g]] for (_, g) in cat.compose)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.open = [-1]
        self.counters: Counter = Counter()
        self.check_category_triples = 0
        #: (objects, morphisms) of B_K, one entry per ``build_categories``
        self.bk_sizes: list[tuple[int, int]] = []
        self._hook_id = self._name_id(HOOK)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        active = [False]
        clock = time.perf_counter
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        open_spans = self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            idx = len(starts)
            names.append(nid)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
                active[0] = False
            if after is not None:
                self._hook(after, args, kwargs, result)
            return result

        return traced

    def _hook(self, after, args, kwargs, result) -> None:
        idx = len(self.span_start)
        self.span_name.append(self._hook_id)
        self.span_parent.append(self.open[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        after(self, args, kwargs, result)
        self.span_end[idx] = time.perf_counter()

    # ----- counters read at the layer boundaries -----

    def _after_build_categories(self, args, kwargs, result) -> None:
        B, E = result.domain_category, result.obstruction_category
        self.bk_sizes.append((len(B.objects), len(B.morphisms)))
        for cat in (B, E):
            self.counters["charts_atlas.objects"] += len(cat.objects)
            self.counters["charts_atlas.morphisms"] += len(cat.morphisms)
            self.counters["charts_atlas.composable_pairs"] += len(cat.compose)
            self.counters["charts_atlas.composable_triples"] += composable_triples(cat)

    def _after_check_category(self, args, kwargs, result) -> None:
        self.check_category_triples += composable_triples(args[0])

    def _after_check_cocycle(self, args, kwargs, result) -> None:
        self.counters["charts_atlas.cocycle_triples"] += result.details.get("triples", 0)

    def _after_find_zeros(self, args, kwargs, result) -> None:
        atlas, red = args[0], args[1]
        seeds = kwargs.get("seeds", args[3] if len(args) > 3 else None)
        self.counters["zeroset_branched.newton_seeds"] += newton_seeds(atlas, red, seeds)
        self.counters["zeroset_branched.zeros_found"] += len(result.zeros)

    def _after_emit_json(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counters["examples_cli.report_bytes"] += os.path.getsize(path)

    HOOKS = {
        "charts_atlas.build_categories": _after_build_categories,
        "charts_atlas.check_category": _after_check_category,
        "charts_atlas.check_cocycle": _after_check_cocycle,
        "zeroset_branched.find_zeros": _after_find_zeros,
        "examples_cli.emit_json": _after_emit_json,
    }

    def install(self) -> None:
        """Wrap every entry of ``TRACED``; raise if one is missing."""
        modules = [importlib.import_module(f"vfc.{m}") for m in MODULES]
        home_of = dict(zip(MODULES, modules))
        for module_name, attr in TRACED:
            home = home_of[module_name]
            name = span_name(module_name, attr)
            after = self.HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], after))
                continue
            original = getattr(home, attr)
            traced = self.wrap(name, original, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    # ----- results -----

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        children = [0.0] * n
        # hook time anywhere below a span; a child's index exceeds its parent's
        hooks = [0.0] * n
        for i in reversed(range(n)):
            parent = self.span_parent[i]
            if parent >= 0:
                children[parent] += duration[i]
                hooks[parent] += duration[i] if self.span_name[i] == self._hook_id else hooks[i]
        total: Counter = Counter()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        # inside a find_zeros span; a parent's index is below its child's
        in_newton = [False] * n
        newton_evaluations = 0
        for i in range(n):
            name = self.names[self.span_name[i]]
            total[name] += duration[i] - hooks[i]
            calls[name] += 1
            self_s[name.split(".")[0]] += duration[i] - children[i]
            parent = self.span_parent[i]
            in_newton[i] = name == "zeroset_branched.find_zeros" or (
                parent >= 0 and in_newton[parent]
            )
            if in_newton[i] and name == "expressions.value_and_jacobian":
                newton_evaluations += 1
        out = {f"{name}_s": total[name] for name in TIMED}
        out.update({f"{name}_calls": calls[name] for name in CALLED})
        out["zeroset_branched.groupoid_s"] = sum(total[name] for name in GROUPOID)
        out.update({name: self.counters[name] for name in COUNTERS})
        out["zeroset_branched.newton_value_and_jacobian_calls"] = newton_evaluations
        seconds = total["charts_atlas.check_category"]
        out["charts_atlas.check_category_triples_per_s"] = (
            self.check_category_triples / seconds if seconds > 0 else 0.0
        )
        out.update({f"{m}.self_s": self_s[m] for m in MODULES})
        return out

    def write_spans(self, path: str, pass_index: int) -> None:
        spans = [
            [
                self.span_name[i],
                self.span_parent[i],
                round(self.span_start[i], 9),
                round(self.span_end[i], 9),
            ]
            for i in range(len(self.span_start))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pass": pass_index, "names": self.names, "spans": spans}, fh)


def newton_seeds(atlas, red, seeds) -> int:
    """Newton seeds of one ``find_zeros`` call, derived from its arguments by
    the seed rule its docstring states: the given seeds of a chart, else one
    V_I sample per Γ_I-orbit, over the charts that carry a section.

    This is a count of the inputs, not of the work ``find_zeros`` does: a
    change to its seeding leaves it as it was.  The Newton work it does is
    measured by ``zeroset_branched.newton_value_and_jacobian_calls``."""
    count = 0
    for I in atlas.index_sets():
        chart = atlas.charts[I]
        if chart.section_asts is None or (
            not chart.tangent_dims and chart.obstruction_dim == 0
        ):
            continue
        if seeds is not None and I in seeds:
            count += len(seeds[I])
        else:
            count += sum(
                1 for x in red.sets.get(I, ()) if x == min(chart.domain.orbit(x))
            )
    return count
