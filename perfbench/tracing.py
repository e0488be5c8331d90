"""Span and counter tracing of ``treeshift.cli.main``, from outside the program.

``Tracer.install`` replaces, for the duration of a traced run only, the
layer functions the ``cli`` module imported (``load_tree``,
``alpha_profile``, ``construct_backward_cyclic``, ...) with wrappers that
record a span per call, and ``ShiftOperator`` with a subclass whose methods
do the same.  Tree models, weight assignments and backward-shift specs
returned by the loaders get a counting subclass of their own class, so every
``isinstance`` dispatch in the program still sees the family class while
``children``/``parent``/``__contains__``/``weight`` calls are counted.  A
count is charged to the innermost open span.

Spans (name, layer, start, end, parent span, analysis id) stay in memory
until ``write`` stores them; ``layer_metrics`` turns them into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# cli module attribute -> layer (module) it comes from.
TRACED_FUNCTIONS = {
    "load_tree": "trees", "materialize_window": "trees", "branching_index": "trees",
    "leaves": "trees",
    "load_weights": "weights",
    "vector_to_dense": "shifts",
    "alpha_profile": "asymptotics", "adjoint_profile": "asymptotics",
    "stable_subtree": "asymptotics", "classify": "asymptotics",
    "isometric_asymptote": "asymptote", "intertwining_residual": "asymptote",
    "adjoint_isometric_asymptote": "asymptote", "adjoint_intertwining_residual": "asymptote",
    "similar_to_isometry": "asymptote", "similar_to_coisometry": "asymptote",
    "boundary_deficiency": "asymptote",
    "build_tilde_quasiaffinity": "similarity", "build_leaf_similarity": "similarity",
    "backward_spec_from_json": "cyclicity", "cyclicity_verdict": "cyclicity",
    "construct_backward_cyclic": "cyclicity", "verify_cyclic_candidate": "cyclicity",
    "range_membership_report": "cyclicity", "cokernel_dimension": "cyclicity",
}
SHIFT_METHODS = ("operator_norm", "dense_truncation", "apply", "apply_adjoint", "power_closed")
LAYERS = ("trees", "weights", "shifts", "asymptotics", "asymptote", "similarity", "cyclicity")

# Per-layer metric -> unit; BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "cli.self_s": "s",
    "trees.self_s": "s", "trees.load_s": "s", "trees.window_s": "s",
    "trees.window_vertices": "count", "trees.children_calls": "count",
    "trees.parent_calls": "count", "trees.contains_calls": "count",
    "weights.self_s": "s", "weights.load_s": "s", "weights.weight_calls": "count",
    "shifts.self_s": "s", "shifts.norm_s": "s", "shifts.dense_s": "s",
    "shifts.dense_bytes_computed": "bytes", "shifts.apply_calls": "count",
    "asymptotics.self_s": "s", "asymptotics.alpha_s": "s", "asymptotics.adjoint_s": "s",
    "asymptotics.stable_s": "s", "asymptotics.classify_s": "s",
    "asymptotics.alpha_weight_calls": "count", "asymptotics.adjoint_parent_calls": "count",
    "asymptotics.alpha_settled_frac": "ratio", "asymptotics.adjoint_settled_frac": "ratio",
    "asymptote.self_s": "s", "asymptote.forward_s": "s", "asymptote.adjoint_s": "s",
    "asymptote.residual_s": "s", "asymptote.similar_s": "s",
    "asymptote.extra_weight_calls": "count",
    "similarity.self_s": "s", "similarity.witness_s": "s", "similarity.blocks": "count",
    "cyclicity.self_s": "s", "cyclicity.verdict_s": "s", "cyclicity.construct_s": "s",
    "cyclicity.modifications": "count", "cyclicity.weight_calls": "count",
    "cyclicity.krylov_s": "s", "cyclicity.krylov_flops_computed": "flop",
    "cyclicity.rank": "count", "cyclicity.dimension": "count", "cyclicity.cokernel_s": "s",
    "trace.overhead_frac": "ratio", "trace.spans": "count",
}

# Self time of these spans (by span name) gives the named time metrics.
_SPAN_TIMES = {
    "trees.load_s": ("trees.load_tree",), "trees.window_s": ("trees.materialize_window",),
    "weights.load_s": ("weights.load_weights",),
    "shifts.norm_s": ("shifts.operator_norm",), "shifts.dense_s": ("shifts.dense_truncation",),
    "asymptotics.alpha_s": ("asymptotics.alpha_profile",),
    "asymptotics.adjoint_s": ("asymptotics.adjoint_profile",),
    "asymptotics.stable_s": ("asymptotics.stable_subtree",),
    "asymptotics.classify_s": ("asymptotics.classify",),
    "asymptote.forward_s": ("asymptote.isometric_asymptote",),
    "asymptote.adjoint_s": ("asymptote.adjoint_isometric_asymptote",),
    "asymptote.residual_s": ("asymptote.intertwining_residual",
                             "asymptote.adjoint_intertwining_residual"),
    "asymptote.similar_s": ("asymptote.similar_to_isometry", "asymptote.similar_to_coisometry"),
    "similarity.witness_s": ("similarity.build_tilde_quasiaffinity",
                             "similarity.build_leaf_similarity"),
    "cyclicity.verdict_s": ("cyclicity.cyclicity_verdict",),
    "cyclicity.construct_s": ("cyclicity.construct_backward_cyclic",),
    "cyclicity.krylov_s": ("cyclicity.verify_cyclic_candidate",),
    "cyclicity.cokernel_s": ("cyclicity.cokernel_dimension",),
}


class _Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "analysis", "child_time")

    def __init__(self, sid, name, layer, start, parent, analysis):
        self.id, self.name, self.layer, self.start = sid, name, layer, start
        self.parent, self.analysis = parent, analysis
        self.end = None
        self.child_time = 0.0

    def self_time(self):
        return self.end - self.start - self.child_time

    def to_json(self):
        return {"id": self.id, "name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "analysis": self.analysis}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()   # (event, innermost span name) -> calls
        self.sums = Counter()     # quantities read off returned objects
        self.analysis = None
        self._subclasses = {}
        self._saved = {}

    # -- recording --

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = _Span(len(self.spans), name, layer, time.perf_counter(),
                     parent.id if parent else None, self.analysis)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += span.end - span.start

    def call(self, name, layer, fn, *args, **kwargs):
        span = self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def count(self, event):
        self.counts[(event, self._stack[-1].name if self._stack else None)] += 1

    def run_analysis(self, analysis_id, main, argv):
        """One traced ``main(argv)`` call under a root span of layer ``cli``."""
        self.analysis = analysis_id
        return self.call("cli.main", "cli", main, argv)

    # -- installation --

    def _counting(self, cls, methods):
        """Subclass of ``cls`` counting calls to ``methods`` (name -> event)."""
        key = (cls, tuple(methods))
        if key not in self._subclasses:
            tracer = self

            def counted(orig, event):
                def method(obj, *args):
                    tracer.count(event)
                    return orig(obj, *args)
                return method

            ns = {m: counted(getattr(cls, m), e) for m, e in methods.items()}
            self._subclasses[key] = type(cls.__name__, (cls,), ns)
        return self._subclasses[key]

    def _observe(self, attr, result, args):
        """Counts read off the values the wrapped functions take and return."""
        if attr == "load_tree":
            result.__class__ = self._counting(type(result), {
                "children": "children", "parent": "parent", "__contains__": "contains"})
        elif attr == "load_weights":
            result.__class__ = self._counting(type(result), {"weight": "weight"})
        elif attr == "backward_spec_from_json":
            result.__class__ = self._counting(type(result), {"weight": "backward_weight"})
        elif attr == "materialize_window":
            self.sums["window_vertices"] += len(result)
        elif attr == "alpha_profile":
            self.sums["alpha_records"] += len(result.records)
            self.sums["alpha_settled"] += sum(r.settled() for r in result.records.values())
        elif attr == "adjoint_profile":
            records = result.profile.records
            self.sums["adjoint_records"] += len(records)
            self.sums["adjoint_settled"] += sum(r.settled() for r in records.values())
        elif attr in ("build_tilde_quasiaffinity", "build_leaf_similarity"):
            self.sums["blocks"] += len(result.blocks)
        elif attr == "construct_backward_cyclic":
            self.sums["modifications"] += len(result.modifications)
        elif attr == "verify_cyclic_candidate":
            spec, candidate, window_k = args[:3]
            depth = max(max(k for _, k in candidate.schedule), window_k)
            n = spec.branches * (depth + 1)
            self.sums["krylov_flops"] += 2 * n * n * depth
            self.sums["rank"] += result.rank
            self.sums["dimension"] += result.dimension

    def _wrap_function(self, attr, layer, fn):
        name = f"{layer}.{attr}"

        def traced(*args, **kwargs):
            result = self.call(name, layer, fn, *args, **kwargs)
            self._observe(attr, result, args)
            return result

        return traced

    def _shift_subclass(self, base):
        tracer = self

        def spanned(meth):
            orig = getattr(base, meth)

            def method(obj, *args, **kwargs):
                if meth == "dense_truncation":
                    tracer.sums["dense_bytes"] += 8 * len(args[0]) ** 2
                return tracer.call(f"shifts.{meth}", "shifts", orig, obj, *args, **kwargs)
            return method

        return type(base.__name__, (base,), {m: spanned(m) for m in SHIFT_METHODS})

    def install(self, cli):
        """Swap the traced names into the ``cli`` module; ``uninstall`` restores them."""
        self._saved = {attr: getattr(cli, attr) for attr in TRACED_FUNCTIONS}
        self._saved["ShiftOperator"] = cli.ShiftOperator
        for attr, layer in TRACED_FUNCTIONS.items():
            setattr(cli, attr, self._wrap_function(attr, layer, self._saved[attr]))
        cli.ShiftOperator = self._shift_subclass(self._saved["ShiftOperator"])

    def uninstall(self, cli):
        for attr, fn in self._saved.items():
            setattr(cli, attr, fn)
        self._saved = {}

    # -- results --

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics (except the trace.* ones) over all recorded spans."""
        by_name = defaultdict(float)
        by_layer = defaultdict(float)
        for span in self.spans:
            t = span.self_time()
            by_name[span.name] += t
            by_layer[span.layer] += t
        events = Counter()
        for (event, _), n in self.counts.items():
            events[event] += n

        def within(event, span_name):
            return self.counts[(event, span_name)]

        def ratio(num, den):
            return self.sums[num] / self.sums[den] if self.sums[den] else 0.0

        out = {"cli.self_s": by_layer["cli"]}
        out.update({f"{layer}.self_s": by_layer[layer] for layer in LAYERS})
        out.update({metric: sum(by_name[n] for n in names)
                    for metric, names in _SPAN_TIMES.items()})
        out.update({
            "trees.window_vertices": self.sums["window_vertices"],
            "trees.children_calls": events["children"],
            "trees.parent_calls": events["parent"],
            "trees.contains_calls": events["contains"],
            "weights.weight_calls": events["weight"],
            "shifts.dense_bytes_computed": self.sums["dense_bytes"],
            "shifts.apply_calls": sum(1 for s in self.spans
                                      if s.name in ("shifts.apply", "shifts.apply_adjoint")),
            "asymptotics.alpha_weight_calls": within("weight", "asymptotics.alpha_profile"),
            "asymptotics.adjoint_parent_calls": within("parent", "asymptotics.adjoint_profile"),
            "asymptotics.alpha_settled_frac": ratio("alpha_settled", "alpha_records"),
            "asymptotics.adjoint_settled_frac": ratio("adjoint_settled", "adjoint_records"),
            "asymptote.extra_weight_calls": within("weight", "asymptote.isometric_asymptote"),
            "similarity.blocks": self.sums["blocks"],
            "cyclicity.modifications": self.sums["modifications"],
            "cyclicity.weight_calls": events["backward_weight"],
            "cyclicity.krylov_flops_computed": self.sums["krylov_flops"],
            "cyclicity.rank": self.sums["rank"],
            "cyclicity.dimension": self.sums["dimension"],
            "trace.spans": len(self.spans),
        })
        return out
