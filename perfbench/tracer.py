"""Span tracing of treeshift from outside: wraps each module's public functions.

`install()` replaces every public function of the nine treeshift modules, a
few class methods and the fiber-profile closures of each built `TreeModel`
with timing wrappers.  The wrapper is written into every module namespace that
holds the original, because `from .trees import chi_n` binds the function at
import time.  Generator functions are timed only while they are inside
`next()`.

Spans are aggregated by call path within a job: one record per (job, parent
record, name) with the first start, the last end, the summed time inside the
span (`busy_s`) and the number of calls.  Millions of `TreeModel.check` calls
would not fit in memory as single spans; the aggregate keeps self time exact,
because a record's self time is its busy time minus the busy time of its
children.  The scalar helpers `to_float`, `safe_div` and `powed` are not
wrapped: they run inside every fiber loop and their time stays with the caller.
Of the private functions only `trees._children` is wrapped, and only where
another module imported it: `shifts` calls it once per vertex in `apply_S` and
`operator_norm`, and that child generation is tree work.  Inside `trees` it
stays unwrapped, because its time counts for `trees` either way and a span
per call would only add overhead to `chi_n` and `enumerate_truncation`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("trees", "presets", "spaces", "shifts", "simplex", "families",
          "criteria", "treespec", "cli")

COUNTERS = (
    "trees.check_calls", "trees.vertices_enumerated", "presets.profile_calls",
    "spaces.norm_entries", "shifts.entries_moved", "simplex.fiber_entries",
    "families.verdicts", "criteria.calls", "cli.csv_bytes",
)

_UNWRAPPED = {"to_float", "safe_div", "powed"}
_PRIVATE_WRAPPED = {"trees": {"_children"}}

_CLASS_METHODS = {
    "trees": {"TreeModel": ("__init__", "check", "with_weight")},
    "spaces": {"SparseVector": ("__init__", "__add__", "__sub__", "__neg__",
                                "__rmul__", "__mul__")},
    "criteria": {
        "DynamicsReport": ("to_text", "csv_rows"),
        "SupercyclicityReport": ("to_text", "csv_rows"),
        "LimitPointReport": ("to_text", "csv_rows"),
    },
}

_CRITERIA_COUNTED = {"q_value", "j_value", "I_set", "J_set", "dynamics_report",
                     "supercyclicity_report", "limit_point_report"}


class _Node:
    __slots__ = ("name", "layer", "parent", "children", "job", "start", "end",
                 "busy", "calls", "errors")

    def __init__(self, name, layer, parent, job, start):
        self.name, self.layer, self.parent, self.job = name, layer, parent, job
        self.children = {}
        self.start = start
        self.end = start
        self.busy = 0.0
        self.calls = 0
        self.errors = 0


class Tracer:
    """Call-path aggregated spans, counters and the trees built per job."""

    def __init__(self):
        self.roots = {}  # (job, name) -> _Node
        self.stack = []
        self.job = "setup"
        self.counts = {name: 0 for name in COUNTERS}
        self.job_counts = {}
        self.trees = []  # TreeModels built by the current job
        self.memo = {"arity": [0, 0], "weight": [0, 0]}  # hits, misses

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job: str) -> None:
        self.job = job
        self.trees = []
        self._before = dict(self.counts)

    def end_job(self) -> None:
        for tree in [] if self.job.startswith("probe:") else self.trees:
            for rule in ("arity", "weight"):
                info = getattr(tree, rule).cache_info()
                self.memo[rule][0] += info.hits
                self.memo[rule][1] += info.misses
        self.trees = []
        self.job_counts[self.job] = {
            k: v - self._before[k] for k, v in self.counts.items()
            if v != self._before[k]
        }
        self.job = "harness"

    # -- spans --------------------------------------------------------------

    def _open(self, name, layer):
        now = time.perf_counter()
        if self.stack:
            parent = self.stack[-1][0]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = _Node(name, layer, parent, self.job, now)
        else:
            key = (self.job, name)
            node = self.roots.get(key)
            if node is None:
                node = self.roots[key] = _Node(name, layer, None, self.job, now)
        self.stack.append((node, now))

    def _close(self, failed: bool) -> None:
        node, start = self.stack.pop()
        end = time.perf_counter()
        node.busy += end - start
        node.end = end
        node.calls += 1
        if failed and (not self.stack or self.stack[-1][0].layer != node.layer):
            node.errors += 1

    def wrap(self, fn, name, layer, count=None):
        """Timing wrapper; ``count(counts, args, kwargs, result)`` adds to the
        counters on a normal return."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(True)
                raise
            tracer._close(False)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def _wrap_generator(self, fn, name, layer):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer._open(name, layer)
                try:
                    item = next(it)
                except StopIteration:
                    tracer._close(False)
                    return
                except BaseException:
                    tracer._close(True)
                    raise
                tracer._close(False)
                counts["trees.vertices_enumerated"] += 1
                yield item

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- results ------------------------------------------------------------

    def nodes(self):
        todo = list(self.roots.values())
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node.children.values())

    def summary(self, window_s: float) -> dict:
        """Per-layer self time and errors, counters, and the harness time
        (``window_s`` minus the root spans) that completes the accounting.

        Probe jobs (named ``probe:*``) run outside the timed window: their
        escaping exceptions count in ``<layer>.errors``, their time and
        counters do not."""
        self_s = {layer: 0.0 for layer in LAYERS}
        errors = {layer: 0 for layer in LAYERS}
        min_self = 0.0
        roots = 0.0
        for node in self.nodes():
            errors[node.layer] += node.errors
            if node.job.startswith("probe:"):
                continue
            own = node.busy - sum(c.busy for c in node.children.values())
            min_self = min(min_self, own)
            self_s[node.layer] += own
            if node.parent is None:
                roots += node.busy
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
        out.update({name: 0 for name in COUNTERS})
        for job, counts in self.job_counts.items():
            if not job.startswith("probe:"):
                for name, value in counts.items():
                    out[name] += value
        for rule, (hits, misses) in self.memo.items():
            out[f"trees.{rule}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["bench.self_s"] = window_s - roots
        out["min_node_self_s"] = min_self
        return out

    def dump(self, path: str) -> None:
        """Write every span record as one JSON line."""
        ids = {}
        with open(path, "w", encoding="utf-8") as fp:
            for node in self.nodes():
                ids[id(node)] = len(ids)
            for node in self.nodes():
                fp.write(json.dumps({
                    "id": ids[id(node)],
                    "parent": None if node.parent is None else ids[id(node.parent)],
                    "job": node.job, "name": node.name, "start": node.start,
                    "end": node.end, "busy_s": node.busy, "calls": node.calls,
                    "errors": node.errors,
                }) + "\n")


# -- counters at span boundaries -------------------------------------------

def _add(key, measure):
    def count(counts, args, kwargs, result):
        counts[key] += measure(args, kwargs, result)
    return count


def _one(args, kwargs, result):
    return 1


def _first_len(args, kwargs, result):
    return len(args[0])


def _result_len(args, kwargs, result):
    return len(result)


def _csv_bytes(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv") or []
    if "--csv" in argv:
        path = argv[argv.index("--csv") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


_COUNTED = {
    ("trees", "TreeModel.check"): _add("trees.check_calls", _one),
    ("spaces", "norm"): _add("spaces.norm_entries", _first_len),
    ("spaces", "norm_powered"): _add("spaces.norm_entries", _first_len),
    ("shifts", "apply_B"): _add("shifts.entries_moved", _first_len),
    ("shifts", "apply_B_pow"): _add("shifts.entries_moved", _first_len),
    ("shifts", "apply_S"): _add("shifts.entries_moved", _first_len),
    ("simplex", "build_Sn"): _add("simplex.fiber_entries", _result_len),
    ("families", "family_verdict"): _add("families.verdicts", _one),
    ("cli", "main"): _add("cli.csv_bytes", _csv_bytes),
}
for _name in _CRITERIA_COUNTED:
    _COUNTED[("criteria", _name)] = _add("criteria.calls", _one)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every treeshift module in place."""
    modules = {layer: importlib.import_module(f"treeshift.{layer}") for layer in LAYERS}
    namespaces = list(modules.values()) + [sys.modules["treeshift"]]
    replacements = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            private = name.startswith("_") and name not in _PRIVATE_WRAPPED.get(layer, ())
            if (private or name in _UNWRAPPED
                    or not inspect.isfunction(obj) or obj.__module__ != mod.__name__):
                continue
            replacements[id(obj)] = (tracer.wrap(
                obj, f"{layer}.{name}", layer, _COUNTED.get((layer, name))), mod)
        for cls_name, methods in _CLASS_METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                label = f"{cls_name}.{meth}"
                setattr(cls, meth, tracer.wrap(
                    vars(cls)[meth], f"{layer}.{label}", layer,
                    _COUNTED.get((layer, label))))
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            entry = replacements.get(id(obj))
            if entry is None or not inspect.isfunction(obj):
                continue
            wrapped, home = entry
            if not (name.startswith("_") and ns is home):
                setattr(ns, name, wrapped)

    tree_cls = modules["trees"].TreeModel
    traced_init = tree_cls.__init__
    profile_count = _add("presets.profile_calls", _one)

    @functools.wraps(traced_init)
    def init(self, *args, **kwargs):
        traced_init(self, *args, **kwargs)
        tracer.trees.append(self)
        if self.fiber_profile is not None and not hasattr(self.fiber_profile, "__wrapped_by_tracer__"):
            # every fiber profile in the package is a closure built in presets
            self.fiber_profile = tracer.wrap(
                self.fiber_profile, "presets.fiber_profile", "presets", profile_count)

    tree_cls.__init__ = init
