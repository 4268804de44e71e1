"""Outside-in tracer for the traced benchmark run.

The tracer wraps public functions of tricomplete from outside the package:
each wrapper records a span (name, start, end, parent) in memory, and the
spans are reduced to per-layer counts and self times once the timed phase
is over.  Modules import each other's functions by name
(``from .linalg import rref``), so a function is replaced in every
``tricomplete.*`` namespace that binds it, not only where it is defined;
constructors are wrapped on their class.  Nothing is installed unless
``Tracer.install`` is called, which the untraced run never does.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

MARK = "__bench_span__"


def _rref_entries(args, kwargs):
    return args[0].rows * args[0].cols


def _resolution_degrees(args, kwargs):
    x, depth = args[0], args[1]
    return 0 if x.is_zero() else x.max_degree - depth + 1


def _hom_key(args, kwargs):
    return (args[0], args[1])


def _module_key(args, kwargs):
    return args[0]


# (span name, defining module, attribute or Class.attribute, observers).
# Observers are "entries"/"degrees" (summed per call) and "distinct" (a key
# per call; distinct keys / calls bounds the hits a memo table could get).
TARGETS = [
    ("linalg.rref", "linalg", "rref", {"entries": _rref_entries}),
    ("rmodule.RModuleMap", "rmodule", "RModuleMap.__post_init__", {}),
    ("rmodule.jordan_basis", "rmodule", "jordan_basis", {}),
    ("rmodule.projective_cover_and_syzygy", "rmodule", "projective_cover_and_syzygy",
     {"distinct": _module_key}),
    ("rmodule.hom_basis", "rmodule", "hom_basis", {"distinct": _hom_key}),
    ("complexes.Complex", "complexes", "Complex.__init__", {}),
    ("complexes.ChainMap", "complexes", "ChainMap.__init__", {}),
    ("complexes.cone", "complexes", "cone", {}),
    ("complexes.cohomology_data", "complexes", "cohomology_data", {}),
    ("complexes.projective_resolution", "complexes", "projective_resolution",
     {"degrees": _resolution_degrees}),
    ("complexes.derived_hom", "complexes", "derived_hom", {}),
    ("complexes.chain_map_space", "complexes", "chain_map_space", {}),
    ("metric.length", "metric", "length", {}),
    ("metric.GoodMetric.ball_level", "metric", "GoodMetric.ball_level", {}),
    ("metric.equivalent", "metric", "equivalent", {}),
    ("metric.check_good_axioms", "metric", "check_good_axioms", {}),
    ("cauchy.is_cauchy", "cauchy", "is_cauchy", {}),
    ("cauchy.colimit", "cauchy", "colimit", {}),
    ("completion.is_perfect", "completion", "is_perfect", {}),
    ("completion.in_S", "completion", "in_S", {}),
    ("completion.sing_hom", "completion", "sing_hom", {}),
    ("randomgen.Sampler.complex", "randomgen", "Sampler.complex", {}),
    ("randomgen.Sampler.chain_map", "randomgen", "Sampler.chain_map", {}),
    ("workspace.parse_workspace", "workspace", "parse_workspace", {}),
    ("cli.main", "cli", "main", {}),
]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tricomplete" or name.startswith("tricomplete."))]


def installed_wrappers() -> int:
    """Number of tracer wrappers currently bound anywhere in tricomplete."""
    found = 0
    for mod in _package_modules():
        for value in vars(mod).values():
            if getattr(value, MARK, None) is not None:
                found += 1
            elif isinstance(value, type) and value.__module__.startswith("tricomplete"):
                found += sum(1 for v in vars(value).values() if getattr(v, MARK, None) is not None)
    return found


class Tracer:
    def __init__(self):
        self.names = [label for label, _, _, _ in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.sums = {label: {k: 0 for k in obs if k != "distinct"} for label, _, _, obs in TARGETS}
        self.keys = {label: set() for label in self.names}
        self._restore = []

    def _wrap(self, index: int, fn, observers: dict):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        sums, keys = self.sums[self.names[index]], self.keys[self.names[index]]
        summed = [(k, f) for k, f in observers.items() if k != "distinct"]
        key_of = observers.get("distinct")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for k, f in summed:
                sums[k] += f(args, kwargs)
            if key_of is not None:
                keys.add(key_of(args, kwargs))
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[span] = t0
                ends[span] = t1

        setattr(wrapper, MARK, self.names[index])
        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        for index, (label, modname, attr, observers) in enumerate(TARGETS):
            owner = importlib.import_module("tricomplete." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(index, original, observers))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, observers)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, self time and any observer totals.

        Self time is a span's duration minus the time its child spans
        cover; spans of one thread nest, so that is the sum of the
        children's durations.
        """
        names = np.array(self.span_name, dtype=np.int64)
        parents = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end, dtype=np.float64) - np.array(self.span_start, dtype=np.float64)
        covered = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_time = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        out = {}
        for index, label in enumerate(self.names):
            entry = {"calls": int(calls[index]), "self_s": float(self_time[index])}
            entry.update(self.sums[label])
            if TARGETS[index][3].get("distinct") is not None:
                entry["distinct_ratio"] = len(self.keys[label]) / int(calls[index]) if calls[index] else 1.0
            out[label] = entry
        return out
