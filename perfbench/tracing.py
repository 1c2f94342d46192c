"""Spans around calls into the program's layers, recorded from outside.

`Tracer.install()` wraps the public functions of every schmlab module, a
few private search stages of `schmidt`, and the LAPACK entry points the
program reaches through `numpy.linalg` and `scipy.linalg`.  A name that a
module imported from another (``from .sampling import rng_for``) is a
second reference to the same function, so every namespace holding the
original is patched, not just the defining module.  `uninstall()` puts
every original back and checks that it did.

Spans (name, start, end, parent span, job id) are kept in flat arrays in
memory and written once at the end.  Seed tags passed to
`rng_for`/`derive_seed` are counted as the searches' work units.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "io", "states", "linalg", "sampling", "schmidt", "channels",
          "constructions")
PRIVATE_STAGES = ("_subtractable_candidates", "_packing_weights",
                  "_project_to_support_sr", "_seesaw_min_overlap")
KERNELS = {"numpy.linalg": ("svd", "qr", "eigh", "eigvalsh", "cholesky", "solve"),
           "scipy.linalg": ("cho_factor", "cho_solve")}
CLASS_METHODS = (("states", "PureState", "normalized"),)

# Seed-tag prefixes of the randomized searches -> work-count metric name.
TAG_COUNTS = (("sn_upper/remix/", "schmidt.remix_trials"),
              ("min_overlap_grid/", "schmidt.grid_samples"),
              ("min_overlap/", "schmidt.overlap_restarts"),
              ("subtract/", "schmidt.subtract_restarts"))

MARK = "__perfbench_wrapped__"


def _count_tag(counts: Counter, tag: str):
    for prefix, metric in TAG_COUNTS:
        if tag.startswith(prefix):
            if tag[len(prefix):].isdigit():
                counts[metric] += 1
            return


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()

        setattr(wrapper, MARK, True)
        return wrapper

    def _seed_counter(self, fn):
        """Count seed tags; `rng_for` derives its sub-seed through this too."""
        @functools.wraps(fn)
        def wrapper(seed, tag, *args, **kwargs):
            _count_tag(self.counts, tag)
            return fn(seed, tag, *args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement, namespaces):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, replacement)

    def install(self):
        import schmlab

        modules = {name: sys.modules[f"schmlab.{name}"] for name in LAYERS}
        namespaces = [schmlab, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and not (layer == "schmidt"
                                                 and attr in PRIVATE_STAGES):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                if layer == "sampling" and attr == "derive_seed":
                    wrapped = self._seed_counter(wrapped)
                self._replace_everywhere(fn, wrapped, namespaces)
        for layer, cls_name, meth in CLASS_METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, classmethod(
                self._wrap(f"{layer}.{cls_name}.{meth}", original.__func__)))
        for mod_name, funcs in KERNELS.items():
            mod = sys.modules.get(mod_name)
            if mod is None:  # the program no longer imports it
                continue
            for attr in funcs:
                original = getattr(mod, attr)
                self._patched.append((mod, attr, original))
                setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        for ns, attr, original in self._patched:
            if vars(ns)[attr] is not original:
                raise RuntimeError(f"failed to restore {ns!r}.{attr}")
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """calls, total_s and self_s per span name."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32))


def assert_unpatched():
    """Raise if any program or kernel function still carries a wrapper."""
    spaces = [sys.modules[m] for m in list(sys.modules)
              if m == "schmlab" or m.startswith("schmlab.")]
    spaces += [sys.modules[m] for m in KERNELS if m in sys.modules]
    for ns in spaces:
        for attr, value in vars(ns).items():
            if getattr(value, MARK, False):
                raise RuntimeError(f"{ns.__name__}.{attr} is still wrapped")
    states = sys.modules.get("schmlab.states")
    if states is not None:
        for _, cls_name, meth in CLASS_METHODS:
            fn = vars(getattr(states, cls_name))[meth].__func__
            if getattr(fn, MARK, False):
                raise RuntimeError(f"{cls_name}.{meth} is still wrapped")
