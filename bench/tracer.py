"""Span tracing of nonlinritz from outside the package.

:class:`Tracer` wraps every public function and every public method of the
classes defined in the layer modules.  Callers bind names with
``from .x import y``, so a wrapper replaces each binding of the original
function in every module of the package, not only its definition.  Each
call records a span (name, start, end, parent) in memory; :meth:`restore`
puts the originals back.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "nonlinritz"
LAYERS = ("variational", "basis", "assembly", "updates", "optimizer", "certify",
          "config", "cli")

# Short span names for methods whose own name says too little.
_RENAMED = {"variational.Field.values": "variational.field_values"}


class Tracer:
    def __init__(self):
        self.names = []           # span-name table; spans store an index
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._patched = []        # (owner, attribute, original)
        self.steps = 0            # optimizer.run: recorded steps
        self.grid_points = 0      # minimiser_grid_oracle: evaluated points

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        ident = self._ids.setdefault(name, len(self.names))
        if ident == len(self.names):
            self.names.append(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(ident)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_steps(self, record):
        self.steps += record.n_steps

    def _count_points(self, oracle):
        self.grid_points += int(oracle.points.shape[0])

    def install(self):
        """Wrap the layers' public functions and methods, and scipy's eigh."""
        import scipy.linalg

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == PACKAGE or n.startswith(PACKAGE + ".")) and m is not None]
        hooks = {"optimizer.run": self._count_steps,
                 "certify.minimiser_grid_oracle": self._count_points}
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{layer}.{name}"
                    wrapped[id(obj)] = self._wrap(key, obj, hooks.get(key))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            key = f"{layer}.{obj.__name__}.{meth}"
                            self._patch(obj, meth, self._wrap(_RENAMED.get(key, key), fn))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, name, wrapped[id(obj)])
        self._patch(scipy.linalg, "eigh", self._wrap("assembly.eigh", scipy.linalg.eigh))

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def reset(self):
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        self.steps = 0
        self.grid_points = 0

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name_id, parent, dur

    def summary(self):
        """Per span name: calls, total seconds and self seconds, plus ancestry counts.

        ``inside_run[name]`` counts the calls made (at any depth) inside an
        ``optimizer.run`` span; ``under_sample[name]`` the calls whose direct
        parent is a ``NonlinearDomain.sample`` span.
        """
        name_id, parent, dur = self.arrays()
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(name_id, minlength=n_names)
        total = np.bincount(name_id, weights=dur, minlength=n_names)
        selfs = np.bincount(name_id, weights=self_time, minlength=n_names)
        run_id = self._ids.get("optimizer.run", -1)
        sample_id = self._ids.get("basis.NonlinearDomain.sample", -1)
        in_run = np.zeros(dur.size, dtype=bool)
        pl, nl, flags = parent.tolist(), name_id.tolist(), in_run
        for i, p in enumerate(pl):
            if p >= 0 and (flags[p] or nl[p] == run_id):
                flags[i] = True
        under_sample = np.zeros(dur.size, dtype=bool)
        under_sample[has_parent] = name_id[parent[has_parent]] == sample_id
        out = {}
        for ident, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[ident]),
                "total_s": float(total[ident]),
                "self_s": float(selfs[ident]),
                "inside_run": int(np.count_nonzero(in_run & (name_id == ident))),
                "under_sample": int(np.count_nonzero(under_sample & (name_id == ident))),
            }
        return out

    def save(self, path):
        """Write the recorded spans (name, start, end, parent) to ``path`` (.npz)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
