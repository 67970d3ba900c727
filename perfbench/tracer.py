"""Spans around calls into hdcalc, recorded from outside the package.

`Tracer.install` wraps each module's public functions and the RatFun/Poly
methods named in LAYER_METHODS, then rebinds every name in every hdcalc
module that refers to a wrapped function, so calls through names imported
by value (`cli.normal_form`, `central.commutator`, `multicopy.r_component`,
...) are recorded too.  A span is (name, start, end, parent span, job id);
spans stay in memory and are written out when the run ends.  The time the
benchmark's speed probe takes while a span is open is kept per span and is
not part of any self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

MODULES = ("ratfield", "rmatrix", "diffring", "potential", "central",
           "lowestweight", "multicopy", "expressions", "cli")

# ratfield is traced at the level of its two classes; other modules at
# every public function they define
RATFUN_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__pow__", "__neg__", "shift",
              "delta", "inverse")
POLY_OPS = ("__add__", "__sub__", "__mul__", "__rmul__", "shift", "scale")
LAYER_METHODS = {
    "RatFun": RATFUN_OPS + ("__init__",),
    "Poly": POLY_OPS + ("subst_var_linear", "div_linfactor"),
}
RATFIELD_FUNCTIONS = ("partial_fractions",)


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.job = -1
        self.terms_out = 0
        self.probe_ns = {}  # span -> ns the speed probe took inside it
        self._undo = []

    def _wrap(self, name, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        functools.update_wrapper(traced, fn)
        return traced

    def _count_terms(self, elem):
        self.terms_out += len(elem.terms)

    def exclude(self, seconds):
        """Charge `seconds` spent by the benchmark itself to the innermost
        open span, to be taken out of its self time."""
        i = self.stack[-1]
        if i >= 0:
            self.probe_ns[i] = self.probe_ns.get(i, 0) + round(seconds * 1e9)

    def install(self):
        mods = {m: importlib.import_module(f"hdcalc.{m}") for m in MODULES}
        package = importlib.import_module("hdcalc")
        wrapped = {}  # id(original) -> wrapper
        rf = mods["ratfield"]
        for cls_name, methods in LAYER_METHODS.items():
            cls = getattr(rf, cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"ratfield.{cls_name}.{meth}", orig))
        for name in RATFIELD_FUNCTIONS:
            orig = getattr(rf, name)
            wrapped[id(orig)] = (orig, self._wrap(f"ratfield.{name}", orig))
        for m in MODULES[1:]:
            for name, orig in _public_functions(mods[m]):
                hook = self._count_terms if (m, name) == ("diffring", "normal_form") else None
                wrapped[id(orig)] = (orig, self._wrap(f"{m}.{name}", orig, hook))
        # rebind the wrapped functions under every name that holds them
        for mod in list(mods.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def __len__(self):
        return len(self.span_start)

    def per_name(self, scale):
        """name -> [calls, self time in s] over the recorded spans, and
        "parent>name" -> the same for each caller/callee pair.  Times of
        job k are multiplied by scale[k]."""
        n = len(self.span_start)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i in range(n):
            f = scale[self.span_job[i]]
            name = self.names[self.span_name[i]]
            p = self.span_parent[i]
            caller = self.names[self.span_name[p]] if p >= 0 else ""
            for key in (name, f"{caller}>{name}"):
                row = out.setdefault(key, [0, 0.0])
                row[0] += 1
                row[1] += (dur[i] - child[i] - self.probe_ns.get(i, 0)) * f * 1e-9
        return out

    def write(self, path):
        """Spans as tab-separated text: id, name, start_ns, end_ns, parent
        id, job id, and the ns the speed probe took inside the span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tjob\tprobe_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\t"
                         f"{self.span_parent[i]}\t{self.span_job[i]}\t"
                         f"{self.probe_ns.get(i, 0)}\n")
