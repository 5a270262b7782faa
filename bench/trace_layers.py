"""Per-layer tracing of the ``lglab`` modules, applied from outside the package.

While a :class:`Tracer` is installed, every public function defined in a layer
module is replaced by a wrapper that records one span per call, and every
public class defined there has its ``__init__`` replaced the same way, so each
validated construction is one span. A function is replaced under every name
that refers to it in any ``lglab`` module, because ``from .x import y`` copies
the reference. :meth:`Tracer.uninstall` puts every original object back, and
:meth:`Tracer.patched_leftovers` proves it did. No file of the package changes.

Spans are kept in memory as four parallel lists (name id, parent index, start,
end) and summarised or written out after the run.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("qcore", "interferometer", "weakval", "lgi", "quasiprob", "mrcheck", "experiment", "cli")

_MISSING = object()


def _run_kind(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec.kind


# spans of these functions are named by a property of their argument as well
_SPLIT = {("experiment", "run"): _run_kind}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [-1]
        self._func_patches: list[tuple[object, str, object]] = []
        self._init_patches: list[tuple[type, object]] = []
        self.installed = False

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, span: str, split=None):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        nid = self._name_id(span)
        split_ids: dict[str, int] = {}

        def traced(*args, **kwargs):
            if split is None:
                name = nid
            else:
                key = split(args, kwargs)
                name = split_ids.get(key)
                if name is None:
                    name = split_ids[key] = self._name_id(f"{span}.{key}")
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions and class constructors of every layer."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        self._func_patches, self._init_patches = [], []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lglab" or name.startswith("lglab."))]
        funcs, classes = {}, {}
        for layer in LAYERS:
            mod = sys.modules[f"lglab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    # read every original before patching any, so a subclass
                    # never picks up its base class's wrapper
                    classes[obj] = (layer, obj.__dict__.get("__init__", _MISSING), obj.__init__)
                elif inspect.isfunction(obj):
                    funcs[id(obj)] = (layer, attr, obj)
        for cls, (layer, own, init) in classes.items():
            self._init_patches.append((cls, own))
            type.__setattr__(cls, "__init__", self._wrap(init, f"{layer}.{cls.__name__}"))
        wrappers = {
            key: self._wrap(fn, f"{layer}.{attr}", _SPLIT.get((layer, attr)))
            for key, (layer, attr, fn) in funcs.items()
        }
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and funcs[id(obj)][2] is obj:
                    self._func_patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._func_patches):
            setattr(mod, attr, original)
        for cls, own in reversed(self._init_patches):
            if own is _MISSING:
                type.__delattr__(cls, "__init__")
            else:
                type.__setattr__(cls, "__init__", own)
        self.installed = False

    def patched_leftovers(self) -> list[str]:
        """Names patched by the last install that do not hold their original object now."""
        bad = [f"{mod.__name__}.{attr}" for mod, attr, orig in self._func_patches
               if vars(mod).get(attr, _MISSING) is not orig]
        bad += [f"{cls.__module__}.{cls.__name__}.__init__" for cls, own in self._init_patches
                if cls.__dict__.get("__init__", _MISSING) is not own]
        return bad

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def mark(self) -> int:
        """Index of the next span, to split the record into rounds."""
        return len(self.span_start)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-span-name calls, inclusive and self seconds over spans [lo, hi).

        Self time is a span's duration less the durations of its direct
        children, so the self times of all spans add up to the time covered by
        the root spans (those called from outside the package).
        """
        hi = len(self.span_start) if hi is None else hi
        dur = [self.span_end[i] - self.span_start[i] for i in range(lo, hi)]
        self_s = list(dur)
        root_s = 0.0
        for k, i in enumerate(range(lo, hi)):
            parent = self.span_parent[i]
            if parent >= lo:
                self_s[parent - lo] -= dur[k]
            else:
                root_s += dur[k]
        per_name: dict[str, list] = {}
        for k, i in enumerate(range(lo, hi)):
            entry = per_name.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[k]
            entry[2] += self_s[k]
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in per_name.items()},
            "root_s": root_s,
        }

    def write(self, path) -> None:
        """Write every span as a CSV line: name, parent index, start and end in
        integer nanoseconds from the first span's start. Span i is line i."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("name,parent,start_ns,end_ns\n")
            names = self.names
            fh.writelines(
                f"{names[nid]},{parent},{round((start - t0) * 1e9)},{round((end - t0) * 1e9)}\n"
                for nid, parent, start, end in zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)
            )
