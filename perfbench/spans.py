"""Span tracing around tfaug's public functions, installed from outside.

`Tracer.install()` wraps every public function of each tfaug layer module
and rebinds every module attribute (and every value of a module-level dict,
such as the experiment catalog) that refers to the same function object,
so calls made through imported names are caught as well.  Eigensolver
entry points of numpy and scipy are wrapped to count calls only.

Spans are kept in memory as (name, start, end, parent, item) and written
out once, when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

import gzip
import importlib
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "tf_core", "datasets", "operators", "augmentation", "metrics",
    "experiments", "svg", "io", "cli",
)

# (module, function names) whose calls count as eigensolves
EIGENSOLVERS = (
    ("numpy.linalg", ("eigh", "eigvalsh", "eig", "eigvals")),
    ("scipy.linalg", ("eigh", "eigvalsh", "eig", "eigvals", "eigh_tridiagonal")),
)


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


ROOT = "bench.item"  # the span that covers one whole item

# byte counters for the signal-file layer: counted after the call returns
BYTE_HOOKS = {
    "io.read_signals": "io.bytes_read",
    "io.write_signals": "io.bytes_written",
}


class Tracer:
    """Records spans for calls made while an item is active."""

    def __init__(self):
        self.names = [ROOT]   # span name of each wrapped function, by index
        self._index = {ROOT: 0}
        # one span per position: name index, start, end, parent span, item id;
        # flat arrays hold no objects, so the garbage collector never scans them
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_of = array("i")
        self.counts = Counter()
        self.item = None      # id of the active item; None records nothing
        self._stack = []
        self._patches = []    # (container, key, original) to undo

    # -- installing ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "tfaug" or name.startswith("tfaug."))]

    def _rebind_everywhere(self, original, replacement, modules):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = replacement

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            importlib.import_module(f"tfaug.{layer}")
        modules = self._modules()
        for layer in LAYERS:
            mod = sys.modules[f"tfaug.{layer}"]
            for fname, fn in sorted(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{fname}"
                if name not in self._index:
                    self._index[name] = len(self.names)
                    self.names.append(name)
                wrapper = self._span_wrapper(self._index[name], fn, BYTE_HOOKS.get(name))
                self._rebind_everywhere(fn, wrapper, modules)
        for modname, fnames in EIGENSOLVERS:
            try:
                solver_mod = importlib.import_module(modname)
            except ImportError:
                continue
            for fname in fnames:
                fn = getattr(solver_mod, fname, None)
                if fn is None:
                    continue
                wrapper = self._count_wrapper(fn, "operators.eigensolves")
                self._patches.append((solver_mod, fname, fn))
                setattr(solver_mod, fname, wrapper)
                self._rebind_everywhere(fn, wrapper, modules)

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def _open(self, index):
        """Append a span that starts now; returns its position."""
        span = len(self.name)
        self.name.append(index)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_of.append(self.item)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def _close(self, span):
        self.end[span] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, index, fn, byte_counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span = self._open(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
                if byte_counter:
                    counts[byte_counter] += _file_size(_path_arg(args, kwargs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.item is not None:
                counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- items --------------------------------------------------------------

    def begin_item(self, item_id):
        """Open the root span of one item."""
        self.item = item_id
        self._open(0)

    def end_item(self):
        self._close(self._stack[-1])
        self.item = None

    def __len__(self):
        return len(self.name)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time child spans cover."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(duration)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += duration[span]
        return [t - c for t, c in zip(duration, covered)]

    def totals(self):
        """{name: (calls, self seconds)} over all recorded spans."""
        calls, self_s = Counter(), Counter()
        for index, t in zip(self.name, self.self_times()):
            calls[index] += 1
            self_s[index] += t
        return {self.names[i]: (calls[i], self_s[i]) for i in calls}

    def write(self, path):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,item\n")
            for span, row in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.item_of)):
                index, start, end, parent, item = row
                fh.write(f"{span},{self.names[index]},{start:.9f},{end:.9f},{parent},{item}\n")
