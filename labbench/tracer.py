"""Span tracing of labmlm from outside the package.

`Tracer.install()` wraps every public module-level function of the layer
modules, plus a few class methods, and rebinds each wrapper under every name
in every ``labmlm`` module that holds the original. Modules that import names
with ``from .x import y`` call through their own globals, so patching only
the defining module would miss those calls. `uninstall()` restores them.

A span is ``(name_id, parent_index, start, end, extra)``. Spans stay in
memory; `dump()` writes them out once the run ends. ``extra`` is -1 unless
the function is one whose recording state matters (see RECORDING): then it
is the number of tape nodes the call added while a tape was active, or -1
when it ran untracked.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time

import numpy as np

LAYERS = ("tape", "attention", "optim", "ecdf", "corpus", "model",
          "training", "finetune", "cli")

# Spans of these functions note whether they ran on a recording tape and how
# many nodes they added: that separates training steps from eval passes.
RECORDING = {
    "tape.layer_norm",
    "model.forward_continuous", "model.forward_decile", "model.encode",
    "training.multitask_loss", "training.decile_mlm_loss",
}

# Methods that the module-level sweep cannot see.
METHODS = (("ecdf", "Vocab", "save"),)


def _wrappable(module, name, obj):
    return (inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")
            and not hasattr(obj, "__wrapped__"))   # context managers


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.tape_exits: list[tuple] = []    # (parent span, nodes on the tape)
        self.gc_events: list[tuple] = []     # (parent span, generation, start, end)
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._gc_start = 0.0
        self._ids: dict[str, int] = {}

    # -- recording --------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, active_tape):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # The span covers consumption, from the first resume to the end.
            # It is never pushed: the consumer runs between yields.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                t0 = clock()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    spans.append((nid, parent, t0, clock(), -1))
            return gen_wrapper

        if name in RECORDING:
            @functools.wraps(fn)
            def rec_wrapper(*args, **kwargs):
                tp = active_tape()
                before = len(tp) if tp is not None else -1
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    nodes = len(tp) - before if tp is not None else -1
                    spans[idx] = (nid, stack[-1] if stack else -1, t0, t1, nodes)
            return rec_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, stack[-1] if stack else -1, t0, t1, -1)
        return wrapper

    def span(self, name):
        """Context manager recording a span for the benchmark's own phases."""
        return _Span(self, self._name_id(name))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            parent = self._stack[-1] if self._stack else -1
            self.gc_events.append((parent, info["generation"], self._gc_start,
                                   time.perf_counter()))

    # -- install / uninstall ----------------------------------------------

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == "labmlm" or n.startswith("labmlm.")}
        tape_mod = mods["labmlm.tape"]
        active_tape = tape_mod._active_tape
        wrappers = {}
        for layer in LAYERS:
            module = mods[f"labmlm.{layer}"]
            for name, obj in vars(module).items():
                if _wrappable(module, name, obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj, active_tape))
        for module in mods.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)][1])

        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[f"labmlm.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn, active_tape))

        tape_cls = tape_mod.Tape
        orig_exit = tape_cls.__dict__["__exit__"]
        exits, stack = self.tape_exits, self._stack

        def traced_exit(tp, *exc):
            exits.append((stack[-1] if stack else -1, len(tp)))
            return orig_exit(tp, *exc)

        self._restore.append((tape_cls, "__exit__", orig_exit))
        tape_cls.__exit__ = traced_exit
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def reset(self):
        """Drop recorded data, keeping the installed wrappers."""
        self.spans.clear()
        self.tape_exits.clear()
        self.gc_events.clear()

    # -- output ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns: name, parent, start, end, extra."""
        cols = list(zip(*self.spans))
        return (np.asarray(cols[0], dtype=np.int64), np.asarray(cols[1], dtype=np.int64),
                np.asarray(cols[2]), np.asarray(cols[3]), np.asarray(cols[4], dtype=np.int64))

    def dump(self, path):
        name, parent, start, end, extra = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name=name,
                            parent=parent, start=start, end=end, extra=extra)


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        spans, stack = self.tracer.spans, self.tracer._stack
        self.idx = len(spans)
        spans.append(None)
        stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        spans, stack = self.tracer.spans, self.tracer._stack
        stack.pop()
        spans[self.idx] = (self.nid, stack[-1] if stack else -1, self.t0, t1, -1)
        return False
