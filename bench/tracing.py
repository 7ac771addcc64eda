"""Span recorder that instruments cubiccayley from outside, without editing it.

``instrumented(tracer)`` replaces every public function of each layer
module, and the three methods whose callers reach them through an object,
by a wrapper that records a span: name, start, end, parent span and the
benchmark operation that caused it.  It rebinds the wrapper under every
name that holds the function in any cubiccayley module (``cli.cross_check``,
``construct.make_ball`` and so on), so calls between layers are traced
too.  Leaving the ``with`` block restores the originals.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from typing import Callable, Dict, List

# The modules of src/cubiccayley, one per layer.  ``groups`` defines only
# classes, so its time shows up as self time of the construct builders.
LAYERS = ("presentation", "groups", "ball", "construct", "coset", "analyze",
          "embed", "classify", "render", "cli")

# Methods that callers reach through an object rather than a module name.
METHODS = (("ball", "CayleyBall", "to_json"),
           ("ball", "CayleyBall", "from_json"),
           ("embed", "RotationEmbedding", "to_dict"))

# Root spans opened by the benchmark itself carry this prefix.
BENCH = "bench"


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, op id]``.

    Start and end are read from ``clock``; the benchmark passes its
    host-speed clock, so that self times compare across runs.
    """

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        # name -> hook(args, result); result is None when the call raised
        self.hooks: Dict[str, Callable] = {}

    def call(self, name, fn, args, kwargs, root=False):
        """Run ``fn`` inside a span; ``root`` opens a benchmark operation.

        Calls made outside any operation, such as the benchmark's own
        checks, are not recorded.
        """
        if not (root or self._stack):
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        result = None
        span[1] = self.clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[2] = self.clock()
            self._stack.pop()
            hook = self.hooks.get(name)
            if hook is not None:
                hook(args, result)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


@contextmanager
def instrumented(tracer: Tracer):
    modules = {layer: importlib.import_module(f"cubiccayley.{layer}")
               for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
    patches = []  # (owner, attribute, original value)
    for mod in [importlib.import_module("cubiccayley"), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        raw = cls.__dict__[meth]
        name = f"{layer}.{meth}"
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(tracer, name, raw.__func__))
        else:
            new = _wrap(tracer, name, raw)
        patches.append((cls, meth, raw))
        setattr(cls, meth, new)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per span name: total duration minus the time its child spans cover.

    Calls are synchronous and single-threaded, so children nest inside
    their parent and never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def inclusive_time(spans: List[list], name: str) -> float:
    return sum(end - start for n, start, end, _, _ in spans if n == name)
