"""Spans recorded around a package's functions from outside the package.

``Patches`` rebinds a function or method in every module namespace and class
dictionary of the package through which callers reach it. A module that
binds a function with ``from ... import`` holds its own reference, so
patching the defining module alone would miss those callers. ``remove()``
restores every original binding and reports any wrapper still bound.

``Tracer`` builds on it: each traced call becomes a ``Span`` with a parent
(the innermost open span), start and end times, the operation kind set by
the caller, and optional per-call info. Work the tracer does for itself
(counting graph nodes, sizing files) is recorded as ``BOOKKEEPING`` spans so
it is not charged to the caller's self time.
"""

from __future__ import annotations

import importlib
import sys
import time

BOOKKEEPING = "trace.bookkeeping"
_MARK = "__perfbench_original__"


def _package_modules(package):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def _bindings(package, target):
    """(owner, attribute, original) for every place ``target`` is reachable.

    ``target`` is "module.function" or "module.Class.method", relative to
    the package.
    """
    parts = target.split(".")
    owner = importlib.import_module(f"{package}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(owner, attr)
    return [(mod, name, value) for mod in _package_modules(package)
            for name, value in list(vars(mod).items()) if value is original]


class Patches:
    """Reversible rebinding of package functions to wrappers."""

    def __init__(self, package: str):
        self.package = package
        self._targets = []     # (target, make_wrapper)
        self._bound = None     # (owner, attribute, original, wrapper)

    def add(self, target: str, make_wrapper):
        """Bind ``make_wrapper(original)`` wherever ``target`` is looked up,
        from the next ``install()`` on."""
        self._targets.append((target, make_wrapper))

    def install(self):
        if self._bound is None:
            bound = []
            for target, make_wrapper in self._targets:
                bindings = _bindings(self.package, target)
                if not bindings:
                    raise LookupError(f"{self.package}.{target} is not bound anywhere")
                wrapper = make_wrapper(bindings[0][2])
                setattr(wrapper, _MARK, bindings[0][2])
                bound.extend((owner, attr, original, wrapper)
                             for owner, attr, original in bindings)
            self._bound = bound
        for owner, attr, _, wrapper in self._bound:
            setattr(owner, attr, wrapper)

    def remove(self) -> list:
        """Restore every binding; return the names of wrappers left behind."""
        for owner, attr, original, _ in reversed(self._bound or ()):
            setattr(owner, attr, original)
        return leftover_wrappers(self.package)


def leftover_wrappers(package: str) -> list:
    """Names in the package's modules and classes still bound to a wrapper."""
    left = []
    for mod in _package_modules(package):
        for name, value in list(vars(mod).items()):
            if hasattr(value, _MARK):
                left.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                left.extend(f"{mod.__name__}.{name}.{attr}"
                            for attr, member in vars(value).items() if hasattr(member, _MARK))
    return left


class Span:
    __slots__ = ("name", "parent", "kind", "start", "end", "count0", "count1", "info")

    def __init__(self, name, parent, kind, start=0.0, end=0.0, count0=0, count1=0, info=None):
        self.name = name
        self.parent = parent
        self.kind = kind
        self.start = start
        self.end = end
        self.count0 = count0
        self.count1 = count1
        self.info = info


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans are listed in the order they opened, so a parent precedes its
    children and ``parent`` is an index into the same list (-1 for a root).
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


class Tracer(Patches):
    """Records a span per call of each traced function while installed."""

    def __init__(self, package: str):
        super().__init__(package)
        self.spans = []
        self.kind = ""        # operation kind that spans opened next belong to
        self.counted = [0]    # running count of calls through count() wrappers
        self._stack = []

    def span(self, target, name, pre=None, post=None):
        """Trace ``target`` as spans called ``name``.

        ``pre(args)`` runs before the call and ``post(args, out, info)``
        after it, each inside a bookkeeping span; the value returned last
        becomes the span's ``info``.
        """
        spans, stack, clock, counted = self.spans, self._stack, time.perf_counter, self.counted

        def make(fn):
            def wrapper(*args, **kwargs):
                info = self._bookkeeping(pre, args) if pre else None
                span = Span(name, stack[-1] if stack else -1, self.kind, count0=counted[0])
                stack.append(len(spans))
                spans.append(span)
                span.start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    stack.pop()
                    span.count1 = counted[0]
                span.info = self._bookkeeping(post, args, out, info) if post else info
                return out
            return wrapper

        self.add(target, make)

    def count(self, target):
        """Count calls of ``target`` into ``counted`` without opening spans."""
        counted = self.counted

        def make(fn):
            def wrapper(*args, **kwargs):
                counted[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        self.add(target, make)

    def _bookkeeping(self, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(BOOKKEEPING, parent, self.kind, start, end))
        return out
