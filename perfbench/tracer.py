"""In-memory span tracer that wraps the package's public functions from outside.

Each target is replaced in every ``prmquadrics`` module namespace that holds
it by name, so calls made inside the package are seen as well as calls made
by the benchmark.  A span is (id, name, start, end, parent id).  Calls and
self time (span time minus the time of its child spans) are aggregated
exactly; span records are kept up to ``SPAN_CAP`` and counted beyond it, so
a traced scan of millions of calls stays small in memory.  Nothing here
imports the package at module level: a set-up probe must be able to time
the package import itself.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "prmquadrics"
SPAN_CAP = 200_000

# (module, attribute path): the public functions whose layer metrics are reported.
TARGETS = (
    ("gf", "field_from_order"),
    ("projspace", "projective_space"),
    ("projspace", "ProjectiveSpace.monomial_rows"),
    ("linalg", "rref"),
    ("linalg", "kernel_basis_gf2"),
    ("quadric", "point_set"),
    ("quadric", "radical_quadratic"),
    ("quadric", "classify"),
    ("quadric", "canonicalize"),
    ("quadric", "substitute"),
    ("prm", "interpolation_space"),
    ("prm", "iter_span_monic"),
    ("prm", "is_minimal_characterization"),
    ("prm", "is_minimal_interpolation"),
    ("prm", "is_minimal_exhaustive"),
    ("census", "survey"),
    ("census", "class_rank_census"),
    ("census", "serre_scan"),
    ("census", "brute_force_census"),
    ("census", "verify_containment"),
    ("formexpr", "parse_form"),
    ("formexpr", "render_form"),
    ("cli", "main"),
)

GENERATORS = {"prm.iter_span_monic"}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _workers(args, kwargs) -> int:
    return kwargs.get("workers", args[2] if len(args) > 2 else 1)


def _on_classify(tracer, args, kwargs, result):
    if tracer.active["census.verify_containment"]:
        tracer.counts["census.classify_in_containment"] += 1


def _on_containment(tracer, args, kwargs, result):
    tracer.counts["census.containment_pairs"] += len(result)
    if _workers(args, kwargs) <= 1:
        # Only in-process scans enumerate their spans where the tracer sees them.
        tracer.counts["prm.strict_containments"] += len(result)


def _on_interpolation(tracer, args, kwargs, result):
    if not result.minimal:
        tracer.counts["prm.strict_containments"] += 1


HOOKS = {
    "quadric.classify": _on_classify,
    "census.verify_containment": _on_containment,
    "prm.is_minimal_interpolation": _on_interpolation,
}


class NullTracer:
    """Stand-in for untraced runs."""

    @contextlib.contextmanager
    def paused(self):
        yield


class Tracer:
    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._paused = 0
        self._patches: list[tuple] = []

    # -- span accounting ----------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self.active[name] += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def _exit(self) -> None:
        end = perf_counter()
        name, start, child, sid = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.active[name] -= 1
        parent = 0
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if len(self.spans) < self.cap:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span; yields are members."""

        def traced(gen):
            while True:
                self._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit()
                self.counts[name + ".members"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return gen if self._paused else traced(gen)

        return wrapper

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module, attr in TARGETS:
            name = span_name(module, attr)
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            make = self._wrap_generator if name in GENERATORS else self._wrap
            wrapper = make(name, original)
            if hasattr(original, "cache_clear"):
                wrapper.cache_clear = original.cache_clear
            if path:  # a method: the class attribute is the only binding
                self._patch(owner, leaf, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, parent id, name, start, end (perf_counter s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
