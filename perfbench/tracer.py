"""Per-layer tracing by rebinding module attributes from outside.

Every public function of a traced module is replaced by a wrapper that
records one span per call (per ``next`` for generator functions) and
folds it straight into per-function totals: calls, self time (the span's
wall time minus the spans that ran inside it) and hits.  A tri-stream pass
makes about 300k spans, so spans are aggregated as they close instead of
being kept.  Callers that imported a name directly (``from .chains import
pair``) keep the original function, which is why ``chains`` is not traced.
"""

import inspect
from time import perf_counter

LAYERS = ("surface_map", "homology", "flows", "lattice", "circulation", "solver", "hollow2d")


class Record:
    __slots__ = ("calls", "self", "hits")

    def __init__(self):
        self.calls = 0
        self.self = 0.0
        self.hits = 0


class Tracer:
    """Wraps the layers while active; use as a context manager."""

    def __init__(self, hit_tests=None):
        # hit_tests maps "layer.function" to a predicate on the return
        # value; by default a call hits when it returns something other
        # than None, and a generator hits on every item it yields
        self.hit_tests = dict(hit_tests or {})
        self.records = {}
        self._children = []
        self._saved = []

    def __enter__(self):
        import importlib

        for layer in LAYERS:
            mod = importlib.import_module("surfcolor." + layer)
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                key = "%s.%s" % (layer, name)
                rec = self.records.setdefault(key, Record())
                hit = self.hit_tests.get(key, _not_none)
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_generator(fn, rec)
                else:
                    wrapper = self._wrap(fn, rec, hit)
                self._saved.append((mod, name, fn))
                setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()
        return False

    def _close(self, rec, start):
        wall = perf_counter() - start
        inner = self._children.pop()
        if self._children:
            self._children[-1] += wall
        rec.calls += 1
        rec.self += wall - inner

    def _wrap(self, fn, rec, hit):
        children = self._children
        close = self._close

        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(rec, start)
            if hit(result):
                rec.hits += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, rec):
        tracer = self

        def traced(*args, **kwargs):
            return _TracedIterator(tracer, fn(*args, **kwargs), rec)

        traced.__wrapped__ = fn
        return traced

    def get(self, key):
        return self.records.get(key) or Record()


class _TracedIterator:
    __slots__ = ("tracer", "it", "rec")

    def __init__(self, tracer, it, rec):
        self.tracer = tracer
        self.it = it
        self.rec = rec

    def __iter__(self):
        return self

    def __next__(self):
        self.tracer._children.append(0.0)
        start = perf_counter()
        try:
            item = next(self.it)
        finally:
            self.tracer._close(self.rec, start)
        self.rec.hits += 1
        return item


def _not_none(result):
    return result is not None
