"""Layer tracing from outside the program.

A ``Tracer`` replaces lscat's layer entry points with timing wrappers at
every ``lscat`` module that binds them (``from .category import
cover_category`` leaves a second binding in ``engine``, ``dynamics`` and
``cli``), and restores every original on ``uninstall``.  Each wrapper is
a span: it counts calls, calls that returned something other than
``None``, and self time, which is the span's wall time minus the time of
the wrapped spans it called.  Self times are per thread; in a thread
pool they include time spent waiting for the interpreter lock.
"""

import functools
import sys
import threading
import time

# metric key -> (module, attribute); "Class.method" patches the class.
# Several attributes may share one key; their counts and times add up.
SPANS = (
    ("engine.verify_index_bound", "engine", "verify_index_bound"),
    ("engine.index", "engine", "IndexFunction.__call__"),
    ("category.cover_category", "category", "cover_category"),
    ("category.catquery", "category", "CatQuery.__init__"),
    ("category.min_cover", "category", "min_cover"),
    ("category.is_categorical", "category", "is_categorical"),
    ("category.catalogue", "category", "categorical_open_catalog"),
    ("category.catalogue", "category", "categorical_closed_catalog"),
    ("category.catalogue", "category", "deformable_open_catalog"),
    ("category.catalogue", "category", "classB_catalog"),
    # only building a catalogue (a cache miss) enumerates these sets
    ("category.catalogue_build", "category", "invariant_up_sets"),
    ("category.catalogue_build", "category", "invariant_down_sets"),
    ("poset.core", "poset", "core"),
    ("poset.is_contractible_in", "poset", "is_contractible_in"),
    ("poset.fence_search", "poset", "fence_search"),
    ("action.is_G_deformable", "action", "is_G_deformable"),
    ("numeric.flow_map", "numeric", "flow_map"),
    ("numeric.field_V", "numeric", "field_V"),
    ("numeric.truncation_g", "numeric", "truncation_g"),
    ("dynamics.verify", "dynamics", "verify_band_bound"),
    ("dynamics.verify", "dynamics", "verify_identity_band_bound"),
    ("dynamics.verify", "dynamics", "verify_global_bound"),
    ("dynamics.verify", "dynamics", "verify_semiflow"),
    ("dynamics.verify", "dynamics", "verify_homeo_band_bound"),
    ("formats.parse_scenario", "formats", "parse_scenario"),
    ("formats.emit_report", "formats", "emit_report"),
    ("cli.run_scenario", "cli", "run_scenario"),
)

# metric key -> (module, class, attribute): a callable each instance
# stores; instances built while the tracer is installed count its calls.
COUNTED = (
    ("engine.index_evals", "engine", "IndexFunction", "evaluate"),
    ("numeric.grad_evals", "numeric", "ScalarField", "grad"),
)


def lscat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lscat" or name.startswith("lscat."))]


class Tracer:
    """Spans and counts for one traced section; install, run, uninstall.

    While ``active`` is false the wrappers only pass calls through, so
    the benchmark's own output checks stay out of the counts.
    """

    def __init__(self):
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_records = []
        self._undo = []

    def _records(self):
        try:
            return self._local.records
        except AttributeError:
            self._local.records = {}
            self._local.stack = []
            with self._lock:
                self._thread_records.append(self._local.records)
            return self._local.records

    def _record(self, key):
        records = self._records()
        rec = records.get(key)
        if rec is None:
            rec = records[key] = [0, 0.0, 0]  # calls, self seconds, found
        return rec

    def _span(self, key, fn):
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._record(key)
            stack = local.stack
            stack.append(0.0)
            found = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                found = result is not None
                return result
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed - children
                rec[2] += found

        return span

    def _counting_init(self, key, init, attr):
        tracer = self

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            fn = getattr(obj, attr)

            @functools.wraps(fn)
            def counted(*a, **kw):
                if tracer.active:
                    tracer._record(key)[0] += 1
                return fn(*a, **kw)

            setattr(obj, attr, counted)

        return __init__

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = lscat_modules()
        by_name = {m.__name__: m for m in modules}
        for key, module, attr in SPANS:
            owner = by_name["lscat." + module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method,
                            self._span(key, cls.__dict__[method]))
                continue
            original = getattr(owner, attr)
            wrapper = self._span(key, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)
        for key, module, cls_name, attr in COUNTED:
            cls = getattr(by_name["lscat." + module], cls_name)
            self._patch(cls, "__init__",
                        self._counting_init(key, cls.__dict__["__init__"],
                                            attr))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self):
        """key -> (calls, self seconds, calls that returned non-None)."""
        out = {}
        with self._lock:
            for records in self._thread_records:
                for key, (calls, self_s, found) in records.items():
                    c, s, f = out.get(key, (0, 0.0, 0))
                    out[key] = (c + calls, s + self_s, f + found)
        return out
