"""Per-layer tracing of the birdtracks package, installed from outside it.

`Tracer.install()` wraps the public functions of every package module,
the public methods and arithmetic operators of the classes they define,
and rebinds every `birdtracks.*` module attribute that refers to a
wrapped function.  The rebinding matters: modules import names with
`from .diagrams import inner_product`, so patching only the defining
module would miss those calls.  The package itself is not modified.

Each wrapped call is a span.  A span's self time is its duration minus
the time of the spans it encloses, so the layers' self times partition
the traced time.  A layer's inclusive time counts only its outermost
spans.  `report()` turns spans, argument-derived counts and the
coefficient caches' `cache_info()` into the per-layer metrics.
"""

import math
import sys
import types
from time import perf_counter_ns

# The package modules, which are the layers.
LAYERS = ("coefficients", "diagrams", "symmetrizers", "tracebasis",
          "singlets", "epsilon", "numeric", "checks", "cli")

_ARITHMETIC = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__"})

# lru_cache-wrapped coefficient kernels; a cache that no longer exists is
# left out of the report instead of being reported as zero.
CACHES = {"rf_add": "_rf_add", "rf_mul": "_rf_mul", "p_gcd": "_p_gcd"}

_RATIONAL_OPS = ("coefficients.RationalFunction.__add__",
                 "coefficients.RationalFunction.__mul__")

# Counts taken from the arguments and results of wrapped calls.
_COUNTED = (
    "coefficients.max_degree", "diagrams.peak_terms",
    "diagrams.inner_product.term_pairs", "diagrams.compose.term_pairs",
    "diagrams.ketbra.term_pairs", "singlets.gram_matrix.entries",
    "singlets.singlet_table.inner_products", "symmetrizers.overlaps",
    "numeric.evaluate.entries", "numeric.exact_rank.cells")
_CALLS = ("diagrams.inner_product", "diagrams.compose", "diagrams.ketbra",
          "singlets.rank_one_product")
# Functions whose inclusive time is reported.
_TIMED = ("diagrams.inner_product", "singlets.gram_matrix",
          "singlets.singlet_count", "singlets.singlet_table",
          "symmetrizers.gram_schmidt", "numeric.evaluate",
          "numeric.exact_rank", "numeric.evaluate_float")


def _wrappable_methods(cls):
    for name, value in vars(cls).items():
        if not isinstance(value, types.FunctionType):
            continue
        # predicates are trivial accessors; tracing them is pure overhead
        if name in _ARITHMETIC or not (name.startswith("_")
                                       or name.startswith("is_")):
            yield name, value


def _term_count(value):
    terms = getattr(value, "terms", None)
    return len(terms) if isinstance(terms, dict) else 0


class _Record:
    __slots__ = ("calls", "inclusive_ns", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive_ns = 0
        self.depth = 0


class Tracer:
    """Spans and counts for one traced process."""

    def __init__(self):
        self.functions: dict[str, _Record] = {}
        self.layers: dict[str, _Record] = {name: _Record() for name in LAYERS}
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(_COUNTED, 0)
        self.check_names: dict[str, str] = {}
        self._stack: list[list[int]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._modules: dict[str, types.ModuleType] = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        import birdtracks.cli  # noqa: F401  (loads every layer)

        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"birdtracks.{layer}"]
            self._modules[layer] = module
            for name, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and not name.startswith("_")):
                    self._wrap_once(wrapped, layer, value)
                elif (isinstance(value, type)
                        and value.__module__ == module.__name__):
                    for attr, method in _wrappable_methods(value):
                        setattr(value, attr,
                                self._wrap_once(wrapped, layer, method))
        for name, fn in self._modules["checks"].CHECKS:
            self.check_names[name] = f"checks.{fn.__qualname__}"
        for module_name, module in list(sys.modules.items()):
            if module_name == "birdtracks" or module_name.startswith(
                    "birdtracks."):
                for name, value in list(vars(module).items()):
                    swapped = _swap(value, wrapped)
                    if swapped is not value:
                        setattr(module, name, swapped)
        coefficients = self._modules["coefficients"]
        for key, attr in CACHES.items():
            info = getattr(getattr(coefficients, attr, None), "cache_info",
                           None)
            if info is not None:
                stats = info()
                self._cache_start[key] = (stats.hits, stats.misses)
        return self

    def _wrap_once(self, wrapped, layer, fn):
        if id(fn) not in wrapped:
            wrapped[id(fn)] = self._wrap(layer, fn)
        return wrapped[id(fn)]

    def _wrap(self, layer, fn):
        name = f"{layer}.{fn.__qualname__}"
        record = self.functions.setdefault(name, _Record())
        layer_record = self.layers[layer]
        self_ns = self.self_ns
        stack = self._stack
        hook = self._hook_for(layer, name)

        def traced(*args, **kwargs):
            record.calls += 1
            record.depth += 1
            layer_record.depth += 1
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                record.depth -= 1
                layer_record.depth -= 1
                if not record.depth:
                    record.inclusive_ns += elapsed
                if not layer_record.depth:
                    layer_record.inclusive_ns += elapsed
                self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- argument-derived counts ----------------------------------------------

    def _hook_for(self, layer, name):
        counts = self.counts
        functions = self.functions

        def add(key, amount):
            counts[key] += amount

        if name in _RATIONAL_OPS:
            def degree(args, result):
                top = max(len(getattr(result, "num", ())),
                          len(getattr(result, "den", ()))) - 1
                if top > counts["coefficients.max_degree"]:
                    counts["coefficients.max_degree"] = top
            return degree
        if name in ("diagrams.compose", "diagrams.ketbra"):
            key = f"{name}.term_pairs"

            def pairs(args, result):
                add(key, _term_count(args[0]) * _term_count(args[1]))
                self._peak(args, result)
            return pairs
        if name == "diagrams.inner_product":
            table = functions.setdefault("singlets.singlet_table", _Record())
            schmidt = functions.setdefault("symmetrizers.gram_schmidt",
                                           _Record())

            def inner(args, result):
                add("diagrams.inner_product.term_pairs",
                    _term_count(args[0]) * _term_count(args[1]))
                if table.depth:
                    add("singlets.singlet_table.inner_products", 1)
                if schmidt.depth:
                    add("symmetrizers.overlaps", 1)
                self._peak(args, result)
            return inner
        if layer == "diagrams":
            return self._peak
        if name == "singlets.gram_matrix":
            return lambda args, result: add(
                "singlets.gram_matrix.entries",
                sum(len(row) for row in result))
        if name == "numeric.evaluate":
            return lambda args, result: add(
                "numeric.evaluate.entries", math.prod(result.shape))
        if name == "numeric.exact_rank":
            return lambda args, result: add(
                "numeric.exact_rank.cells",
                sum(len(row) for row in args[0]))
        return None

    def _peak(self, args, result):
        top = max(_term_count(result), *(_term_count(a) for a in args[:2]),
                  0)
        if top > self.counts["diagrams.peak_terms"]:
            self.counts["diagrams.peak_terms"] = top

    # -- report ---------------------------------------------------------------

    def _calls(self, name):
        record = self.functions.get(name)
        return record.calls if record else 0

    def _seconds(self, name):
        record = self.functions.get(name)
        return record.inclusive_ns / 1e9 if record else 0.0

    def report(self) -> dict[str, float]:
        """Per-layer metrics; a ratio whose base is zero reads 0."""
        out = {f"{layer}.self_s": ns / 1e9
               for layer, ns in self.self_ns.items()}
        out.update(self.counts)
        out.update({f"{name}.calls": self._calls(name) for name in _CALLS})
        out.update({f"{name}.s": self._seconds(name) for name in _TIMED})
        for layer in ("tracebasis", "epsilon"):
            out[f"{layer}.s"] = self.layers[layer].inclusive_ns / 1e9
        for check, name in self.check_names.items():
            out[f"checks.{check}.s"] = self._seconds(name)
        out["coefficients.rational_ops"] = sum(
            self._calls(name) for name in _RATIONAL_OPS)
        out["coefficients.radical_ops"] = sum(
            record.calls for name, record in self.functions.items()
            if name.startswith("coefficients.RadicalCoefficient.__"))
        out["coefficients.sqrt_calls"] = self._calls("coefficients.sqrt")
        out["tracebasis.states_built"] = self._calls(
            "tracebasis.trace_basis_state")
        pairs = out["diagrams.inner_product.term_pairs"]
        out["diagrams.us_per_term_pair"] = (
            out["diagrams.inner_product.s"] * 1e6 / pairs if pairs else 0.0)
        coefficients = self._modules["coefficients"]
        entries = None
        for key, attr in CACHES.items():
            info = getattr(getattr(coefficients, attr, None), "cache_info",
                           None)
            if info is None or key not in self._cache_start:
                continue
            stats = info()
            hits0, misses0 = self._cache_start[key]
            hits, misses = stats.hits - hits0, stats.misses - misses0
            out[f"coefficients.cache.{key}.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
            entries = (entries or 0) + stats.currsize
        if entries is not None:
            out["coefficients.cache.entries"] = entries
        return out


def _swap(value, wrapped):
    """value with every wrapped function replaced, looking into tuples."""
    if isinstance(value, tuple):
        swapped = tuple(_swap(item, wrapped) for item in value)
        if any(new is not old for new, old in zip(swapped, value)):
            return swapped
        return value
    if callable(value):
        return wrapped.get(id(value), value)
    return value
