"""Span tracer that wraps mspkit's public functions from outside the package.

Every wrapped function becomes a span keyed `<layer>.<name>`.  A span's
self time is its duration minus the time of the spans it encloses; the
tracer's own bookkeeping is charged to no span.  A call that re-enters the
key of the span directly enclosing it (`subset_fn` calling `order_fn`,
`MPoly.__sub__` calling `__add__`) is part of that span and not counted
again.

`from .ptypes import partition_types` leaves a copy of the function in each
importing module, and `MPoly.__rmul__` is a second class attribute holding
`__mul__`.  `install` therefore replaces every reference it finds in the
globals of every `mspkit` module, in dicts held by those globals, and in
the class dicts, not only the defining binding.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# key -> (module, function names)
FUNCTIONS = {
    "ptypes.partition_types": ("ptypes", ["partition_types"]),
    "ptypes.weight": ("ptypes", ["order_fn", "cycle_fn", "subset_fn", "stirling_fn"]),
    "poly.format": ("poly", ["format_poly"]),
    "msp.explicit": ("msp", ["bell_explicit", "stirling_first_explicit", "assoc_bell",
                             "lah_poly", "lie_first", "complete_bell"]),
    "msp.recursive": ("msp", ["bell_recursive", "stirling_first_recursive"]),
    "msp.transform": ("msp", ["stirling_first_from_assoc", "first_from_second_schloemilch",
                              "second_from_first", "compose_transform",
                              "compose_transform_second", "convolution_recurrence",
                              "cor45_expand", "eq68_invert", "snk1_nested"]),
    "stirling.table": ("stirling", ["s1_table", "s2_table", "cycle_table", "assoc_s2_table",
                                    "lah_tables", "bell_numbers", "stirling_orthogonality_check",
                                    "lah_self_inverse_check", "example58_identities"]),
    "stirling.closed_form": ("stirling", ["s2_bertrand", "s1_schloemilch", "s1_schloemilch_terms",
                                          "s1_via_assoc", "s1_via_assoc_terms", "s2_via_cycle"]),
    "series.compose": ("series", ["egf_compose"]),
    "series.exp_transform": ("series", ["exp_transform"]),
    "series.exp_transform_inverse": ("series", ["exp_transform_inverse"]),
    "series.revert_msp": ("series", ["revert_msp"]),
    "series.revert_comtet": ("series", ["revert_comtet"]),
    "series.revert_oracle": ("series", ["revert_oracle"]),
    "verify.run_suite": ("verify", ["run_suite"]),
    "cli.main": ("cli", ["main"]),
}

# key -> (class name in mspkit.poly, method name) pairs
METHODS = {
    "poly.mul": [("MPoly", "__mul__")],
    "poly.add": [("MPoly", "__add__")],
    "poly.partial_derivative": [("MPoly", "partial_derivative")],
    "poly.substitute": [("MPoly", "substitute")],
    "poly.eval_rat": [("MPoly", "eval_rat"), ("LaurentX1", "eval_rat")],
    "poly.init": [("MPoly", "__init__")],
    "poly.format": [("MPoly", "to_json_dict")],
    "poly.laurent": [("LaurentX1", name) for name in
                     ("__init__", "__add__", "__mul__", "__neg__", "__sub__", "to_poly")],
}


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.enabled = False
        self.stack: list[list] = []  # [key, child seconds] of each open span
        self.spans = {key: [0, 0.0] for key in (*FUNCTIONS, *METHODS)}  # [calls, self seconds]
        self.counts = {"types_out": 0, "term_pairs": 0, "max_terms": 0, "max_coeff_bits": 0,
                       "cache_hits": 0, "cache_misses": 0, "cache_entries": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, key: str, fn, observe=None):
        stats = self.spans[key]
        stack = self.stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled or (stack and stack[-1][0] == key):
                return fn(*args, **kwargs)
            t_in = perf_counter()
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stats[0] += 1
                stats[1] += t1 - t0 - frame[1]
            if observe is not None:
                observe(args, result)
            if stack:
                stack[-1][1] += perf_counter() - t_in
            return result

        return span

    def _replace(self, original, wrapper):
        """Point every reference to `original` inside mspkit at `wrapper`."""
        found = False
        for name, module in list(sys.modules.items()):
            if name != "mspkit" and not name.startswith("mspkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)
                    found = True
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patch(value, k, wrapper)
        return found

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _patch(self, owner, attr, value):
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        self._set(owner, attr, value)

    def _patch_class(self, cls, key, method, observe=None):
        original = cls.__dict__.get(method)
        if original is None:
            print(f"trace: {cls.__name__}.{method} not found", file=sys.stderr)
            return
        wrapper = self._wrap(key, original, observe)
        for attr, value in list(cls.__dict__.items()):
            if value is original:  # __rmul__ is __mul__, __radd__ is __add__
                self._patch(cls, attr, wrapper)

    def install(self):
        mods = self.mods
        observers = {
            "ptypes.partition_types": self._observe_types,
            "poly.mul": self._observe_mul,
            "poly.add": self._observe_result,
            "poly.partial_derivative": self._observe_result,
            "poly.substitute": self._observe_result,
            "poly.init": self._observe_init,
        }
        for key, (module_name, names) in FUNCTIONS.items():
            module = getattr(mods, module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None or not self._replace(original, self._wrap(key, original, observers.get(key))):
                    print(f"trace: {module_name}.{name} not found", file=sys.stderr)
        for key, methods in METHODS.items():
            for cls_name, name in methods:
                self._patch_class(getattr(mods.poly, cls_name), key, name, observers.get(key))
        self._patch_cache(mods.msp.MspCache)

    def uninstall(self):
        while self._patches:
            self._set(*self._patches.pop())

    def _patch_cache(self, cls):
        counts, get, put = self.counts, cls.get, cls.put

        def counted_get(cache, *args):
            value = get(cache, *args)
            if self.enabled:
                counts["cache_hits" if value is not None else "cache_misses"] += 1
                counts["cache_entries"] = max(counts["cache_entries"], len(cache))
            return value

        def counted_put(cache, *args):
            value = put(cache, *args)
            if self.enabled:
                counts["cache_entries"] = max(counts["cache_entries"], len(cache))
            return value

        self._patch(cls, "get", counted_get)
        self._patch(cls, "put", counted_put)

    # -- counters taken at the span boundaries -----------------------------

    def _observe_types(self, args, result):
        self.counts["types_out"] += len(result)

    def _observe_mul(self, args, result):
        a, b = args
        self.counts["term_pairs"] += len(a) * (len(b) if isinstance(b, self.mods.poly.MPoly) else 1)
        self._observe_poly(result)

    def _observe_result(self, args, result):
        self._observe_poly(result)

    def _observe_init(self, args, result):
        self._observe_poly(args[0])

    def _observe_poly(self, p):
        if not isinstance(p, self.mods.poly.MPoly):
            return
        terms = getattr(p, "_terms", None)
        if terms is None:
            terms = dict(p.terms())
        counts = self.counts
        if len(terms) > counts["max_terms"]:
            counts["max_terms"] = len(terms)
        bits = max(map(int.bit_length, terms.values()), default=0)
        if bits > counts["max_coeff_bits"]:
            counts["max_coeff_bits"] = bits

    def layer_shares(self) -> dict[str, float]:
        """Self time of each layer as a share of all traced self time."""
        layers: dict[str, float] = {}
        for key, (_, seconds) in self.spans.items():
            layer = key.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        total = sum(layers.values()) or 1.0
        return {layer: seconds / total for layer, seconds in sorted(layers.items())}
