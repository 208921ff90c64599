"""Span and counter recorders wrapped around lctplane's public functions.

Nothing in lctplane is edited: ``Tracer.install`` replaces each target
function, wherever an lctplane module has bound it by name (``is_square_free``
is bound in five modules, for instance), with a wrapper that records a span.
``uninstall`` puts the originals back.

A span is (layer, request, parent span, start, end).  Spans stay in memory,
in flat arrays, until ``layer_metrics`` derives each layer's calls and self
time from them: self time is a span's duration minus the durations of its
direct children.  Maxima (terms, coefficient bits, degree, blowups per
resolution) are observed at the same call boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute, layer); "Class.method" wraps a class attribute.
TARGETS = (
    ("lctplane.cli", "main", "cli"),
    ("lctplane.parse", "parse_poly", "parse"),
    ("lctplane.parse", "parse_terms", "parse"),
    ("lctplane.parse", "parse_rational", "parse"),
    ("lctplane.poly", "gcd_bivariate", "poly.gcd"),
    ("lctplane.poly", "gcd_many", "poly.gcd"),
    ("lctplane.poly", "mul_terms", "poly.mul"),
    ("lctplane.poly", "BPoly.substitute", "poly.substitute"),
    ("lctplane.localinv", "is_square_free", "localinv.sqf"),
    ("lctplane.localinv", "intersection_multiplicity_origin", "localinv.imult"),
    ("lctplane.localinv", "milnor_number_origin", "localinv.milnor"),
    ("lctplane.localinv", "tangent_cone_pattern", "localinv.tangent_cone"),
    ("lctplane.factorize", "factor_univariate", "factorize"),
    ("lctplane.highmult", "analyze_high_mult", "highmult"),
    ("lctplane.classify", "classify_singularity", "classify"),
    ("lctplane.resolution", "resolve_over_origin", "resolution"),
)

# One new exceptional divisor per point blowup.
BLOWUP_TARGET = ("lctplane.resolution", "ExcDivisor")

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


def _coeff_bits(poly):
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


class Tracer:
    """Spans and counters of one process; ``merge`` adds a child's."""

    def __init__(self):
        self.layer = array("i")
        self.request = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.current_request = -1
        self.maxima = {"poly.gcd.terms_max": 0, "poly.gcd.coeff_bits_max": 0,
                       "factorize.degree_max": 0, "resolution.blowups_max": 0}
        self.blowups = 0
        self.refusals = 0
        self._patches = []

    # -- recording -------------------------------------------------------------

    def _enter(self, layer_id):
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.request.append(self.current_request)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def _observe(self, layer, args):
        m = self.maxima
        if layer == "poly.gcd":
            polys = args[0] if isinstance(args[0], (list, tuple)) else args[:2]
            for p in polys:
                if not hasattr(p, "terms"):  # e.g. a generator passed to gcd_many
                    continue
                m["poly.gcd.terms_max"] = max(m["poly.gcd.terms_max"], len(p.terms))
                m["poly.gcd.coeff_bits_max"] = max(m["poly.gcd.coeff_bits_max"], _coeff_bits(p))
        elif layer == "factorize":
            degree = max((i for i, c in enumerate(args[0]) if c), default=0)
            m["factorize.degree_max"] = max(m["factorize.degree_max"], degree)

    def _wrap(self, fn, layer):
        layer_id = LAYERS.index(layer)
        observe = layer in ("poly.gcd", "factorize")
        resolution = layer == "resolution"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.blowups
            idx = tracer._enter(layer_id)
            try:
                if observe:
                    tracer._observe(layer, args)
                return fn(*args, **kwargs)
            except Exception as exc:
                if resolution and type(exc).__module__.startswith("lctplane"):
                    tracer.refusals += 1
                raise
            finally:
                tracer._exit(idx)
                if resolution:
                    m = tracer.maxima
                    m["resolution.blowups_max"] = max(m["resolution.blowups_max"], tracer.blowups - before)

        return wrapper

    def _count_blowups(self, cls):
        tracer = self

        def counted(*args, **kwargs):
            tracer.blowups += 1
            return cls(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target.  A target missing from this lctplane version
        raises ``LookupError``: its layer would otherwise read zero, which
        looks like a gain."""
        import lctplane.cli  # noqa: F401  (loads every module a query can reach)

        modules = [m for name, m in sys.modules.items() if name == "lctplane" or name.startswith("lctplane.")]
        for module_name, attr, layer in TARGETS:
            self._replace(modules, module_name, attr, lambda fn, layer=layer: self._wrap(fn, layer))
        self._replace(modules, *BLOWUP_TARGET, self._count_blowups)

    def _replace(self, modules, module_name, attr, make):
        owner = sys.modules.get(module_name)
        cls_name, _, name = attr.rpartition(".")
        if owner is not None and cls_name:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.uninstall()
            raise LookupError(f"trace target not found: {module_name}.{attr}; update TARGETS in spans.py")
        replacement = make(original)
        if cls_name:
            self._patch(owner, name, original, replacement)
            return
        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, bound, original, replacement)

    def _patch(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- export and analysis -----------------------------------------------------

    def export(self):
        return {
            "layer": self.layer.tolist(), "request": self.request.tolist(),
            "parent": self.parent.tolist(), "start": self.start.tolist(), "end": self.end.tolist(),
            "maxima": self.maxima, "blowups": self.blowups, "refusals": self.refusals,
        }

    def merge(self, data):
        """Append another tracer's export (a traced child process)."""
        offset = len(self.layer)
        self.layer.extend(data["layer"])
        self.request.extend(data["request"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        for key, value in data["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        self.blowups += data["blowups"]
        self.refusals += data["refusals"]

    def layer_metrics(self):
        """Calls and self time per layer, derived from the recorded spans."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            lid = self.layer[i]
            calls[lid] += 1
            self_s[lid] += self.end[i] - self.start[i] - child[i]
        out = {}
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[lid]
            out[f"{layer}.self_ms"] = self_s[lid] * 1e3
        out.update(self.maxima)
        out["resolution.blowups"] = self.blowups
        out["resolution.refusals"] = self.refusals
        return out

    def write(self, path, stamp):
        """Write every span as a tab-separated line under a stamp header."""
        with open(path, "w") as fh:
            fh.write(f"# {stamp}\n# layer\trequest\tparent\tstart_s\tend_s\n")
            for i in range(len(self.layer)):
                fh.write(
                    f"{LAYERS[self.layer[i]]}\t{self.request[i]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
