"""Traced run: span recorder around qtcatalan's public functions, and the
reduction of spans to per-layer self times and work counts.

The layers are the package's modules.  ``install`` wraps every public
function of each module, plus the arithmetic and structural methods of
``SparsePoly``, and rebinds every module attribute that refers to one of
them, including names a module imported from another (for example
``qtcatalan.catalan.enumerate_paths4`` and ``qtcatalan.cli.expand_truncated``).

A span is ``[name, start, end, parent, count]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``count`` the work the call did, in
the unit of the metric it feeds.  Spans stay in memory until the job ends.
"""

from __future__ import annotations

import importlib
import time
from types import FunctionType

MODULES = ("polynomial", "dyck", "catalan", "involution", "omega", "cli")

# Called once per path or per grid point: a wrapper would cost more than
# the call, so their time falls in the caller's self time.
PER_ITEM = frozenset({
    "ceil_div", "area3", "bounce3", "area_from_runs", "bounce_from_runs",
    "bounce3_bd", "to_param3", "to_redrank3", "area4", "bounce4_case",
    "bounce4", "region_of_path3", "region_of_path4", "parity_x", "parity_y",
    "lemma4_check", "classify_phi", "phi", "classify_psi", "psi", "classify",
    "involution_map", "apply_involution"})

POLY_METHODS = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                "__rmul__", "__pow__", "swap_vars", "is_symmetric", "coeff",
                "eval_ones")


def _mul_pairs(args, result) -> int:
    a, b = args
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _terms(args, result) -> int:
    return len(result.terms)


# span name -> (args, result) -> count
COUNTERS = {
    "dyck.enumerate_paths3": lambda args, result: len(result),
    "dyck.enumerate_paths4": lambda args, result: len(result),
    "catalan.gf_series3": _terms,
    "catalan.gf_series4": _terms,
    "catalan.catalan_poly3": _terms,
    "catalan.catalan_poly_k4": _terms,
    "catalan.catalan_poly_lambda3": _terms,
    "catalan.refined_poly3": _terms,
    "catalan.refined_poly4": _terms,
    "omega.expand_truncated.crude": _terms,
    "omega.expand_truncated.closed": _terms,
    "polynomial.SparsePoly.__mul__": _mul_pairs,
    "involution.verify_involution": lambda args, result: result.checked,
}


class Rebinder:
    """Rebinds attributes of the package's modules and classes; undoes it."""

    def __init__(self, package):
        self.modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                                    for m in MODULES]
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, replacements: dict):
        """Point every module attribute that refers to a key at its value."""
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in replacements:
                    self.rebind(mod, attr, replacements[value])

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Recorder(Rebinder):
    """Wraps functions in place and records one span per call."""

    def __init__(self, package):
        super().__init__(package)
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if name == "omega.expand_truncated":
            def name_of(args):
                return name + (".crude" if args[0].elim else ".closed")
        else:
            def name_of(args):
                return name

        def traced(*args, **kwargs):
            span_name = name_of(args)
            span = [span_name, 0.0, 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counter = COUNTERS.get(span_name)
            if counter is not None:
                span[4] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(package) -> Recorder:
    """Wrap the public functions of ``package``'s modules; return the recorder.

    ``restore()`` on the recorder puts the package back as it was.
    """
    rec = Recorder(package)
    wrapped = {}
    for short, mod in zip(MODULES, rec.modules[1:]):
        for name, fn in vars(mod).items():
            if (isinstance(fn, FunctionType) and fn.__module__ == mod.__name__
                    and not name.startswith("_") and name not in PER_ITEM):
                wrapped[fn] = rec.wrap(f"{short}.{name}", fn)
    poly_cls = rec.modules[1].SparsePoly
    for attr in POLY_METHODS:
        fn = poly_cls.__dict__.get(attr)
        if fn is None:
            continue
        if fn not in wrapped:
            wrapped[fn] = rec.wrap(f"polynomial.SparsePoly.{fn.__name__}", fn)
        rec.rebind(poly_cls, attr, wrapped[fn])
    rec.replace(wrapped)
    return rec


# ----------------------------------------------------------------------
# reduction (no qtcatalan needed)


def self_times(spans: list) -> dict[str, tuple[float, int]]:
    """Per span name: total self time (duration minus child spans) and count."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for (name, start, end, _, count), child in zip(spans, covered):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += end - start - child
        entry[1] += count
    return {name: (t, c) for name, (t, c) in totals.items()}


# per-layer metric -> span names whose self time (``_s``) or count it sums
LAYER_METRICS = {
    "omega.expand_crude_s": ("omega.expand_truncated.crude",),
    "omega.crude_terms": ("omega.expand_truncated.crude",),
    "omega.expand_closed_s": ("omega.expand_truncated.closed",),
    "omega.closed_terms": ("omega.expand_truncated.closed",),
    "omega.series_equal_s": ("omega.series_equal", "omega.truncate_weighted"),
    "omega.slice_s": ("omega.slice_weight_vector", "omega.slice_term_bound"),
    "omega.build_s": ("omega.build_crude_F", "omega.build_crude_H",
                      "omega.closed_form"),
    "catalan.oracle_s": ("catalan.gf_series3", "catalan.gf_series4"),
    "catalan.poly_s": ("catalan.catalan_poly3", "catalan.catalan_poly_k4",
                       "catalan.catalan_poly_lambda3", "catalan.refined_poly3",
                       "catalan.refined_poly4"),
    "catalan.terms_out": tuple(n for n in COUNTERS if n.startswith("catalan.")),
    "dyck.enumerate_s": ("dyck.enumerate_paths3", "dyck.enumerate_paths4"),
    "dyck.paths": ("dyck.enumerate_paths3", "dyck.enumerate_paths4"),
    "polynomial.mul_s": ("polynomial.SparsePoly.__mul__",
                         "polynomial.SparsePoly.__pow__"),
    "polynomial.mul_term_pairs": ("polynomial.SparsePoly.__mul__",),
    "polynomial.add_s": ("polynomial.SparsePoly.__add__",
                         "polynomial.SparsePoly.__sub__",
                         "polynomial.SparsePoly.__neg__"),
    "polynomial.is_symmetric_s": ("polynomial.SparsePoly.is_symmetric",),
    "involution.verify_s": ("involution.verify_involution",),
    "involution.points": ("involution.verify_involution",),
    # self time of the cli layer: cli.main minus the spans of other layers
    "cli.self_s": ("cli.main", "cli.build_parser"),
}

# rate metric -> (count metric, time metric)
RATES = {
    "omega.crude_terms_per_s": ("omega.crude_terms", "omega.expand_crude_s"),
    "dyck.paths_per_s": ("dyck.paths", "dyck.enumerate_s"),
    "polynomial.mul_pairs_per_s": ("polynomial.mul_term_pairs", "polynomial.mul_s"),
    "involution.points_per_s": ("involution.points", "involution.verify_s"),
}


def layer_metrics(spans: list) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``, from one job's spans."""
    per_name = self_times(spans)
    values: dict[str, float] = {}
    for metric, names in LAYER_METRICS.items():
        index = 0 if metric.endswith("_s") else 1
        values[metric] = sum(per_name[n][index] for n in names if n in per_name)
    for metric, (count, secs) in RATES.items():
        values[metric] = values[count] / values[secs] if values[secs] > 0 else 0.0
    return values


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    return "s" if metric.endswith("_s") else "count"
