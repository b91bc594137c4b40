"""Span tracing of modk2's layers, installed from outside the package.

`Tracer.install()` replaces the functions and methods named in `TARGETS`
with wrappers that record one span per call: (name, start, end, parent).
Modules bind names with `from .x import f`, so every attribute of every
loaded `modk2` module that refers to a wrapped function is rebound, not
only the defining one.  Methods are rebound on their class, which every
caller reaches through attribute lookup.

Spans stay in memory; `summary()` turns them into the per-layer metrics
and `write_spans()` writes them out once the traced call has returned.
"""

import functools
import importlib
import json
import sys
import time

# layer -> names wrapped in modk2.<layer>; "Class.method" names a method.
# Hot inner helpers (GFq field arithmetic, CycNumFormal exponent vectors,
# vec_mat) are left unwrapped: their time is self time of the caller.
TARGETS = {
    "intlinalg": [
        "smith_normal_form", "rank_mod_p",
        "RowSolver.__init__", "RowSolver.solve", "RowSolver.kernel_basis",
        "IntQuotient.__init__", "IntQuotient.reduce",
        "IntQuotient.is_zero_away_from", "IntQuotient.element_order",
        "IntQuotient.free_lifts",
    ],
    "modsym": [
        "ManinPresentation.__init__",
        "ManinPresentation.express_in_manin_image",
        "ManinPresentation.manin_kernel_vectors",
        "ManinPresentation.homology_basis", "ManinPresentation.absolute_rank",
        "ManinPresentation.apply_diamond", "ManinPresentation.apply_u",
        "ManinPresentation.apply_t", "ManinPresentation.apply_w",
        "CuspTable.__init__", "CuspTable.kernel_orbits",
        "lattice_row_basis", "degeneracy_rows", "degeneracy_surjective_mod_p",
    ],
    "k2model": [
        "PresentedK2.__init__", "PresentedK2.from_rows", "PresentedK2.reduce",
        "PresentedK2.is_zero_away_from", "PresentedK2.order_of",
        "k2_image", "tame_eval", "km_trivial", "norm_compare",
        "TameVector.galois", "TameVector.dlog_certificate",
    ],
    "places": [
        "places_over", "Place.tame_pair", "GFq.dlog",
        "place_moved", "transport_residue", "push_residue", "embed_residue",
    ],
    "cyclo": [
        "CycElt.zero", "CycElt.from_rational", "CycElt.one", "CycElt.zeta",
        "CycElt.one_minus_zeta", "CycElt.__add__", "CycElt.__neg__",
        "CycElt.__sub__", "CycElt.__mul__", "CycElt.inverse",
        "CycElt.__pow__", "CycElt.galois", "CycElt.embed_into",
        "CycElt.absolute_norm", "unit_relation_rows", "verify_unit_relation",
    ],
    "gamma0pres": [
        "CocycleModule.__init__", "CocycleModule.rank_matches",
        "CocycleModule.map_kills_relations",
        "CocycleModule.surjects_onto_interior_homology",
    ],
    "torus_k1": [
        "cocycle_value", "pushforward_cocycle_compat", "pushforward_vertical",
        "pullback",
    ],
    "harness": [
        "run_check", "presented_model", "degeneracy_pair",
        "save_wedge_rows", "load_wedge_rows", "save_degeneracy",
        "load_degeneracy", "_cache_presentations",
    ],
}

# metric -> (kind, span names); "time" sums outermost spans of the names,
# "calls" counts them.  Counters filled by the hooks below are listed in
# COUNTERS, per-layer self times are added by summary().
SPAN_METRICS = {
    "intlinalg.snf_s": ("time", ["intlinalg.smith_normal_form"]),
    "intlinalg.snf_calls": ("calls", ["intlinalg.smith_normal_form"]),
    "intlinalg.solve_s": ("time", ["intlinalg.RowSolver.solve"]),
    "intlinalg.solve_calls": ("calls", ["intlinalg.RowSolver.solve"]),
    "intlinalg.quotient_reduce_s": ("time", [
        "intlinalg.IntQuotient.reduce", "intlinalg.IntQuotient.is_zero_away_from",
        "intlinalg.IntQuotient.element_order"]),
    "intlinalg.rank_mod_p_s": ("time", ["intlinalg.rank_mod_p"]),
    "modsym.build_s": ("time", ["modsym.ManinPresentation.__init__"]),
    "modsym.preimage_s": ("time", [
        "modsym.ManinPresentation.express_in_manin_image",
        "modsym.ManinPresentation.manin_kernel_vectors"]),
    "modsym.homology_basis_s": ("time", ["modsym.ManinPresentation.homology_basis"]),
    "modsym.degeneracy_s": ("time", [
        "modsym.degeneracy_rows", "modsym.degeneracy_surjective_mod_p"]),
    "modsym.operators_s": ("time", [
        "modsym.ManinPresentation.apply_diamond", "modsym.ManinPresentation.apply_u",
        "modsym.ManinPresentation.apply_t", "modsym.ManinPresentation.apply_w"]),
    "k2model.presented_build_s": ("time", [
        "k2model.PresentedK2.__init__", "k2model.PresentedK2.from_rows"]),
    "k2model.presented_reduce_s": ("time", [
        "k2model.PresentedK2.reduce", "k2model.PresentedK2.is_zero_away_from",
        "k2model.PresentedK2.order_of"]),
    "k2model.k2_image_s": ("time", ["k2model.k2_image"]),
    "k2model.tame_eval_s": ("time", ["k2model.tame_eval"]),
    "k2model.tame_eval_calls": ("calls", ["k2model.tame_eval"]),
    "k2model.norm_compare_s": ("time", ["k2model.norm_compare"]),
    "places.places_over_s": ("time", ["places.places_over"]),
    "places.tame_pair_s": ("time", ["places.Place.tame_pair"]),
    "places.tame_pair_calls": ("calls", ["places.Place.tame_pair"]),
    "places.dlog_s": ("time", ["places.GFq.dlog"]),
    "places.dlog_calls": ("calls", ["places.GFq.dlog"]),
    "gamma0pres.module_s": ("time", [
        "gamma0pres." + n for n in TARGETS["gamma0pres"]]),
    "torus_k1.cocycle_s": ("time", ["torus_k1." + n for n in TARGETS["torus_k1"]]),
    "torus_k1.cocycle_calls": ("calls", ["torus_k1.cocycle_value"]),
    "harness.run_check_s": ("time", ["harness.run_check"]),
    "harness.cache_save_s": ("time", [
        "harness.save_wedge_rows", "harness.save_degeneracy",
        "harness._cache_presentations"]),
    "harness.cache_load_s": ("time", [
        "harness.load_wedge_rows", "harness.load_degeneracy"]),
    "harness.cache_hits": ("calls", [
        "harness.load_wedge_rows", "harness.load_degeneracy"]),
    "harness.cache_misses": ("calls", [
        "harness.save_wedge_rows", "harness.save_degeneracy"]),
}

COUNTERS = ("intlinalg.snf_cells", "intlinalg.snf_nnz", "intlinalg.snf_max_rows",
            "k2model.presented_rows", "k2model.presented_dim",
            "places.places_built")

SELF_LAYERS = ("modsym", "k2model", "places", "cyclo", "harness")

# every per-layer metric summary() reports
METRIC_NAMES = tuple(sorted(list(SPAN_METRICS) + list(COUNTERS)
                            + [layer + ".self_s" for layer in SELF_LAYERS]))

# exact work counts; a traced run checks that they repeat between runs
EXACT_COUNTS = tuple(sorted(
    [m for m, (kind, _) in SPAN_METRICS.items() if kind == "calls"]
    + list(COUNTERS)))

# spans of this layer are the tracer's own counting work, never reported
OWN_LAYER = "perfbench"

PACKAGE = "modk2"


def _snf_counts(counters, args, kwargs, result):
    A = args[0]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    counters["intlinalg.snf_cells"] += rows * cols
    counters["intlinalg.snf_nnz"] += sum(1 for row in A for v in row if v)
    counters["intlinalg.snf_max_rows"] = max(
        counters["intlinalg.snf_max_rows"], rows)


def _presented_counts(counters, args, kwargs, result):
    pk = args[0] if result is None else result   # __init__ or from_rows
    counters["k2model.presented_rows"] += len(pk.rows)
    counters["k2model.presented_dim"] += pk.dim


def _places_counts(counters, args, kwargs, result):
    counters["places.places_built"] += len(result)


HOOKS = {
    "intlinalg.smith_normal_form": _snf_counts,
    "k2model.PresentedK2.__init__": _presented_counts,
    "k2model.PresentedK2.from_rows": _presented_counts,
    "places.places_over": _places_counts,
}


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Records spans of wrapped modk2 calls in one process."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self.stack = []
        self.counters = {c: 0 for c in COUNTERS}
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                # counting runs as a child span of the caller so that its
                # cost is not charged to the caller's self time
                h0 = clock()
                hook(counters, args, kwargs, result)
                spans.append((OWN_LAYER + ".count", h0, clock(), parent))
            return result

        return traced

    def install(self):
        for layer in TARGETS:
            importlib.import_module(PACKAGE + "." + layer)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for layer, names in TARGETS.items():
            mod = sys.modules[PACKAGE + "." + layer]
            for qual in names:
                full = layer + "." + qual
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = cls.__dict__.get(meth) if cls is not None else None
                    if raw is None:
                        self.missing.append(full)
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(full, raw.__func__))
                    else:
                        new = self._wrap(full, raw)
                    setattr(cls, meth, new)
                    continue
                orig = getattr(mod, qual, None)
                if orig is None:
                    self.missing.append(full)
                    continue
                new = self._wrap(full, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, new)
        return self

    def summary(self):
        """Per-layer metrics of the recorded spans."""
        return summarize(self.spans, self.counters)

    def write_spans(self, path, point):
        with open(path, "a") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([point, name, t0, t1, parent]) + "\n")


def self_times(spans):
    """Self time of each span: duration minus the union its children cover.

    `spans` is a list of (name, start, end, parent index or -1).
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, t0, t1, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted((max(spans[c][1], t0), min(spans[c][2], t1))
                           for c in children[i]):
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((t1 - t0) - covered)
    return out


def _outermost(spans, names):
    """Indices of spans named in `names` with no ancestor named in `names`."""
    out = []
    for i, (name, _, _, parent) in enumerate(spans):
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def summarize(spans, counters):
    metrics = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        names = set(names)
        if kind == "calls":
            metrics[metric] = sum(1 for s in spans if s[0] in names)
        else:
            metrics[metric] = sum((spans[i][2] - spans[i][1]
                                   for i in _outermost(spans, names)), 0.0)
    metrics.update(counters)
    selfs = self_times(spans)
    for layer in SELF_LAYERS:
        metrics[layer + ".self_s"] = 0.0
    for (name, _, _, _), st in zip(spans, selfs):
        key = layer_of(name) + ".self_s"
        if key in metrics:
            metrics[key] += st
    return metrics


def merge(total, part):
    """Add one point's metrics into a sweep total (max for max metrics)."""
    for key, val in part.items():
        if key.endswith("_max_rows"):
            total[key] = max(total.get(key, 0), val)
        else:
            total[key] = total.get(key, 0) + val
    return total
