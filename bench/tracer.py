"""Span tracing of the isozono layers, from outside the library.

Each layer is one module of the package.  `Tracer.install` wraps every public
function of a layer, and every public method of the classes it defines, at
each place the package binds it: the defining module, every module that
imported the name (``from .intmat import cross_nd`` binds its own copy), and
the package namespace the benchmark calls through.  `Tracer.restore` puts
every original object back.

A span is (name, parent, start, end), recorded when a call enters a layer from
outside it (from the benchmark or from another layer); a call that stays
inside its own layer records none, since its time is that layer's anyway.
Spans live in flat arrays while the run is going and are written out once at
the end.  A layer's self time is the time of its spans minus the time covered
by their child spans, so the self times of all layers plus the benchmark's
own time add up to the traced time.

The element-wise vector helpers of `intmat` are not wrapped: each call costs
less than a span does, so tracing them would mostly measure the tracer.
Their time stays with the layer that calls them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("intmat", "geometry", "plgraph", "lattice", "zonotope", "boundary",
          "search", "catalog")
UNWRAPPED = frozenset({"intmat.dot", "intmat.vadd", "intmat.vsub", "intmat.vneg",
                       "intmat.vscale", "intmat.is_zero"})
# Calls made from inside their own layer record no span, but these still
# feed the layer's work counters.
COUNTED_WHEN_NESTED = frozenset({
    "boundary.directional_sweep", "geometry.convex_hull", "geometry.hrep_vertices",
    "lattice.count_lattice_points", "search.exhaustive_min_boundary",
    "search.local_search_min_boundary", "search.convergence_experiment"})


def _package_modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


def namespace_snapshot(package):
    """Identity snapshot of every package module and layer class namespace."""
    snap = {}
    for module in _package_modules(package):
        snap[module.__name__] = {k: id(v) for k, v in vars(module).items()}
        for cls in _layer_classes(package, module):
            snap[f"{module.__name__}.{cls.__qualname__}"] = {
                k: id(v) for k, v in vars(cls).items()}
    return snap


def _layer_classes(package, module):
    layer = module.__name__.rpartition(".")[2]
    if module.__name__ == package.__name__ or layer not in LAYERS:
        return []
    return [obj for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def _public_callables(package, module):
    """(qualified name, owner, attribute, function) for one layer module."""
    layer = module.__name__.rpartition(".")[2]
    out = []
    for name, obj in vars(module).items():
        if (name.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__):
            continue
        qual = f"{layer}.{name}"
        if qual not in UNWRAPPED:
            out.append((qual, None, name, obj))
    source = module.__file__
    for cls in _layer_classes(package, module):
        for name, obj in vars(cls).items():
            if not inspect.isfunction(obj):
                continue
            # Hand-written constructors do real work; dataclass-generated
            # ones are compiled from a string and only store fields.
            if name.startswith("_") and not (
                    name == "__init__" and obj.__code__.co_filename == source):
                continue
            out.append((f"{layer}.{cls.__name__}.{name}", cls, name, obj))
    return out


class Tracer:
    """Wraps the layers from install() to restore(); records spans while
    `recording` is set, which the benchmark does only inside a root span."""

    def __init__(self, package, metrics=None):
        self.package = package
        self.metrics = metrics
        self.names = []
        self.layer_of_name = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.recording = False
        self._saved = []

    def name_id(self, qual):
        nid = self._name_ids.get(qual)
        if nid is None:
            nid = self._name_ids[qual] = len(self.names)
            self.names.append(qual)
            self.layer_of_name.append(qual.partition(".")[0])
        return nid

    # -- installing and removing wrappers -------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules(self.package)
        wrappers = {}
        for module in modules:
            if module.__name__.rpartition(".")[2] not in LAYERS:
                continue
            for qual, owner, attr, fn in _public_callables(self.package, module):
                wrapper = self._wrap(qual, fn)
                wrappers[id(fn)] = wrapper
                if owner is not None:
                    self._saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
        for module in modules:
            ns = vars(module)
            for attr, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, qual, fn):
        nid = self.name_id(qual)
        layer = qual.partition(".")[0]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        layer_of_name = self.layer_of_name
        tracer = self
        count_nested = qual in COUNTED_WHEN_NESTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if parent >= 0 and layer_of_name[names[parent]] == layer:
                # A call inside the layer: its time is the layer's either way.
                result = fn(*args, **kwargs)
                if count_nested and tracer.metrics is not None:
                    tracer.metrics.observe(qual, args, result, True, 0.0)
                return result
            idx = len(names)
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if tracer.metrics is not None:
                tracer.metrics.observe(qual, args, result, False, ends[idx] - starts[idx])
            return result

        return wrapper

    # -- root spans opened by the benchmark -------------------------------------

    def open_root(self, qual):
        idx = len(self.span_name)
        self.span_name.append(self.name_id(qual))
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close_root(self, idx):
        self.span_end[idx] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("unbalanced root span")

    # -- analysis ---------------------------------------------------------------

    def self_times(self, first=0, last=None):
        """Self time per layer over spans[first:last] (a closed set of trees)."""
        last = len(self.span_name) if last is None else last
        selftime = [self.span_end[i] - self.span_start[i] for i in range(first, last)]
        for i in range(first, last):
            p = self.span_parent[i]
            if p >= first:
                selftime[p - first] -= self.span_end[i] - self.span_start[i]
        by_layer = Counter()
        for i, s in enumerate(selftime):
            by_layer[self.layer_of_name[self.span_name[first + i]]] += s
        return by_layer

    def root_time(self, first=0, last=None):
        last = len(self.span_name) if last is None else last
        return sum(self.span_end[i] - self.span_start[i] for i in range(first, last)
                   if self.span_parent[i] < 0)

    def write(self, path):
        """Write the span table as gzipped tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                         f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n")


class LayerMetrics:
    """Work counters observed at the layer boundaries while spans are recorded."""

    def __init__(self, package):
        self.iz = package
        self.counts = Counter()
        self.zonotope_inputs = set()

    def observe(self, qual, args, result, nested, duration):
        layer, _, func = qual.partition(".")
        if not nested:
            self.counts[layer + ".calls"] += 1
        handler = getattr(self, "_" + layer, None)
        if handler is not None:
            handler(func, args, result, nested, duration)

    def _zonotope(self, func, args, result, nested, duration):
        iz, c = self.iz, self.counts
        for obj in args + (result,):
            if isinstance(obj, (iz.Zonotope, iz.PLGraph)):
                self.zonotope_inputs.add((obj.dim, obj.generators))
        if nested:
            return
        if isinstance(result, iz.Polytope):
            c["zonotope.vertices_out"] += len(result.vertices)
            c["zonotope.faces_out"] += len(result.facets or ())
        elif isinstance(result, iz.FVector):
            c["zonotope.faces_out"] += sum(result.counts)
        elif func == "zonotope_vertices":
            c["zonotope.vertices_out"] += len(result)
        elif func == "zonotope_hrep":
            c["zonotope.faces_out"] += len(result)

    def _boundary(self, func, args, result, nested, duration):
        if func == "directional_sweep":
            self.counts["boundary.sweep_calls"] += 1
        elif func == "brunn_minkowski_certificate":
            self.counts["boundary.certificates"] += 1

    def _geometry(self, func, args, result, nested, duration):
        c = self.counts
        if func == "convex_hull":
            c["geometry.hull_calls"] += 1
            c["geometry.hull_points_in"] += len(args[0])
            c["geometry.hull_vertices_out"] += len(result.vertices)
        elif func == "hrep_vertices":
            c["geometry.hrep_ineqs_in"] += len(args[0])

    def _search(self, func, args, result, nested, duration):
        c = self.counts
        if func == "exhaustive_min_boundary":
            c["search.subsets"] += result.evaluated
            if not nested:
                c["search.exhaustive_s"] += duration
        elif func == "local_search_min_boundary":
            c["search.local_moves"] += result.evaluated
        elif func == "convergence_experiment":
            c["search.grid_points"] += grid_points(args[0], args[1])

    def _plgraph(self, func, args, result, nested, duration):
        if nested:
            return
        if func in ("edge_boundary_direct", "boundary_identity_report",
                    "projection_count", "gap_count"):
            self.counts["plgraph.points_in"] += len(args[1])
        elif func == "as_lattice_set":
            self.counts["plgraph.points_in"] += len(args[0])

    def _lattice(self, func, args, result, nested, duration):
        if func == "count_lattice_points":
            self.counts["lattice.points_counted"] += result


def grid_points(graph, alphas):
    """Grid points a convergence table scans: prod_i (2 floor(alpha h_i) + 1) per alpha.

    Computed from the scales and the zonotope's axis supports h_i, not
    counted inside the library.
    """
    from fractions import Fraction
    from math import floor
    supports = [sum(abs(g[i]) for g in graph.generators) for i in range(graph.dim)]
    total = 0
    for a in alphas:
        cells = 1
        for h in supports:
            cells *= 2 * floor(Fraction(a) * h) + 1
        total += cells
    return total
