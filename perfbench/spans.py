"""Span tracing of quatreg from outside the package.

The tracer replaces public functions and methods of each quatreg module
with wrappers that record one span per call: name, start, end, parent and
outer duration.  Spans stay in memory for one pass; ``collect`` turns
them into per-layer self times, inclusive times and counts.

quatreg binds some names at import time (``from .operators import
spherical_frame`` in ``regularity``, ``fueter_laplacian`` in ``cli``,
``fueter_of_jet`` in ``integral``, everything in the package namespace),
so a wrapper is installed at every binding site of the original object:
every module attribute and every class attribute that is that object
(``RJet.__rmul__`` is ``RJet.__mul__``).

Self time is a span's duration minus the outer durations of its child
spans.  A child's outer duration includes its wrapper's own bookkeeping,
so tracer cost lands in no layer's self time; it shows only as the gap
between traced and untraced pass times (``trace.overhead_ratio``).
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Output coefficients per jet order and jet-by-jet pair products per
# element: pairs of 4-variable monomials whose degrees sum to <= order.
_NCOEF = [math.comb(k + 4, 4) for k in range(4)]
_NPAIRS = [sum(math.comb(d1 + 3, 3) * math.comb(d2 + 3, 3)
               for d1 in range(k + 1) for d2 in range(k + 1 - d1))
           for k in range(4)]
_F64 = 8


def _size(q):
    return max(np.size(q.t), np.size(q.x), np.size(q.y), np.size(q.z))


class Tracer:
    """Installs wrappers into quatreg and records spans while installed."""

    def __init__(self, quatreg):
        self.qr = quatreg
        self.modules = [quatreg] + [getattr(quatreg, m) for m in (
            "cli", "integral", "regularity", "operators", "catalog",
            "jets", "quaternion")]
        # One span per index, stored column-wise so that recording one
        # allocates no container the garbage collector has to track.
        self.names = []
        self.starts, self.ends = array("d"), array("d")
        self.parents, self.outers = array("q"), array("d")
        self.stack = [-1]
        self.counts = defaultdict(lambda: defaultdict(float))
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, count=None):
        """Wrapper recording a span named ``name`` (a str, or a callable of
        the call's arguments returning one) and, on success, counts."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, outers = self.parents, self.outers
        stack, counts = self.stack, self.counts
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            nm = fixed or name(args, kwargs)
            idx = len(names)
            names.append(nm)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            outers.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx], ends[idx] = t0, t1
                outers[idx] = t1 - t_in
            if count is not None:
                count(counts[nm], args, kwargs, out)
            outers[idx] = perf_counter() - t_in
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def collect(self):
        """Aggregate and clear the spans of one pass.

        Returns {span name: {"calls", "s", "incl_s", count keys...}}.
        """
        child = [0.0] * len(self.names)
        for parent, outer in zip(self.parents, self.outers):
            if parent >= 0:
                child[parent] += outer
        out = defaultdict(lambda: defaultdict(float))
        for nm, t0, t1, ch in zip(self.names, self.starts, self.ends, child):
            row = out[nm]
            row["calls"] += 1
            row["incl_s"] += t1 - t0
            row["s"] += (t1 - t0) - ch
        for nm, tallies in self.counts.items():
            for key, val in tallies.items():
                out[nm][key] += val
        self.names.clear()
        for col in (self.starts, self.ends, self.parents, self.outers):
            del col[:]
        self.counts.clear()
        if self.stack != [-1]:
            raise RuntimeError("unbalanced span stack")
        return out

    # -- installation ------------------------------------------------------

    def _patch(self, original, name, count, owners):
        """Replace ``original`` by one wrapper at every binding site: each
        attribute of an owner (module or class) that is ``original``."""
        sites = [(owner, attr) for owner in owners
                 for attr, val in vars(owner).items() if val is original]
        if not sites:
            raise RuntimeError(f"no binding site found for {name}")
        wrapper = self._wrap(original, name, count)
        for owner, attr in sites:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _patch_function(self, fn, name, count=None):
        self._patch(fn, name, count, self.modules)

    def _patch_method(self, cls, attr, name, count=None):
        self._patch(vars(cls)[attr], name, count, [cls])

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        qr = self.qr
        ops, reg, itg = qr.operators, qr.regularity, qr.integral
        jets, cat, quat = qr.jets, qr.catalog, qr.quaternion

        # cli: one span per run_suite call; the benchmark passes one suite
        # per config, so the span carries the suite name.
        self._patch_function(
            qr.cli.run_suite,
            lambda a, k: "cli.suite." + "+".join(
                (k.get("cfg") or a[0]).suites))

        # integral
        vol_nodes = itg.Hypersurface.volume_nodes

        def count_volume(c, a, k, out):
            c["nodes"] += vol_nodes(a[1])[1].size

        def count_surface(c, a, k, out):
            c["nodes"] += a[1].node_count

        def count_nodes(c, a, k, out):
            c["nodes"] += out[1].size

        self._patch_function(itg.volume_integral, "integral.volume_integral",
                             count_volume)
        self._patch_function(itg.surface_integral_left,
                             "integral.surface_integral_left", count_surface)
        self._patch_function(itg.theorem2_report, "integral.theorem2_report")
        self._patch_function(itg.generalized_regularity_test,
                             "integral.generalized_regularity_test")
        self._patch_function(itg.sphere3, "integral.sphere3")
        self._patch_method(itg.Hypersurface, "volume_nodes",
                           "integral.Hypersurface.volume_nodes", count_nodes)

        # catalog
        def count_jet_points(c, a, k, out):
            c["points"] += np.size(a[1].t.c[..., 0])

        self._patch_method(cat.QFunction, "eval_jet",
                           "catalog.QFunction.eval_jet", count_jet_points)
        self._patch_method(cat.QFunction, "eval_point",
                           "catalog.QFunction.eval_point", _count_points_of(1))

        # jets: RJet products per order, with computed operation counts
        rjet = jets.RJet
        mul_names = [f"jets.RJet.__mul__.o{k}" for k in range(4)]

        def count_rjet_mul(c, a, k, out):
            if out is NotImplemented:
                return
            order = out.order
            elems = out.c.size // _NCOEF[order]
            other = a[1]
            if isinstance(other, rjet):
                c["pairs"] += _NPAIRS[order] * elems
                c["bytes"] += _F64 * (a[0].c.size + other.c.size + out.c.size)
            else:
                c["pairs"] += _NCOEF[order] * elems
                c["bytes"] += _F64 * (a[0].c.size + np.size(other)
                                      + out.c.size)
            c["elems"] += elems

        self._patch_method(rjet, "__mul__",
                           lambda a, k: mul_names[a[0].order], count_rjet_mul)
        self._patch_method(jets.QJet, "__mul__", "jets.QJet.__mul__")
        for fn in ("sin", "cos", "sqrt", "recip", "atan", "atanh"):
            self._patch_method(rjet, fn, "jets.RJet.elementary")

        # operators
        self._patch_function(ops.spherical_frame, "operators.spherical_frame",
                             _count_points_of(0))
        self._patch_function(ops.angular_jet, "operators.angular_jet")
        self._patch_function(ops.fueter_laplacian,
                             "operators.fueter_laplacian")
        self._patch_function(ops.fueter_of_jet, "operators.fueter_of_jet")
        for fn in ("fueter_left", "fueter_left_spherical", "cullen_left",
                   "angular_derivative", "laplacian"):
            jets_name = f"operators.{fn}"
            self._patch_function(
                getattr(ops, fn),
                lambda a, k, jn=jets_name: ("operators.fd"
                                            if k.get("backend") == "fd"
                                            else jn))

        # regularity
        for fn in ("theorem1_residuals", "lemma1_residual",
                   "hyperholomorphy_report", "slice_parts"):
            self._patch_function(getattr(reg, fn), f"regularity.{fn}",
                                 _count_points_of(1))

        # quaternion
        def count_qmul(c, a, k, out):
            if out is not NotImplemented:
                c["elems"] += _size(out)

        self._patch_method(quat.Quaternion, "__mul__",
                           "quaternion.Quaternion.__mul__", count_qmul)
        self._patch_method(quat.SampleDomain, "sample",
                           "quaternion.SampleDomain.sample", _count_sampled)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _count_points_of(i):
    """Count the points of the quaternion in positional argument ``i``."""
    def count(c, a, k, out):
        c["points"] += _size(a[i])
    return count


def _count_sampled(c, a, k, out):
    c["points"] += _size(out)
