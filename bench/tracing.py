"""Per-layer tracing of spin9, done from outside the package.

`Tracer.install()` replaces selected spin9 functions and methods by
timing wrappers: every binding of the original object in every loaded
spin9 module is swapped, so calls made inside the package (for example
`canonical.frame_change_fixes` calling `canonical_8form`) are seen too.
`uninstall()` puts the originals back.

Each wrapped call of a timed target is one span (id, parent id, name,
start, end), kept in memory and written out at the end of the traced
pass.  Times are inclusive: a metric's seconds cover its outermost call
only, so a call nested inside another call of the same metric is not
counted twice, but a call of a different layer nested inside (say
`curvature_omega` inside `averaging_identity`) counts in both.  Targets
that are only counted (octonion products, operator products and
applications) record no span, which keeps their overhead small.

A target that the installed spin9 does not define is skipped, so its
metrics read 0; `Tracer.missing` names it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


def _pairs_forms(args, result):
    return args[0].term_count() * args[1].term_count()


def _pairs_np(args, result):  # _np_wedge_into(acc, (masks, coeffs), (masks, coeffs))
    return args[1][0].size * args[2][0].size


def _pairs_dicts(args, result):  # _wedge_dicts(ta, tb, ...)
    return len(args[0]) * len(args[1])


def _pairs_dicts_into(args, result):  # _wedge_dicts_into(acc, ta, tb)
    return len(args[1]) * len(args[2])


def _terms(args, result):
    return args[0].term_count()


def _length(args, result):
    return len(result)


# (module, attribute, seconds metric, calls metric, work metric, work function)
# All five wedge implementations feed the exterior.wedge_* metrics except
# the loop written inline in canonical._conjecture_build, which no wrapper
# can reach; its time shows in canonical.conjecture_build_s.
TARGETS = (
    ("exterior", "AlternatingForm.wedge", "exterior.wedge_s",
     "exterior.wedge_calls", "exterior.wedge_term_pairs", _pairs_forms),
    ("exterior", "_np_wedge_into", "exterior.wedge_s",
     "exterior.wedge_calls", "exterior.wedge_term_pairs", _pairs_np),
    ("canonical", "_wedge_dicts", "exterior.wedge_s",
     "exterior.wedge_calls", "exterior.wedge_term_pairs", _pairs_dicts),
    ("canonical", "_wedge_dicts_into", "exterior.wedge_s",
     "exterior.wedge_calls", "exterior.wedge_term_pairs", _pairs_dicts_into),
    ("exterior", "AlternatingForm.evaluate", "exterior.evaluate_s",
     "exterior.evaluate_calls", "exterior.evaluate_terms", _terms),
    ("exterior", "AlternatingForm.lie_derivative", "exterior.lie_derivative_s",
     "exterior.lie_derivative_calls", None, None),
    ("exterior", "AlternatingForm.pullback", "exterior.pullback_s",
     "exterior.pullback_calls", None, None),
    ("canonical", "canonical_8form", "canonical.omega8_build_s", None, None, None),
    ("canonical", "canonical_8form_alt", "canonical.omega8_alt_build_s",
     None, None, None),
    ("canonical", "conjecture_8form", "canonical.conjecture_build_s",
     None, None, None),
    ("canonical", "four_form_omega_sum", "canonical.four_form_sums_s",
     None, None, None),
    ("canonical", "four_form_sigma_sum", "canonical.four_form_sums_s",
     None, None, None),
    ("canonical", "frame_change_fixes", "canonical.frame_rebuild_s",
     "canonical.frame_rebuilds", None, None),
    ("canonical", "rotation_fixes", "canonical.rotation_fixes_s", None, None, None),
    ("canonical", "export_coefficients", "canonical.export_s", None,
     "canonical.export_bytes", _length),
    ("bpt", "materialize_bpt_8form", "bpt.materialize_s", None, None, None),
    ("bpt", "materialize_bpt_4form", "bpt.materialize_s", None, None, None),
    ("bpt", "bpt_8form_full", "bpt.full_sum_s", "bpt.sum_calls", None, None),
    ("bpt", "bpt_8form_reduced", "bpt.reduced_sum_s", "bpt.sum_calls", None, None),
    ("bpt", "bpt_invariance_defect", "bpt.defect_s", None, None, None),
    ("stabilizer", "infinitesimal_stabilizer", "stabilizer.solve_s",
     "stabilizer.solves", None, None),
    ("stabilizer", "stabilizer_system", "stabilizer.system_s", None,
     "stabilizer.system_rows", _length),
    ("stabilizer", "sp4_certification", "stabilizer.oracles_s", None, None, None),
    ("stabilizer", "decomposable_certification", "stabilizer.oracles_s",
     None, None, None),
    ("stabilizer", "lambda1_exclusion", "stabilizer.witnesses_s", None, None, None),
    ("stabilizer", "lambda3_exclusion", "stabilizer.witnesses_s", None, None, None),
    ("linalg", "modp_independent_rows", "linalg.modp_select_s", None,
     "stabilizer.selected_rows", _length),
    ("linalg", "nullspace", "linalg.nullspace_s",
     "stabilizer.nullspace_attempts", None, None),
    ("linalg", "int_echelon", "linalg.echelon_s", "linalg.echelon_calls",
     None, None),
    ("curvature", "curvature_omega", "curvature.omega_s", None, None, None),
    ("curvature", "curvature_brown_gray", "curvature.brown_gray_s",
     None, None, None),
    ("curvature", "curvature_prime_operator", "curvature.prime_operator_s",
     None, None, None),
    ("curvature", "curvature_prime_octonion", "curvature.prime_octonion_s",
     None, None, None),
    ("curvature", "sectional_curvature", "curvature.sectional_s", None, None, None),
    ("curvature", "averaging_identity", "curvature.averaging_s", None, None, None),
    ("octonion", "Octonion.__mul__", None, "octonion.mul_calls", None, None),
    ("operators", "Operator16.__matmul__", None, "operators.matmul_calls",
     None, None),
    ("operators", "Operator16.apply", None, "operators.apply_calls", None, None),
)

SUITES = ("octonion", "operators", "exterior", "canonical", "curvature",
          "stabilizer", "bpt")

# Every per-layer metric with its unit, in report order.  Metrics of a
# layer that a workload does not run read 0.
PER_LAYER = (
    ("exterior.wedge_s", "s"), ("exterior.wedge_calls", "count"),
    ("exterior.wedge_term_pairs", "count"),
    ("exterior.evaluate_s", "s"), ("exterior.evaluate_calls", "count"),
    ("exterior.evaluate_terms", "count"),
    ("exterior.lie_derivative_s", "s"), ("exterior.lie_derivative_calls", "count"),
    ("exterior.pullback_s", "s"), ("exterior.pullback_calls", "count"),
    ("canonical.omega8_build_s", "s"), ("canonical.omega8_alt_build_s", "s"),
    ("canonical.conjecture_build_s", "s"), ("canonical.four_form_sums_s", "s"),
    ("canonical.frame_rebuild_s", "s"), ("canonical.frame_rebuilds", "count"),
    ("canonical.rotation_fixes_s", "s"), ("canonical.export_s", "s"),
    ("canonical.export_bytes", "bytes"),
    ("bpt.materialize_s", "s"), ("bpt.full_sum_s", "s"),
    ("bpt.reduced_sum_s", "s"), ("bpt.sum_calls", "count"), ("bpt.defect_s", "s"),
    ("stabilizer.solve_s", "s"), ("stabilizer.solves", "count"),
    ("stabilizer.system_s", "s"), ("stabilizer.system_rows", "count"),
    ("stabilizer.selected_rows", "count"),
    ("stabilizer.nullspace_attempts", "count"),
    ("stabilizer.selection_success_ratio", "ratio"),
    ("stabilizer.oracles_s", "s"), ("stabilizer.witnesses_s", "s"),
    ("linalg.modp_select_s", "s"), ("linalg.nullspace_s", "s"),
    ("linalg.echelon_s", "s"), ("linalg.echelon_calls", "count"),
    ("curvature.omega_s", "s"), ("curvature.brown_gray_s", "s"),
    ("curvature.prime_operator_s", "s"), ("curvature.prime_octonion_s", "s"),
    ("curvature.sectional_s", "s"), ("curvature.averaging_s", "s"),
    ("curvature.integer_triples", "count"), ("curvature.rational_triples", "count"),
    ("curvature.integer_triple_us", "us"), ("curvature.rational_triple_us", "us"),
    ("octonion.mul_calls", "count"), ("operators.matmul_calls", "count"),
    ("operators.apply_calls", "count"),
) + tuple((f"suites.{s}_s", "s") for s in SUITES) + (
    ("cli.verify_lines", "count"),
    ("trace.overhead_s", "s"),
)

MAX_SPANS = 500_000


class NullTracer:
    """Stand-in for untraced passes: spans cost one no-op context manager."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def add(self, metric, amount):
        pass


class Tracer:
    """Counters, inclusive timers and spans for one traced pass."""

    enabled = True

    def __init__(self):
        self.values = defaultdict(float)
        self.spans = []
        self.dropped_spans = 0
        self.missing = []
        self._stack = []
        self._depth = defaultdict(int)
        self._next_id = 0
        self._undo = []

    # recording ------------------------------------------------------------

    def add(self, metric, amount):
        self.values[metric] += amount

    def _begin(self, seconds):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._depth[seconds] += 1
        return sid, parent

    def _end(self, sid, parent, name, seconds, t0, t1):
        self._stack.pop()
        self._depth[seconds] -= 1
        if not self._depth[seconds]:
            self.values[seconds] += t1 - t0
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, name, t0, t1))
        else:
            self.dropped_spans += 1

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-side span; adds to `<name>_s` and `<name>_calls`."""
        seconds = name + "_s"
        sid, parent = self._begin(seconds)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._end(sid, parent, name, seconds, t0, time.perf_counter())
            self.values[name + "_calls"] += 1

    def _timed(self, fn, name, seconds, calls, work, work_fn):
        perf_counter = time.perf_counter
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._begin(seconds)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid, parent, name, seconds, t0, perf_counter())
            if calls:
                values[calls] += 1
            if work:
                values[work] += work_fn(args, result)
            return result

        return wrapper

    def _counted(self, fn, calls):
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # patching -------------------------------------------------------------

    def install(self):
        for module, attr, seconds, calls, work, work_fn in TARGETS:
            mod = sys.modules.get("spin9." + module)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            name = f"{module}.{attr}"
            if seconds:
                wrapper = self._timed(original, name, seconds, calls, work, work_fn)
            else:
                wrapper = self._counted(original, calls)
            if owner_name:
                self._swap(owner, leaf, wrapper)
            else:
                self._swap_everywhere(original, wrapper)

    def _swap(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _swap_everywhere(self, original, new):
        for modname, mod in list(sys.modules.items()):
            if modname != "spin9" and not modname.startswith("spin9."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._swap(mod, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every PER_LAYER metric except the overhead, which needs two passes."""
        v = self.values
        attempts = v["stabilizer.nullspace_attempts"]
        v["stabilizer.selection_success_ratio"] = (
            v["stabilizer.solves"] / attempts if attempts else 0.0
        )
        for kind in ("integer", "rational"):
            n = v[f"curvature.{kind}_triple_calls"]
            v[f"curvature.{kind}_triples"] = n
            v[f"curvature.{kind}_triple_us"] = (
                v[f"curvature.{kind}_triple_s"] / n * 1e6 if n else 0.0
            )
        return {
            name: v[name] for name, _ in PER_LAYER if name != "trace.overhead_s"
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": t0, "end": t1}
                ) + "\n")
