"""Per-layer tracing installed from outside the library.

``Tracer.install`` replaces each public function named in ``SPANS`` by a
wrapper that records a span (name, start, end, parent, op id), in every
numrange module that binds the function under that name, because
``from ... import`` copies the binding.  ``RunReport.to_json`` is patched
on its class.  Hot leaves get counters without spans: numpy ``eigvalsh``
(calls and time) and ``kms.parity_equation`` (calls).  numpy ``eigh`` is
reached only through ``linalg.hermitian_eig``, which has a span.  A wrapper counts an exception
as a failure of its layer and re-raises it.  ``uninstall`` puts every
original back.

Layer names are the numrange module names; a metric name is
``<layer>.<function>.<quantity>``.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import numpy as np

import numrange
import numrange.cli  # noqa: F401 - imports every module whose bindings are wrapped
import numrange.report

SPANS = {
    "numerical_range": ("numerical_radius", "boundary", "support_function"),
    "linalg": ("determinant", "solve", "hermitian_eig", "singular_values"),
    "poncelet": ("poncelet_polygon", "unitary_dilation", "unitary_eigensystem",
                 "edge_support_gaps", "circumscription_check"),
    "kms": ("solve_root", "kms_root_system"),
    "radius": ("radius_single_zero", "radius_closed_form"),
    "blaschke": ("takenaka_taylor",),
    "subspaces": ("cross_gram", "subspace_cos_angle", "radius_estimate"),
    "inequalities": ("schwarz_pick_check", "schwarz_pick_chain", "haagerup_harpe_check",
                     "operator_mobius", "polynomial_apply"),
    "model_operator": ("compress_shift_adjoint", "single_zero_matrix"),
    "cli": ("main",),
}
COUNTED = ("kms.parity_equation",)
TIMED_LEAVES = {"numpy.eigvalsh": "eigvalsh"}

PER_LAYER_METRICS = (
    ("numerical_range.eigensolves", "count"),
    ("numerical_range.eigensolve_ms", "ms"),
    ("numerical_range.eigensolves_per_radius", "count"),
    ("numerical_range.numerical_radius.calls", "count"),
    ("numerical_range.numerical_radius.self_ms", "ms"),
    ("numerical_range.boundary.calls", "count"),
    ("numerical_range.boundary.self_ms", "ms"),
    ("numerical_range.support_function.calls", "count"),
    ("numerical_range.support_function.self_ms", "ms"),
    ("linalg.determinant.calls", "count"),
    ("linalg.determinant.ms", "ms"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.ms", "ms"),
    ("linalg.hermitian_eig.calls", "count"),
    ("linalg.hermitian_eig.ms", "ms"),
    ("linalg.singular_values.calls", "count"),
    ("linalg.singular_values.ms", "ms"),
    ("poncelet.poncelet_polygon.calls", "count"),
    ("poncelet.poncelet_polygon.self_ms", "ms"),
    ("poncelet.phase_residuals_per_polygon", "count"),
    ("poncelet.unitary_dilation.calls", "count"),
    ("poncelet.unitary_dilation.ms", "ms"),
    ("poncelet.unitary_eigensystem.calls", "count"),
    ("poncelet.unitary_eigensystem.ms", "ms"),
    ("poncelet.edge_support_gaps.self_ms", "ms"),
    ("poncelet.circumscription_check.self_ms", "ms"),
    ("kms.solve_root.calls", "count"),
    ("kms.solve_root.ms", "ms"),
    ("kms.solve_root.failures", "count"),
    ("kms.parity_equation.calls", "count"),
    ("kms.kms_root_system.self_ms", "ms"),
    ("radius.radius_single_zero.calls", "count"),
    ("radius.radius_single_zero.self_ms", "ms"),
    ("radius.radius_closed_form.calls", "count"),
    ("blaschke.takenaka_taylor.calls", "count"),
    ("blaschke.takenaka_taylor.ms", "ms"),
    ("blaschke.takenaka_taylor.terms", "count"),
    ("subspaces.cross_gram.calls", "count"),
    ("subspaces.cross_gram.self_ms", "ms"),
    ("subspaces.subspace_cos_angle.self_ms", "ms"),
    ("subspaces.radius_estimate.self_ms", "ms"),
    ("subspaces.truncation_terms", "count"),
    ("inequalities.schwarz_pick_check.self_ms", "ms"),
    ("inequalities.schwarz_pick_chain.self_ms", "ms"),
    ("inequalities.haagerup_harpe_check.self_ms", "ms"),
    ("inequalities.operator_mobius.calls", "count"),
    ("inequalities.operator_mobius.ms", "ms"),
    ("inequalities.polynomial_apply.calls", "count"),
    ("model_operator.compress_shift_adjoint.ms", "ms"),
    ("model_operator.single_zero_matrix.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("report.to_json.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)
UNITS = dict(PER_LAYER_METRICS)


def _numrange_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "numrange" or name.startswith("numrange."))]


def _bindings() -> list[tuple[object, str, str, object]]:
    """(namespace, attribute, span name, original) for every place that binds
    a traced function: its home module, each module that imported it by
    name, the numpy.linalg leaves and ``RunReport.to_json``."""
    modules = _numrange_modules()
    out = []
    spans = [f"{layer}.{name}" for layer, names in SPANS.items() for name in names]
    for span in (*spans, *COUNTED):
        layer, name = span.split(".")
        fn = getattr(sys.modules[f"numrange.{layer}"], name)
        out.extend((m, name, span, fn) for m in modules if vars(m).get(name) is fn)
    for span, name in TIMED_LEAVES.items():
        out.append((np.linalg, name, span, getattr(np.linalg, name)))
    cls = numrange.report.RunReport
    out.append((cls, "to_json", "report.to_json", cls.__dict__["to_json"]))
    return out


# Captured at import, before any wrapper can exist.
ORIGINALS = _bindings()


def assert_untraced() -> None:
    """Raise unless every traced name is bound to its original function."""
    for ns, attr, span, fn in ORIGINALS:
        bound = vars(ns).get(attr)
        if bound is not fn:
            raise RuntimeError(f"{span} is wrapped in {getattr(ns, '__name__', ns)}")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.leaf_seconds: Counter = Counter()
        self.terms: Counter = Counter()  # takenaka terms, truncations, eigensolves in radius
        self.op_id = -1
        self._installed: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, calls, failures, terms = (
            self.spans, self.stack, self.calls, self.failures, self.terms)
        is_radius = name == "numerical_range.numerical_radius"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            eig_before = calls["numpy.eigvalsh"]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failures[name] += 1
                raise
            finally:
                spans[idx] = (name, start, perf_counter(), parent, self.op_id)
                stack.pop()
            if is_radius:
                terms["eigensolves_in_radius"] += calls["numpy.eigvalsh"] - eig_before
            elif name == "blaschke.takenaka_taylor":
                terms["takenaka_terms"] += len(result.coeffs)
            elif name == "subspaces.subspace_cos_angle":
                terms["truncation_terms"] += result.truncation
            return result

        return wrapper

    def _timed_leaf(self, name: str, fn):
        calls, seconds = self.calls, self.leaf_seconds

        def wrapper(*args, **kwargs):
            calls[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        assert_untraced()
        wrappers = {}
        for ns, attr, span, fn in ORIGINALS:
            if span not in wrappers:
                if span in COUNTED:
                    wrappers[span] = self._counted(span, fn)
                elif span in TIMED_LEAVES:
                    wrappers[span] = self._timed_leaf(span, fn)
                else:
                    wrappers[span] = self._span(span, fn)
            setattr(ns, attr, wrappers[span])
            self._installed.append((ns, attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            ns, attr, fn = self._installed.pop()
            setattr(ns, attr, fn)
        assert_untraced()

    # -- results ------------------------------------------------------------

    def counts(self) -> tuple[int, ...]:
        """Running totals of the counts that depend only on the ops' inputs:
        eigvalsh calls, determinant calls, parity_equation calls, Takenaka
        terms and subspace truncation terms.  Two traced passes over the
        same ops must give them exactly."""
        return (
            self.calls["numpy.eigvalsh"],
            self.calls["linalg.determinant"],
            self.calls["kms.parity_equation"],
            self.terms["takenaka_terms"],
            self.terms["truncation_terms"],
        )

    def per_layer(self, ops: int, overhead_ratio: float) -> dict[str, float]:
        """Every metric of ``PER_LAYER_METRICS``, per op."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        residuals = 0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child[idx]
            if name == "linalg.determinant" and self._under(parent, "poncelet.poncelet_polygon"):
                residuals += 1
        calls, terms = self.calls, self.terms

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values = {"trace.overhead_ratio": overhead_ratio}
        for name in UNITS:
            if name in values:
                continue
            key, _, quantity = name.rpartition(".")
            if quantity == "calls":
                values[name] = calls[key] / ops
            elif quantity == "failures":
                values[name] = self.failures[key] / ops
            elif quantity == "ms":
                values[name] = 1e3 * total[key] / ops
            elif quantity == "self_ms":
                values[name] = 1e3 * self_s[key] / ops
        values.update({
            "numerical_range.eigensolves": calls["numpy.eigvalsh"] / ops,
            "numerical_range.eigensolve_ms": 1e3 * self.leaf_seconds["numpy.eigvalsh"] / ops,
            "numerical_range.eigensolves_per_radius": ratio(
                terms["eigensolves_in_radius"], calls["numerical_range.numerical_radius"]),
            "poncelet.phase_residuals_per_polygon": ratio(
                residuals, calls["poncelet.poncelet_polygon"]),
            "blaschke.takenaka_taylor.terms": terms["takenaka_terms"] / ops,
            "subspaces.truncation_terms": terms["truncation_terms"] / ops,
        })
        return {name: values[name] for name in UNITS}

    def _under(self, idx: int, name: str) -> bool:
        while idx >= 0:
            span = self.spans[idx]
            if span[0] == name:
                return True
            idx = span[3]
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f'{{"id":{idx},"name":"{name}","start":{start!r},'
                         f'"end":{end!r},"parent":{parent},"op":{op}}}\n')
