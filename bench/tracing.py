"""Spans around the calls into each biframekit layer, recorded from outside.

:func:`install` replaces the public functions of every module (and every
other module's imported reference to them, e.g. ``opcalc.optimal_bounds``)
with wrappers that record ``(name, start, end, parent, bytes)`` in memory
while :attr:`Tracer.active` is set.  Nothing inside ``src/`` changes.
:meth:`Tracer.stats` and :func:`per_layer` turn the spans into the per-layer
metrics.

A span's self time is its duration minus the time covered by its direct
children; a layer's inclusive time counts only its outermost span, so
nested calls of the same layer are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute).  Several attributes may share a span name;
# they then form one layer.
LAYERS = [
    *(("linalg." + a, "biframekit.linalg", a) for a in (
        "hermitian_eigen", "min_eigenpair", "is_psd", "sqrt_psd", "max_psd_shift",
        "hermitian_part", "asymmetry")),
    *(("linalg.svd", "biframekit.linalg", a) for a in (
        "spectral_norm", "operator_rank", "pseudo_inverse", "orthonormal_range",
        "orthonormal_nullspace", "invert")),
    *(("biframe." + a, "biframekit.biframe", a) for a in (
        "frame_operator", "optimal_bounds", "check_bounds", "verify_bounds", "classify",
        "biframe_form", "gram_target", "swap")),
    *(("measure." + a, "biframekit.measure", a) for a in (
        "product_measure", "from_partition", "gauss_legendre")),
    *(("opcalc." + a, "biframekit.opcalc", a) for a in (
        "promote", "restrict_to_range", "combine_sum", "combine_product", "product_chain",
        "apply_operator", "canonical_dual", "sandwich", "inverse_conjugate",
        "max_transfer_ratio", "commuting_transform", "perturb_positive",
        "tight_scaling_check", "parseval_check")),
    *(("quotient." + a, "biframekit.quotient", a) for a in (
        "quotient_norm", "validity_cross_check", "transform_equivalences")),
    *(("tensor." + a, "biframekit.tensor", a) for a in (
        "tensor_system", "factor_bounds_check", "kron")),
    ("app.manifest.loads", "biframekit.app.manifest", "loads"),
    ("app.manifest.dumps", "biframekit.app.manifest", "dumps"),
    ("app.fixtures", "biframekit.app.fixtures", "fixture_record"),
    ("app.fixtures", "biframekit.app.fixtures", "fixture"),
]

# Constructors whose validation and copies make up "system build".
BUILD_CLASSES = [
    ("biframekit.biframe", "BiframeSystem"),
    ("biframekit.biframe", "SampledField"),
    ("biframekit.measure", "DiscreteMeasure"),
]

# Bytes handled by a call, for the MB/s metrics.
SIZES = {
    "app.manifest.loads": lambda args, out: len(args[0]),
    "app.manifest.dumps": lambda args, out: len(out),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent, bytes]
        self.labels: dict[int, str] = {}  # span index -> op label, for "op" spans
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, label: str | None = None):
        if not self.active:
            yield
            return
        if label is not None:
            self.labels[len(self.spans)] = label
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if size is not None:
                    rec[4] = size(args, out)
                return out
            finally:
                self._close(rec)

        return traced

    def root_op(self, i: int) -> int:
        """Index of the ``op`` span that span ``i`` ran under (-1 if none)."""
        while i >= 0 and self.spans[i][0] != "op":
            i = self.spans[i][3]
        return i

    def stats(self) -> dict[str, dict]:
        """Calls, inclusive and self time and bytes per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = {}
        for i, (name, start, end, parent, nbytes) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "bytes": 0,
                                        "under_cli": 0, "under_rule": 0, "rules": 0})
            s["calls"] += 1
            s["self"] += (end - start) - child[i]
            s["bytes"] += nbytes
            ancestors = []
            j = parent
            while j >= 0:
                ancestors.append(spans[j][0])
                j = spans[j][3]
            if name not in ancestors:
                s["incl"] += end - start
            if any(a == "app.cli.command" for a in ancestors):
                s["under_cli"] += 1
            if ancestors and ancestors[0].startswith("opcalc."):
                s["under_rule"] += 1
            if name.startswith("opcalc.") and ancestors and ancestors[0] == "op":
                s["rules"] += 1
        return stats


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every layer; returns what :func:`uninstall` needs to undo it."""
    import biframekit.app.cli as cli

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "biframekit" or name.startswith("biframekit."))]
    undo = []
    for span_name, module_name, attr in LAYERS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    for module_name, cls_name in BUILD_CLASSES:
        cls = getattr(sys.modules[module_name], cls_name)
        undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = tracer.wrap("biframe.system_build", cls.__init__)
    for command in cli.main.commands.values():
        undo.append((command, "callback", command.callback))
        command.callback = tracer.wrap("app.cli.command", command.callback)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def per_layer(stats: dict, n_ops: int) -> dict[str, float]:
    """The per-layer metrics, normalised per op (ms for times)."""

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def prefixed(prefix, key):
        return sum(s[key] for name, s in stats.items() if name.startswith(prefix))

    def per_op(x):
        return x / n_ops

    def ms(x):
        return 1e3 * x / n_ops

    def mb_per_s(name):
        seconds = get(name, "incl")
        return get(name, "bytes") / 1e6 / seconds if seconds else 0.0

    rules = prefixed("opcalc.", "rules")
    commands = get("app.cli.command", "calls")
    return {
        "linalg.hermitian_eigen.calls_per_op": per_op(get("linalg.hermitian_eigen", "calls")),
        "linalg.hermitian_eigen.ms_per_op": ms(get("linalg.hermitian_eigen", "incl")),
        "linalg.max_psd_shift.calls_per_op": per_op(get("linalg.max_psd_shift", "calls")),
        "linalg.max_psd_shift.self_ms_per_op": ms(get("linalg.max_psd_shift", "self")),
        "linalg.svd.calls_per_op": per_op(get("linalg.svd", "calls")),
        "linalg.svd.ms_per_op": ms(get("linalg.svd", "incl")),
        "linalg.sqrt_psd.ms_per_op": ms(get("linalg.sqrt_psd", "incl")),
        "biframe.optimal_bounds.calls_per_op": per_op(get("biframe.optimal_bounds", "calls")),
        "biframe.optimal_bounds.self_ms_per_op": ms(get("biframe.optimal_bounds", "self")),
        "biframe.check_bounds.calls_per_op": per_op(get("biframe.check_bounds", "calls")),
        "biframe.check_bounds.self_ms_per_op": ms(get("biframe.check_bounds", "self")),
        "biframe.system_build.ms_per_op": ms(get("biframe.system_build", "incl")),
        "opcalc.rule.self_ms_per_op": ms(prefixed("opcalc.", "self")),
        "opcalc.input_bounds_per_rule":
            get("biframe.optimal_bounds", "under_rule") / rules if rules else 0.0,
        "quotient.self_ms_per_op": ms(prefixed("quotient.", "self")),
        "tensor.tensor_system.ms_per_op": ms(get("tensor.tensor_system", "incl")),
        "tensor.factor_bounds_check.self_ms_per_op": ms(get("tensor.factor_bounds_check", "self")),
        "measure.product_measure.ms_per_op": ms(get("measure.product_measure", "incl")),
        "app.manifest.loads.ms_per_op": ms(get("app.manifest.loads", "incl")),
        "app.manifest.loads.mb_per_s": mb_per_s("app.manifest.loads"),
        "app.manifest.dumps.ms_per_op": ms(get("app.manifest.dumps", "incl")),
        "app.manifest.dumps.mb_per_s": mb_per_s("app.manifest.dumps"),
        "app.fixtures.ms_per_op": ms(get("app.fixtures", "incl")),
        "app.cli.command.self_ms_per_op": ms(get("app.cli.command", "self")),
        "app.cli.optimal_bounds_per_command":
            get("biframe.optimal_bounds", "under_cli") / commands if commands else 0.0,
    }
