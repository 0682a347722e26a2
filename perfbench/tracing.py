"""In-memory spans around calls into nhbloch's modules, for the per-layer metrics.

The layers are the package modules ``cli``, ``analytic``, ``dynamics``,
``fit`` and ``core``. A span is recorded around each call of a public name
of a layer made from another layer. The wrapper is installed where the
caller looks the name up: ``cli`` and ``fit`` bind names with ``from ...
import``, so patching the defining module would miss their calls.
``analytic.gamma_coefficients`` is the scalar damping provider the ODE
integrators call; it gets its own counters.

A span's self time is its duration minus that of its child spans; a layer's
busy time sums the spans not nested in a span of the same layer.
"""

from __future__ import annotations

import contextlib
import time

# (layer, module whose global name the caller looks up, name)
TARGETS = (
    ("analytic", "cli", "damped_bloch"),
    ("analytic", "cli", "coherent_bloch"),
    ("analytic", "cli", "gamma_coefficients"),
    ("dynamics", "cli", "integrate_bloch"),
    ("dynamics", "cli", "integrate_density"),
    ("dynamics", "cli", "max_deviation"),
    ("dynamics", "cli", "GammaOperator"),
    ("dynamics", "cli", "Trajectory"),
    ("fit", "cli", "fit_decay_model"),
    ("fit", "cli", "fidelity_trace"),
    ("fit", "cli", "MagnetizationSeries"),
    ("fit", "fit", "residuals"),
    ("fit", "fit", "default_initial_guess"),
    ("core", "cli", "bloch_to_density"),
    ("core", "fit", "bloch_to_density"),
    ("core", "fit", "fidelity"),
    ("core", "dynamics", "density_to_bloch"),
)

LAYERS = ("cli", "analytic", "dynamics", "fit", "core")


class Tracer:
    """Records spans while installed; ``layer_metrics`` reduces them.

    Each span is ``[layer, name, call, parent, start, end]``: ``call`` is
    the index of the enclosing ``cli.main`` span, shared by every span of
    one CLI call, and ``parent`` the index of the enclosing span (-1 at the
    top).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.lm_iterations = 0
        self._open: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            index = len(spans)
            call = spans[open_spans[0]][2] if open_spans else index
            record = [layer, name, call, parent, 0.0, 0.0]
            spans.append(record)
            open_spans.append(index)
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                open_spans.pop()
            if name == "fit_decay_model":
                self.lm_iterations += result.iterations
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Patch the TARGETS and ``cli.main`` in ``modules`` (name -> module)."""
        saved = []
        targets = (("cli", "cli", "main"),) + TARGETS
        try:
            for layer, where, name in targets:
                module = modules[where]
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self._wrap(layer, name, original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, name, call, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        m = {f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("busy_s", "self_s")}
        m.update({f"{layer}.calls": 0 for layer in LAYERS})
        m.update({
            "analytic.provider_calls": 0, "analytic.provider_s": 0.0,
            "fit.residual_evals": 0, "fit.guess_s": 0.0, "fit.series_s": 0.0,
        })
        for i, (layer, name, call, parent, start, end) in enumerate(spans):
            duration = end - start
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += duration - child[i]
            if parent < 0 or spans[parent][0] != layer:
                m[f"{layer}.busy_s"] += duration
            if name == "gamma_coefficients":
                m["analytic.provider_calls"] += 1
                m["analytic.provider_s"] += duration
            elif name == "residuals":
                m["fit.residual_evals"] += 1
            elif name == "default_initial_guess":
                m["fit.guess_s"] += duration
            elif name == "MagnetizationSeries":
                m["fit.series_s"] += duration
        m["fit.lm_iterations"] = self.lm_iterations
        evals = m["fit.residual_evals"]
        m["fit.accept_ratio"] = self.lm_iterations / evals if evals else 0.0
        return m

    def write(self, path: str):
        """Write the spans as CSV, times in microseconds from the first span."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("layer,name,call,parent,start_us,end_us\n")
            for layer, name, call, parent, start, end in self.spans:
                handle.write(
                    f"{layer},{name},{call},{parent},"
                    f"{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f}\n"
                )
