"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the module attributes that callers reach (for
example ``hamming._expand_bits``, ``exactmath.pmf_convolve``,
``DiscretePMF.cdf_at``, ``robustness.robust_flags``) with wrappers that
time each call, and restores them on ``uninstall``.  Every timed call
pushes a frame; when it returns, its duration is charged to the enclosing
frame, so each layer's self time is its time minus that of the traced
calls inside it.  Coarse layers also keep a span (id, parent span, name,
start, end, self time) in memory; the hottest kernels, called up to
millions of times a round, keep only their call count and self time.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

from robustness_envelope import (
    classifiers,
    exactmath,
    gaussian,
    hamming,
    image_space,
    perturb,
    robustness,
    verify,
)

# (owner, attribute, layer, keep spans); the owner is a module or class
TIMED = [
    (hamming, "_expand_bits", "hamming.expand", False),
    (exactmath, "pmf_convolve", "exactmath.convolve", False),
    (exactmath.DiscretePMF, "cdf_at", "exactmath.cdf", False),
    (exactmath, "tail_table", "exactmath.tail_table", False),
    (exactmath, "compare_scaled_exp", "exactmath.compare_exp", False),
    (exactmath, "harper_rhs", "exactmath.harper_rhs", True),
    (gaussian, "gaussian_checks", "gaussian.checks", True),
    (image_space, "sample_uniform", "image_space.sample", False),
    (robustness, "class_robust_fraction", "robustness.fraction", True),
    (robustness, "robust_flags", "robustness.flags", True),
    (robustness, "labels_for", "robustness.labels", True),
    (robustness, "theorem1_holds", "robustness.theorem1", True),
    (robustness, "image_is_robust", "robustness.image_robust", False),
    (perturb, "nearest_cell_exhaustive", "perturb.oracle", True),
    (perturb, "minimal_perturbation", "perturb.oracle", True),
]
BUILDERS = [(classifiers, "sum_classifier"), (classifiers, "random_classifier")]


def _zero():
    return [0, 0.0]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_per_cell"):
        return "1/cell"
    return "count"


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.frames = [[0.0]]      # child time of each open call
        self.open_spans = [None]   # id of each open span
        self.layers = defaultdict(_zero)  # layer -> [calls, self seconds]
        self.counts = defaultdict(int)
        self.spans = []
        self._saved = []

    def reset(self) -> None:
        """Forget what earlier rounds recorded."""
        self.layers.clear()
        self.counts.clear()
        self.spans = []

    # -- wrappers -------------------------------------------------------------

    def timed(self, layer: str, fn, keep_span: bool):
        frames, open_spans, clock = self.frames, self.open_spans, self.clock
        totals = self.layers

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if keep_span:
                span_id = len(self.spans)
                self.spans.append(None)
                open_spans.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                frames[-1][0] += end - start
                own = end - start - frame[0]
                entry = totals[layer]
                entry[0] += 1
                entry[1] += own
                if keep_span:
                    open_spans.pop()
                    self.spans[span_id] = (span_id, open_spans[-1], layer,
                                           start, end, own)

        return wrapper

    def _counted_decide(self, decide):
        counts = self.counts

        def counted(image):
            counts["classifiers.decide_calls"] += 1
            return decide(image)

        return counted

    def _builder(self, fn):
        def build(*args, **kwargs):
            handle = fn(*args, **kwargs)
            return dataclasses.replace(
                handle, decide=self._counted_decide(handle.decide))

        return self.timed("classifiers.build", build, False)

    def _enumerate(self, fn):
        counts = self.counts

        def enumerate_space(*args, **kwargs):
            for image in fn(*args, **kwargs):
                counts["image_space.images_enumerated"] += 1
                yield image

        return enumerate_space

    def _find(self, fn):
        counts = self.counts

        def find(*args, **kwargs):
            before = counts["classifiers.decide_calls"]
            outcome = fn(*args, **kwargs)
            counts["perturb.cells_examined"] += outcome.cells_examined
            counts["perturb.find_decides"] += (
                counts["classifiers.decide_calls"] - before)
            return outcome

        return self.timed("perturb.find", find, True)

    def _matrix(self, fn):
        counts = self.counts

        def matrix(*args, **kwargs):
            misses = fn.cache_info().misses
            out = fn(*args, **kwargs)
            if fn.cache_info().misses > misses:
                counts["robustness.matrix_builds"] += 1
                counts["robustness.matrix_bytes"] += out.nbytes
            return out

        return self.timed("robustness.matrix", matrix, True)

    # -- installation ---------------------------------------------------------

    def _replace(self, owner, name, wrapper) -> None:
        """Point every reference the package holds to ``owner.name`` at
        ``wrapper`` (modules import some of these names directly)."""
        original = getattr(owner, name)
        modules = [m for key, m in sys.modules.items()
                   if key.startswith("robustness_envelope.")]
        holders = [owner] + [m for m in modules
                             if m is not owner and m.__dict__.get(name) is original]
        for holder in holders:
            self._saved.append((holder, name, original))
            setattr(holder, name, wrapper)

    def install(self) -> None:
        for owner, name, layer, keep in TIMED:
            self._replace(owner, name,
                          self.timed(layer, getattr(owner, name), keep))
        for owner, name in BUILDERS:
            self._replace(owner, name, self._builder(getattr(owner, name)))
        self._replace(image_space, "enumerate_space",
                      self._enumerate(image_space.enumerate_space))
        self._replace(perturb, "find_perturbation",
                      self._find(perturb.find_perturbation))
        self._replace(robustness, "_diff_pow_matrix",
                      self._matrix(robustness._diff_pow_matrix))
        suites = dict(verify.SUITES)
        self._saved.append((verify.SUITES, None, suites))
        for name, fn in suites.items():
            verify.SUITES[name] = self.timed(f"verify.{name}", fn, True)

    def uninstall(self) -> None:
        while self._saved:
            holder, name, original = self._saved.pop()
            if name is None:
                holder.clear()
                holder.update(original)
            else:
                setattr(holder, name, original)

    def op(self, fn):
        """Wrap one benchmark operation as a root span."""
        return self.timed("bench.op", fn, True)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and self times of what was recorded."""
        layer = self.layers
        count = self.counts
        out = {f"verify.{name}_s": layer[f"verify.{name}"][1]
               for name in sorted(verify.SUITES)}
        out.update({
            "hamming.expand_calls": layer["hamming.expand"][0],
            "hamming.expand_s": layer["hamming.expand"][1],
            "exactmath.convolve_calls": layer["exactmath.convolve"][0],
            "exactmath.convolve_s": layer["exactmath.convolve"][1],
            "exactmath.cdf_calls": layer["exactmath.cdf"][0],
            "exactmath.cdf_s": layer["exactmath.cdf"][1],
            "exactmath.tail_table_calls": layer["exactmath.tail_table"][0],
            "exactmath.tail_table_s": layer["exactmath.tail_table"][1],
            "exactmath.harper_rhs_s": layer["exactmath.harper_rhs"][1],
            "exactmath.compare_exp_calls": layer["exactmath.compare_exp"][0],
            "exactmath.compare_exp_s": layer["exactmath.compare_exp"][1],
            "gaussian.checks_s": layer["gaussian.checks"][1],
            "image_space.images_enumerated": count["image_space.images_enumerated"],
            "image_space.samples_drawn": layer["image_space.sample"][0],
            "image_space.sample_s": layer["image_space.sample"][1],
            "classifiers.decide_calls": count["classifiers.decide_calls"],
            "classifiers.build_s": layer["classifiers.build"][1],
            "robustness.flags_calls": layer["robustness.flags"][0],
            "robustness.flags_s": layer["robustness.flags"][1],
            "robustness.labels_s": layer["robustness.labels"][1],
            "robustness.matrix_builds": count["robustness.matrix_builds"],
            "robustness.matrix_s": layer["robustness.matrix"][1],
            "robustness.matrix_mib": count["robustness.matrix_bytes"] / 2 ** 20,
            "robustness.theorem1_s": layer["robustness.theorem1"][1],
            "robustness.image_robust_calls": layer["robustness.image_robust"][0],
            "robustness.image_robust_s": layer["robustness.image_robust"][1],
            "perturb.find_calls": layer["perturb.find"][0],
            "perturb.find_s": layer["perturb.find"][1],
            "perturb.cells_examined": count["perturb.cells_examined"],
            "perturb.decides_per_cell": (count["perturb.find_decides"]
                                         / count["perturb.cells_examined"]
                                         if count["perturb.cells_examined"] else 0.0),
            "perturb.oracle_s": layer["perturb.oracle"][1],
        })
        return out
