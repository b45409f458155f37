"""Per-layer spans and counters for one traced CLI task.

The tracer wraps the public functions of each pdefisher module from the
outside, at the name each caller looks up (``cli`` and ``forward`` import by
name, so those modules' own bindings are patched).  Nothing under ``src/``
changes.  A span records its duration and the time its direct child spans
took, so a layer's self time is available; a span whose layer is already open
on the same thread is not counted again.
"""

import functools
import threading
import time
from collections import defaultdict


def _cols(h):
    shape = getattr(h, "shape", None)
    return 1 if shape is None or len(shape) < 2 else int(shape[1])


def _etd_steps(model):
    return sum(nsteps for _, nsteps, _ in model.mesh.blocks) * getattr(model, "substeps", 1)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name, dur, child_s, top, counts):
        with self._lock:
            self.seconds[name] += dur
            self.self_seconds[name] += dur - child_s
            self.counts[name + ".calls"] += 1
            for key, val in counts.items():
                key = name + "." + key
                if key.endswith("_max"):
                    self.counts[key] = max(self.counts[key], val)
                else:
                    self.counts[key] += val
            if top:
                self.top_level_s += dur

    def span(self, name):
        """Context manager for a span that wraps no function (the import)."""
        return _Span(self, name, {})

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a spanned version; ``count(args, kwargs)``
        returns the work counters of one call."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack()
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            with _Span(tracer, name, count(args, kwargs) if count else {}):
                return fn(*args, **kwargs)

        setattr(owner, attr, spanned)

    def install(self, cli):
        """Wrap every layer boundary the benchmark reports on."""
        from pdefisher import forward, gaussian, inference, information, noise

        self.wrap(cli, "build_experiment", "config.build")

        self.wrap(
            forward.SpaceTimeField, "evaluate", "kernels.eval",
            lambda a, k: {"points": len(a[1]), "mode_points": len(a[1]) * a[0].es.size},
        )

        noise_classes = [
            c for c in vars(noise).values()
            if isinstance(c, type) and issubclass(c, noise.NoiseModel)
        ]
        for cls in noise_classes:
            if "sample" in vars(cls):
                self.wrap(cls, "sample", "noise.sample", lambda a, k: {"draws": int(a[2])})
            for attr in ("logpdf", "score"):
                if attr in vars(cls):
                    self.wrap(cls, attr, "noise.density")
        for mod, attr in ((noise, "fisher_matrix"), (information, "compute_fisher"), (cli, "fisher_matrix")):
            self.wrap(mod, attr, "noise.fisher")

        self.wrap(inference, "simulate_dataset", "inference.simulate")
        self.wrap(inference, "log_likelihood_ratio", "inference.llr")
        self.wrap(inference, "influence_values", "inference.influence")
        self.wrap(cli, "lan_montecarlo", "inference.mc")
        self.wrap(cli, "efficiency_report", "inference.mc")

        for cls in (forward.HeatModel, forward.ReactionDiffusionModel, forward.NavierStokesModel):
            self.wrap(cls, "solve", "forward.solve")
            self.wrap(
                cls, "linearize", "forward.linearize",
                lambda a, k: {"cols": _cols(a[2]), "col_steps": _cols(a[2]) * _etd_steps(a[0])},
            )

        self.wrap(forward, "values_from_coeffs", "spectral.to_values")
        self.wrap(forward, "coeffs_from_values", "spectral.to_coeffs")

        self.wrap(cli, "assemble_information_matrix", "information.assemble")
        self.wrap(
            information, "spacetime_gram", "information.gram",
            lambda a, k: {"batch_bytes_max": int(a[0].data.nbytes)},
        )
        self.wrap(information.DesignMeasure, "sample", "information.design_sample")
        self.wrap(
            information.InformationMatrix, "__init__", "information.factor",
            lambda a, k: {"k3": int(len(a[1])) ** 3},
        )

        for mod in (cli, gaussian):
            self.wrap(mod, "sample_efficient_gaussian", "gaussian.sample")
        self.wrap(cli, "support_diagnostic", "gaussian.support")
        self.wrap(cli, "functional_pushforward_bound", "gaussian.pushforward")

    def summary(self):
        return {
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
        }


class _Span:
    def __init__(self, tracer, name, counts):
        self.tracer = tracer
        self.frame = [name, 0.0]
        self.counts = counts

    def __enter__(self):
        self.stack = self.tracer._stack()
        self.stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dur = time.perf_counter() - self.t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dur
        top = not self.stack and threading.get_ident() == self.tracer._main
        self.tracer._close(self.frame[0], dur, self.frame[1], top, self.counts)
        return False
