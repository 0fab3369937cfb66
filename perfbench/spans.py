"""Span tracing around the program's public functions, from outside it.

Tracer.install replaces each traced function in every hetnet_tr module
that holds it (harness and power import by name), so calls made through
any of those names are recorded. Spans stay in memory as
(id, name, start, end, parent) and are written once, at the end.
"""

import importlib
import json
import sys
import time
import warnings

# defining module -> traced functions; a span is named after its function
TRACED = {
    "hetnet_tr.channel": ("place_nodes", "draw_channel_set"),
    "hetnet_tr.beamform": ("zf_select", "tr_beamformer_cirs"),
    "hetnet_tr.linops": ("pseudo_inverse", "dominant_eigpair",
                         "spectral_radius"),
    "hetnet_tr.sinr": ("mu_breakdown", "fu_breakdown"),
    "hetnet_tr.power": ("build_femto_lp", "solve_femto", "solve_macro",
                        "solve_centralized", "solve_proposed"),
    "hetnet_tr.robust": ("assemble_bounds", "solve_robust",
                         "sample_true_channels"),
    "hetnet_tr.harness": ("run_experiment",),
}


class Tracer:
    """Records spans while enabled; passes calls straight through otherwise."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.dual_iterations = 0
        self.clamp_warnings = 0
        self._stack = []
        self._originals = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                if name == "assemble_bounds":
                    result = tracer._counting_warnings(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span] = (span, name, start, end, parent)
            if name == "solve_macro":
                tracer.dual_iterations += result[1].iterations
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_warnings(self, fn, args, kwargs):
        # the harness silences these clamp warnings; count, then re-issue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        self.clamp_warnings += len(caught)
        for w in caught:
            warnings.warn(w.message, w.category, stacklevel=3)
        return result

    def install(self):
        functions = [getattr(importlib.import_module(modname), name)
                     for modname, names in TRACED.items() for name in names]
        modules = [m for k, m in sys.modules.items()
                   if k == "hetnet_tr" or k.startswith("hetnet_tr.")]
        for fn in functions:
            wrapper = self._wrap(fn.__name__, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._originals.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._originals):
            setattr(mod, key, fn)
        self._originals.clear()

    def totals(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for span, name, start, end, _ in self.spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[span]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def layer_metrics(totals, trials, dual_iterations, clamp_warnings):
    """Per-layer figures from span totals over the timed trials."""
    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def seconds(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def per_call(time_s, count):
        return time_s * 1e6 / count if count else 0.0

    out = {}

    def layer(prefix, names, count_name=None):
        count = calls(count_name or names[0])
        out[f"{prefix}.calls_per_trial"] = (count / trials, "calls/trial")
        out[f"{prefix}.us_per_call"] = (per_call(seconds(*names), count),
                                        "us/call")

    out["channel.draw.us_per_trial"] = (
        seconds("place_nodes", "draw_channel_set") * 1e6 / trials, "us/trial")
    layer("beamform.zf_select", ["zf_select"])
    layer("beamform.tr", ["tr_beamformer_cirs"])
    layer("linops.pinv", ["pseudo_inverse"])
    layer("linops.eigpair", ["dominant_eigpair"])
    layer("linops.spectral_radius", ["spectral_radius"])
    layer("sinr.breakdown", ["mu_breakdown", "fu_breakdown"])
    # one femto design is a build followed, when feasible, by a solve
    layer("power.femto", ["build_femto_lp", "solve_femto"], "build_femto_lp")
    layer("power.macro", ["solve_macro"])
    macro_calls = calls("solve_macro")
    out["power.macro.dual_iters_per_call"] = (
        dual_iterations / macro_calls if macro_calls else 0.0, "iters/call")
    layer("power.centralized", ["solve_centralized"])
    proposed = totals.get("solve_proposed", (0, 0.0, 0.0))
    out["power.proposed.calls_per_trial"] = (proposed[0] / trials,
                                             "calls/trial")
    out["power.proposed.self_us_per_call"] = (
        per_call(proposed[2], proposed[0]), "us/call")
    layer("robust.bounds", ["assemble_bounds"])
    layer("robust.solve", ["solve_robust"])
    layer("robust.sample", ["sample_true_channels"])
    out["robust.clamp_warnings_per_trial"] = (clamp_warnings / trials,
                                              "count/trial")
    harness = totals.get("run_experiment", (0, 0.0, 0.0))
    out["harness.self.ms_per_trial"] = (harness[2] * 1e3 / trials, "ms/trial")
    return out
