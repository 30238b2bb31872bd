"""Layer tracing for the traced benchmark run.

Wraps, from outside the package, the public functions of each measurekit
module and every method of the classes each module defines.  Each wrapped
call inside a timed operation records a span (id, parent, name, start, end)
and a call count; self time per layer is span time minus the time of the
wrapped calls nested in it.  Calls made outside a timed operation (set-up,
output checks) pass straight through and are not counted.

Layers are the modules: rng, catalog, core, combinators, kernels, verify, cli.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("rng", "catalog", "core", "combinators", "kernels", "verify", "cli")

# Dunder methods left alone: they either never run on the measured paths
# (frozen dataclasses assign through object.__setattr__) or run only in
# error messages and hashing of containers, where a span explains nothing.
_SKIP = {"__setattr__", "__delattr__", "__repr__", "__hash__", "__init_subclass__"}

# Inner spans kept for the span file; op spans are always kept.
SPAN_CAP = 100_000


class Tracer:
    """Span stack, call counts and per-layer self time for one process."""

    def __init__(self):
        self.stack = []  # frames: [layer, name, start_ns, child_ns, span_id]
        self.calls = Counter()  # "module.Qual.name" -> calls inside ops
        self.logdensity_logweights = 0  # LogWeights built inside logdensity ops
        self.chain_kernel_calls = 0  # Kernel.__call__ inside chain ops
        self.self_ns = Counter()  # layer -> self time
        self.verify_density_points = 0
        self.parse_ns = 0
        self.spans = []
        self.op_spans = []
        self.dropped = 0
        self._next_id = 0
        self._kind = None
        self._chain = False

    # -- op boundaries (called by the harness around each timed op) ---------

    def begin_op(self, kind: str, chain: bool) -> None:
        self._kind = kind
        self._chain = chain
        self._next_id += 1
        self.stack.append(["bench", "bench." + kind, time.perf_counter_ns(), 0, self._next_id])

    def end_op(self) -> None:
        layer, name, start, child, span_id = self.stack.pop()
        end = time.perf_counter_ns()
        self.self_ns[layer] += end - start - child
        self.op_spans.append((span_id, None, name, start, end))
        self._kind = None

    # -- wrapping -------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        stack = self.stack
        calls = self.calls
        self_ns = self.self_ns
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self
        is_log_density = name == "core.log_density"
        is_parse = name == "cli.parse_expr"
        is_kernel = name == "kernels.Kernel.__call__"
        is_logweight = name == "core.LogWeight.__post_init__"

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            calls[name] += 1
            if is_logweight and tracer._kind == "logdensity":
                tracer.logdensity_logweights += 1
            if is_kernel and tracer._chain:
                tracer.chain_kernel_calls += 1
            if is_log_density and parent[0] == "verify":
                tracer.verify_density_points += 1
            tracer._next_id += 1
            frame = [layer, name, clock(), 0, tracer._next_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self_ns[layer] += duration - frame[3]
                parent[3] += duration
                if is_parse and parent[1] != name:
                    tracer.parse_ns += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[4], parent[4], name, frame[2], end))
                else:
                    tracer.dropped += 1

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, package) -> None:
        """Wrap the layers of an imported measurekit package in place.

        Module-level functions are replaced wherever the package holds a
        reference to them (other modules' imported names, the package
        namespace, registry dicts), so calls between modules are traced.
        """
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and not attr.startswith("_"):
                    replaced[id(value)] = self.wrap(layer, f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        if inspect.isfunction(fn) and meth not in _SKIP:
                            setattr(value, meth, self.wrap(layer, f"{layer}.{attr}.{meth}", fn))
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in replaced:
                            value[key] = replaced[id(entry)]

    # -- results ----------------------------------------------------------------

    def total(self, predicate) -> int:
        return sum(n for name, n in self.calls.items() if predicate(name))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.op_spans + self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
            fh.write(json.dumps({"dropped_inner_spans": self.dropped}) + "\n")


def layer_metrics(tracer: Tracer, package, rounds: int, ops: dict, chain_elements: int,
                  weight_evaluations: int) -> dict:
    """Per-layer metrics, normalised per round of the workload's op list."""
    measure_classes = {
        f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}"
        for cls in _subclasses(package.MeasureExpr)
    }

    def method_calls(layer, method, measures_only=False):
        def pick(name):
            owner, _, meth = name.rpartition(".")
            return (owner.startswith(layer + ".") and meth == method
                    and (not measures_only or owner in measure_classes))
        return tracer.total(pick)

    node_eq = tracer.total(lambda name: name.endswith(".__eq__")
                           and name.rpartition(".")[0] in measure_classes)

    def per_round(v):
        return v / rounds

    def ms(layer):
        return tracer.self_ns[layer] / 1e6 / rounds

    count, rate, millis = "count/round", "count/op", "ms/round"
    values = {
        "rng.mix64_calls": (per_round(tracer.calls["rng.mix64"]), count),
        "rng.unit_calls": (per_round(tracer.calls["rng.RandomStream.unit"]), count),
        "rng.self_ms": (ms("rng"), millis),
        "catalog.family_density_calls": (per_round(method_calls("catalog", "log_density_at")), count),
        "catalog.sampler_calls": (per_round(method_calls("catalog", "_sample_normalized")), count),
        "catalog.self_ms": (ms("catalog"), millis),
        "core.log_density_calls": (per_round(tracer.calls["core.log_density"]), count),
        "core.logweight_created": (per_round(tracer.calls["core.LogWeight.__post_init__"]), count),
        "core.logweight_per_logdensity": (tracer.logdensity_logweights / max(ops["logdensity"], 1), rate),
        "core.node_eq_calls": (per_round(node_eq), count),
        "core.weight_evaluations": (per_round(weight_evaluations), count),
        "core.self_ms": (ms("core"), millis),
        "combinators.base_at_calls": (per_round(method_calls("combinators", "base_at")), count),
        "combinators.nodes_built": (per_round(method_calls("combinators", "__init__", True)), count),
        "combinators.log_total_mass_calls": (per_round(method_calls("combinators", "log_total_mass")), count),
        "combinators.self_ms": (ms("combinators"), millis),
        "kernels.kernel_applications": (per_round(tracer.calls["kernels.Kernel.__call__"]), count),
        "kernels.applications_per_chain_element": (
            tracer.chain_kernel_calls / chain_elements if chain_elements else 0.0, "count/elem"),
        "kernels.self_ms": (ms("kernels"), millis),
        "verify.density_points": (per_round(tracer.verify_density_points), count),
        "verify.self_ms": (ms("verify"), millis),
        "cli.parse_expr_calls": (per_round(tracer.calls["cli.parse_expr"]), count),
        "cli.parse_ms": (tracer.parse_ns / 1e6 / rounds, millis),
        "cli.self_ms": (ms("cli"), millis),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
