"""Spans and counts recorded from outside loraeh.

Each traced function is wrapped at every module binding that holds it (for
example ``loraeh.act.steady_state`` as well as ``loraeh.markov.steady_state``),
so the program itself is unchanged. Spans stay in memory until the run ends.
Hot scalar helpers get a counting wrapper only; their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _on_build(tracer, args, kwargs, result):
    n = int(result.n_bins)
    tracer.cells += n * n
    tracer.matrix_mib = max(tracer.matrix_mib, 8.0 * n * n / 2**20)


def _on_steady_state(tracer, args, kwargs, result):
    # a distinct solve has a distinct (scheme, airtime, model, bins)
    bound = tracer.steady_state_signature.bind(*args, **kwargs)
    bound.apply_defaults()
    scheme, airtime, model = list(bound.arguments.values())[:3]
    tracer.solve_keys.append((scheme, airtime, model, bound.arguments.get("n_bins")))


def _on_simulation(tracer, args, kwargs, result):
    tracer.device_cycles += int(result.cycles.sum())


# (layer, defining module, attribute, hook); attribute may name a method
SPANS = (
    ("config.load", "loraeh.config", "load_config", None),
    ("capacitor.trajectory", "loraeh.capacitor", "simulate_trajectory", None),
    ("markov.steady_state", "loraeh.markov", "steady_state", _on_steady_state),
    ("markov.build", "loraeh.markov", "build_transition_matrix", _on_build),
    ("markov.solve", "loraeh.markov", "stationary_distribution", None),
    ("markov.decay_mean", "loraeh.markov", "DecayFactorDistribution.mean", None),
    ("phy.collision_fraction", "loraeh.phy", "collision_fraction", None),
    ("hypergeom", "loraeh.hypergeom", "hyp2f1_special", None),
    ("geometry.coverage_profile", "loraeh.geometry", "coverage_profile", None),
    ("geometry.sample_network", "loraeh.geometry", "sample_network", None),
    ("montecarlo.run", "loraeh.montecarlo", "run_simulation", _on_simulation),
    ("act.plan", "loraeh.act", "plan_cdc", None),
    ("act.plan", "loraeh.act", "plan_cve", None),
)
COUNTS = (
    ("phy.duty_cycle", "loraeh.phy", "duty_cycle"),
    ("phy.ring_index", "loraeh.phy", "ring_index"),
    ("geometry.path_gain", "loraeh.geometry", "path_gain"),
)


class Tracer:
    """Spans, call counts and computed counts of one traced pass."""

    def __init__(self, pass_no: int):
        self.pass_no = pass_no
        self.trace_id = None  # (pass, job index); spans of one job share it
        self.spans = []  # (trace_id, span_id, parent_id, name, start, end)
        self.counts = Counter()
        self.cells = 0
        self.matrix_mib = 0.0
        self.solve_keys = []
        self.device_cycles = 0
        self._stack = [None]
        self._next_id = 0
        import loraeh.markov

        self.steady_state_signature = inspect.signature(loraeh.markov.steady_state)

    def _open(self):
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _close(self, span_id, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((self.trace_id, span_id, parent, name, start, end))

    @contextmanager
    def root(self, name: str, job_no: int):
        """Span of one whole job."""
        self.trace_id = (self.pass_no, job_no)
        span_id, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def timed(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the parts their child spans cover."""
        children = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        out = defaultdict(float)
        for _, span_id, _, name, start, end in self.spans:
            out[name] += end - start - children[span_id]
        return out

    def calls(self) -> Counter:
        return Counter(name for *_, name, _, _ in self.spans) + self.counts


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function at each loraeh binding that holds it."""
    import loraeh.cli  # noqa: F401  (imports every module that binds a traced function)

    wrappers = []
    for layer, module, attr, hook in SPANS:
        owner, name = _resolve(module, attr)
        wrappers.append((owner, name, tracer.timed(layer, getattr(owner, name), hook)))
    for layer, module, attr in COUNTS:
        owner, name = _resolve(module, attr)
        wrappers.append((owner, name, tracer.counted(layer, getattr(owner, name))))
    patched = []
    modules = [m for n, m in list(sys.modules.items()) if n == "loraeh" or n.startswith("loraeh.")]
    for owner, name, wrapper in wrappers:
        original = wrapper.__wrapped__
        targets = [owner] if inspect.isclass(owner) else modules
        for target in targets:
            for binding, value in list(vars(target).items()):
                if value is original:
                    setattr(target, binding, wrapper)
                    patched.append((target, binding, original))
    try:
        yield tracer
    finally:
        for target, binding, original in reversed(patched):
            setattr(target, binding, original)
