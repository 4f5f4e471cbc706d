"""Outside-in layer tracer for the hwiloc package.

The tracer wraps public functions of the package where their callers look
them up: a function imported with ``from .bounds import lb_report`` lives on
as ``hwiloc.harness.lb_report``, so every module attribute that *is* the
original function object is replaced by the wrapper, the defining module's
own attribute included (that covers calls inside one module). Methods are
wrapped on their class. Nothing inside the package is edited.

Each call to a span target records its layer name, start, end and parent
span in memory. Count targets are too hot to time (the estimators call
``ProjectionModel.objective_grid`` ~200 times per estimate); they only count
calls, attributed to every span open at the time, so ratios such as
objective evaluations per estimate are measured where the work happens.

A target that no longer exists is reported as absent; its metrics are left
out rather than reported as zero. Every wrapped attribute is restored by
:meth:`Tracer.uninstall`, also when the traced call raised.

Run ``python3 perfbench/tracer.py`` to execute the self-test.
"""

from __future__ import annotations

import statistics
import sys
import time
import types
from collections import defaultdict

# Layers timed as spans, named "<module>.<attribute path>" inside the package.
SPAN_TARGETS = (
    "config_io.resolve_spec",
    "harness.run_bounds_sweep",
    "harness.run_estimator_trials",
    "harness.apply_sweep_value",
    "impairments.sample_realization",
    "model.dft_matrix",
    "observation.mu_m1",
    "observation.sandwich_matrices",
    "observation.transmit_pilots",
    "observation.observe",
    "bounds.lb_report",
    "bounds.crb_m2_report",
    "bounds.pseudo_true",
    "bounds.crb_m1_numeric",
    "bounds.fim_m1_numeric",
    "bounds.model_derivatives",
    "estimation.mmle_m2",
    "estimation.mle_m1",
    "estimation.grid_search",
    "estimation.refine",
)
# Layers whose calls are counted, not timed.
COUNT_TARGETS = ("estimation.ProjectionModel.objective_grid",)

# The harness layer: its self time is everything a sweep does outside the
# layers below it. apply_sweep_value opens each sweep point.
HARNESS_LAYERS = (
    "harness.run_bounds_sweep",
    "harness.run_estimator_trials",
    "harness.apply_sweep_value",
)
POINT_MARK = "harness.apply_sweep_value"
# pool_bound_s is the sweep-point time that this many workers need at best
POOL_WORKERS = 2
# Layers reported with calls, total_s and self_s.
REPORTED_LAYERS = tuple(t for t in SPAN_TARGETS if t not in HARNESS_LAYERS)
# Layers whose returned arrays are summed, in MB.
OUT_MB_LAYERS = ("model.dft_matrix", "observation.sandwich_matrices")
ESTIMATOR_LAYERS = ("estimation.mmle_m2", "estimation.mle_m1")
OBJECTIVE = "estimation.ProjectionModel.objective_grid"
PSEUDO_TRUE = "bounds.pseudo_true"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in REPORTED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for layer in OUT_MB_LAYERS:
        units[f"{layer}.out_mb"] = "MB"
    units[f"{OBJECTIVE}.calls"] = "count"
    units["estimation.objective_evals_per_estimate"] = "count"
    units["estimation.iters_mean"] = "iter"
    units["estimation.iters_p90"] = "iter"
    units["estimation.maxiter_share"] = "share"
    units["estimation.converged_share"] = "share"
    units[f"{PSEUDO_TRUE}.objective_evals_per_call"] = "count"
    units["harness.self_s"] = "s"
    units["harness.point_s_max"] = "s"
    units["harness.point_s_sum"] = "s"
    units["harness.pool_bound_s"] = "s"
    return units


def _resolve(package: str, target: str):
    """(owner, attribute, value) of a dotted target, or None if absent."""
    module_name, _, path = target.partition(".")
    owner = sys.modules.get(f"{package}.{module_name}")
    if owner is None:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(attr)
    else:
        value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(
        self,
        package: str,
        span_targets=SPAN_TARGETS,
        count_targets=COUNT_TARGETS,
        estimator_layers=ESTIMATOR_LAYERS,
    ) -> None:
        self.package = package
        self.span_targets = tuple(span_targets)
        self.count_targets = tuple(count_targets)
        self.estimator_layers = frozenset(estimator_layers)
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list = []
        # span columns, indexed by span id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.nested: list[bool] = []  # an enclosing span has the same name
        self.out_bytes: dict[str, int] = defaultdict(int)
        self.estimates: list[tuple[object, object]] = []  # (n_iterations, converged)
        self.counts: dict[str, int] = defaultdict(int)
        self.counts_under: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    # -- install / uninstall ------------------------------------------------

    def _package_modules(self) -> list[types.ModuleType]:
        prefix = self.package + "."
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = self._package_modules()
        for kind, targets in (("span", self.span_targets), ("count", self.count_targets)):
            for target in targets:
                found = _resolve(self.package, target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr, original = found
                wrapper = (self._span if kind == "span" else self._counter)(target, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Package attributes, class attributes included, that still hold
        one of this tracer's wrappers."""
        ids = {id(w) for w in self._wrappers}
        out = []
        for module in self._package_modules():
            for name, value in list(vars(module).items()):
                if id(value) in ids:
                    out.append(f"{module.__name__}.{name}")
                if isinstance(value, type):
                    out += [
                        f"{module.__name__}.{name}.{k}"
                        for k, v in vars(value).items()
                        if id(v) in ids
                    ]
        return out

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        clock = time.perf_counter
        keep_bytes = name in OUT_MB_LAYERS
        is_estimator = name in self.estimator_layers

        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.nested.append(self._depth[name] > 0)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            self._depth[name] += 1
            self.starts[idx] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._depth[name] -= 1
                self._stack.pop()
            if keep_bytes:
                self.out_bytes[name] += int(getattr(out, "nbytes", 0))
            if is_estimator:
                self.estimates.append(
                    (getattr(out, "n_iterations", None), getattr(out, "converged", None))
                )
            return out

        wrapper.__wrapped__ = fn
        self._wrappers.append(wrapper)
        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            for idx in self._stack:
                self.counts_under[(name, self.names[idx])] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        self._wrappers.append(wrapper)
        return wrapper

    # -- aggregation --------------------------------------------------------

    def layer_times(self, since: float = float("-inf")) -> dict[str, dict[str, float]]:
        """calls, total_s (outermost spans only) and self_s per layer, over
        spans that started at or after `since` (perf_counter time)."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            if self.starts[i] < since:
                continue
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.ends[i] - self.starts[i]
            rec["calls"] += 1
            if not self.nested[i]:
                rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def point_times(self, run_end: float) -> list[float]:
        """Wall time of each sweep point: from one point mark to the next,
        the last one ending when its enclosing root span ends."""
        marks = [i for i, n in enumerate(self.names) if n == POINT_MARK]
        out = []
        for j, i in enumerate(marks):
            if j + 1 < len(marks):
                end = self.starts[marks[j + 1]]
            else:
                root = i
                while self.parents[root] >= 0:
                    root = self.parents[root]
                end = self.ends[root] if root != i else run_end
            out.append(end - self.starts[i])
        return out

    def report(self, run_end: float) -> dict[str, float]:
        """Per-layer metrics of every span recorded until run_end
        (perf_counter time); metrics of absent targets are left out."""
        absent = set(self.absent)
        times = self.layer_times()
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        m: dict[str, float] = {}
        for layer in REPORTED_LAYERS:
            if layer in absent:
                continue
            rec = times.get(layer, zero)
            m[f"{layer}.calls"] = rec["calls"]
            m[f"{layer}.total_s"] = rec["total_s"]
            m[f"{layer}.self_s"] = rec["self_s"]
        for layer in OUT_MB_LAYERS:
            if layer not in absent:
                m[f"{layer}.out_mb"] = self.out_bytes[layer] / 1e6
        n_est = sum(times.get(layer, zero)["calls"] for layer in self.estimator_layers)
        if OBJECTIVE not in absent:
            m[f"{OBJECTIVE}.calls"] = self.counts[OBJECTIVE]
            if not absent & self.estimator_layers:
                evals = sum(self.counts_under[(OBJECTIVE, e)] for e in self.estimator_layers)
                m["estimation.objective_evals_per_estimate"] = evals / n_est if n_est else 0.0
            if PSEUDO_TRUE not in absent:
                calls = times.get(PSEUDO_TRUE, zero)["calls"]
                evals = self.counts_under[(OBJECTIVE, PSEUDO_TRUE)]
                m[f"{PSEUDO_TRUE}.objective_evals_per_call"] = evals / calls if calls else 0.0
        m.update(self._estimate_stats())
        m.update(self._harness_stats(times, run_end))
        return m

    def _estimate_stats(self) -> dict[str, float]:
        if set(self.absent) & self.estimator_layers:
            return {}
        out: dict[str, float] = {}
        iters = [n for n, _ in self.estimates]
        if all(isinstance(n, int) for n in iters):
            out["estimation.iters_mean"] = statistics.fmean(iters) if iters else 0.0
            out["estimation.iters_p90"] = (
                statistics.quantiles(iters, n=10, method="inclusive")[-1]
                if len(iters) > 1
                else float(sum(iters))
            )
        conv = [c for _, c in self.estimates]
        if all(isinstance(c, bool) for c in conv):
            n = len(conv)
            out["estimation.converged_share"] = sum(conv) / n if n else 0.0
            cap = _max_iterations(self.package)
            if cap is not None and "estimation.iters_mean" in out:
                hit = sum(1 for it, c in self.estimates if not c and it >= cap)
                out["estimation.maxiter_share"] = hit / n if n else 0.0
        return out

    def _harness_stats(self, times, run_end: float) -> dict[str, float]:
        out: dict[str, float] = {}
        if not set(HARNESS_LAYERS) <= set(self.absent):
            out["harness.self_s"] = sum(
                times.get(h, {}).get("self_s", 0.0) for h in HARNESS_LAYERS
            )
        if POINT_MARK not in self.absent:
            points = self.point_times(run_end)
            out["harness.point_s_max"] = max(points, default=0.0)
            out["harness.point_s_sum"] = sum(points)
            out["harness.pool_bound_s"] = max(
                out["harness.point_s_max"], out["harness.point_s_sum"] / POOL_WORKERS
            )
        return out


def _max_iterations(package: str):
    cfg = getattr(sys.modules.get(f"{package}.estimation"), "EstimatorConfig", None)
    try:
        return int(cfg().max_iterations)
    except (TypeError, AttributeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# self-test on a throw-away package

_FAKE_A = '''
import time

class Out:
    nbytes = 1000

class Model:
    def score(self, x):
        return x

def leaf(x):
    time.sleep(0.002)
    return Out()

def mid(x):
    Model().score(x)
    leaf(x)
    return leaf(x)
'''

_FAKE_B = '''
from fakepkg_selftest.a import mid

def run(fail=False):
    mid(1)
    mid(2)
    if fail:
        raise RuntimeError("boom")
    return 0
'''


def self_test() -> list[str]:
    """Check the tracer's promises on a fake package; returns the failures.

    Absent targets are listed and raise nothing, self time never exceeds
    total time, self times add up to the root's duration, calls nested in
    the same layer are not double counted, counters attribute to their
    open spans, and every wrapped attribute is restored, also after the
    traced call raised.
    """
    pkg = "fakepkg_selftest"
    mods = {}
    for name, src in (("", ""), (".a", _FAKE_A), (".b", _FAKE_B)):
        mod = types.ModuleType(pkg + name)
        sys.modules[pkg + name] = mod
        exec(src, mod.__dict__)  # noqa: S102 - fixed source above
        mods[name] = mod
    a, b = mods[".a"], mods[".b"]
    before = {
        "a.leaf": a.leaf,
        "a.mid": a.mid,
        "b.mid": b.mid,
        "b.run": b.run,
        "a.Model.score": a.Model.__dict__["score"],
    }
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    try:
        tracer = Tracer(
            pkg,
            span_targets=("b.run", "a.mid", "a.leaf", "a.gone", "c.nothing"),
            count_targets=("a.Model.score", "a.Missing.score"),
            estimator_layers=(),
        )
        t0 = time.perf_counter()
        try:
            with tracer:
                expect(b.mid is not before["b.mid"], "imported name b.mid not wrapped")
                b.run(fail=True)
        except RuntimeError:
            pass
        t1 = time.perf_counter()
        after = {
            "a.leaf": a.leaf,
            "a.mid": a.mid,
            "b.mid": b.mid,
            "b.run": b.run,
            "a.Model.score": a.Model.__dict__["score"],
        }
        for key, value in before.items():
            expect(after[key] is value, f"{key} not restored")
        expect(not tracer.leftovers(), f"wrappers left behind: {tracer.leftovers()}")
        expect(
            sorted(tracer.absent) == ["a.Missing.score", "a.gone", "c.nothing"],
            f"absent targets reported as {tracer.absent}",
        )
        times = tracer.layer_times()
        expect(times.get("a.leaf", {}).get("calls") == 4, "leaf calls != 4")
        expect(times.get("a.mid", {}).get("calls") == 2, "mid calls != 2")
        expect(times.get("b.run", {}).get("calls") == 1, "run span lost on exception")
        for name, rec in times.items():
            expect(rec["self_s"] <= rec["total_s"] + 1e-9, f"{name}: self_s > total_s")
        root = times.get("b.run", {}).get("total_s", 0.0)
        covered = sum(rec["self_s"] for rec in times.values())
        expect(abs(covered - root) < 1e-6, "self times do not add up to the root span")
        expect(root <= t1 - t0, "root span longer than the traced call")
        expect(tracer.counts["a.Model.score"] == 2, "counter missed calls")
        expect(
            tracer.counts_under[("a.Model.score", "b.run")] == 2
            and tracer.counts_under[("a.Model.score", "a.mid")] == 2
            and tracer.counts_under[("a.Model.score", "a.leaf")] == 0,
            "counter attributed to the wrong spans",
        )
        # a layer calling itself counts once in total_s
        nested = Tracer(pkg, span_targets=("a.mid",), count_targets=())
        with nested:
            t0 = time.perf_counter()
            a.mid(0)
            inner = nested._span("a.mid", lambda: a.mid(0))
            inner()
            elapsed = time.perf_counter() - t0
        rec = nested.layer_times().get("a.mid", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        expect(rec["calls"] == 3, "nested calls not all counted")
        expect(rec["self_s"] <= rec["total_s"] + 1e-9, "nested self_s > total_s")
        expect(rec["total_s"] <= elapsed, "nested calls counted twice in total_s")
        expect(a.mid is before["a.mid"], "a.mid not restored after nested run")
    finally:
        for name in ("", ".a", ".b"):
            sys.modules.pop(pkg + name, None)
    return failures


if __name__ == "__main__":
    problems = self_test()
    for p in problems:
        print(f"FAIL {p}")
    print("tracer self-test: " + ("ok" if not problems else f"{len(problems)} failed"))
    raise SystemExit(1 if problems else 0)
