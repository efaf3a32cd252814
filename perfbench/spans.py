"""Span tracing of singscat from outside the package.

:class:`Tracer` replaces public functions of the package's modules with
wrappers that record a span (name, parent span, start, end, details) per
call, and restores the originals on :meth:`Tracer.uninstall`.  Nothing
inside the package is changed.  Functions imported by name into another
module are patched at that import too (``singscat.connect.propagate``,
``singscat.integrate.invariant_callable``, ``singscat.cli.validate``),
because that is where the caller looks them up.

``model.j_evals`` is a count, not a span: ``invariant_callable`` returns
J(r) as a closure that the stepper calls about nine times per step, so
the wrapper hands back a closure that only bumps a counter.

``disk.fit_mobius.peak_alloc_mb`` is not measured inside the timed
spans either: tracemalloc slows every allocation.  The tracer keeps the
input of the first fit of each sample count, and
:meth:`Tracer.fit_peak_alloc` fits those again untraced, under
tracemalloc, after the pass.

:func:`layer_metrics` turns the recorded spans into per-layer metrics.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import bisect
import importlib
import math
import statistics
import time
import tracemalloc

# (span name, owner, attribute, places the function is looked up from)
# owner is a module path, or "module:Class" for a classmethod.
TARGETS = (
    ("cli.main", "singscat.cli", "main", ()),
    ("model.validate", "singscat.model", "validate", ("singscat.cli",)),
    ("model.ProblemConfig.from_json", "singscat.model:ProblemConfig", "from_json", ()),
    ("model.invariant_callable", "singscat.model", "invariant_callable",
     ("singscat.integrate",)),
    ("bases.choose_r_min", "singscat.bases", "choose_r_min", ()),
    ("bases.choose_r_max_start", "singscat.bases", "choose_r_max_start", ()),
    ("bases.eval_asymptotic", "singscat.bases", "eval_asymptotic", ()),
    ("bases.eval_singularity", "singscat.bases", "eval_singularity", ()),
    ("integrate.propagate", "singscat.integrate", "propagate", ("singscat.connect",)),
    ("connect.transfer_matrix", "singscat.connect", "transfer_matrix", ()),
    ("connect.scattering_coefficients", "singscat.connect", "scattering_coefficients", ()),
    ("connect.blaschke_params", "singscat.connect", "blaschke_params", ()),
    ("connect.s_matrix", "singscat.connect", "s_matrix", ()),
    ("connect.s_matrix_inverse", "singscat.connect", "s_matrix_inverse", ()),
    ("disk.uniform_grid", "singscat.disk:UnitaryFamilySample", "uniform_grid", ()),
    ("disk.cauchy_reconstruct", "singscat.disk", "cauchy_reconstruct", ()),
    ("disk.reconstruction_error_estimate", "singscat.disk",
     "reconstruction_error_estimate", ()),
    ("disk.fit_mobius", "singscat.disk", "fit_mobius", ()),
    ("oracle.isp_exact", "singscat.oracle", "isp_exact", ()),
)

# Wrapped boundaries each workload's ops and gates must reach.
SOLVE_REACH = frozenset({
    "cli.main", "model.validate", "model.ProblemConfig.from_json",
    "model.invariant_callable", "bases.choose_r_min", "bases.choose_r_max_start",
    "bases.eval_asymptotic", "bases.eval_singularity", "integrate.propagate",
    "connect.transfer_matrix", "connect.scattering_coefficients",
    "connect.blaschke_params", "connect.s_matrix", "connect.s_matrix_inverse",
})
EXPECTED_REACH = {
    "core_k_sweep": SOLVE_REACH,
    "conformal_k_sweep": SOLVE_REACH | {"oracle.isp_exact"},
    "disk_reconstruct": frozenset({
        "disk.uniform_grid", "disk.cauchy_reconstruct",
        "disk.reconstruction_error_estimate", "disk.fit_mobius",
        "connect.s_matrix", "oracle.isp_exact",
    }),
}


def _owner(path: str):
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans of wrapped package functions while installed."""

    def __init__(self):
        self.spans = []        # [name, parent, t0, t1, details]
        self.hits = dict.fromkeys((name for name, *_ in TARGETS), 0)
        self._j_evals = [0]    # J(r) evaluations, bumped by the counted closures
        self._fit_inputs = {}  # sample count -> (original fit_mobius, args, kwargs)
        self._stack = []
        self._saved = []       # (object, attribute, original)
        self._r_min = None     # last inner radius chosen; marks the inner leg

    @property
    def j_evals(self) -> int:
        return self._j_evals[0]

    def fit_peak_alloc(self) -> int:
        """Largest tracemalloc peak, in bytes, of one fit over the kept
        inputs; run untraced, outside every timed region."""
        rank_deficient = _owner("singscat.errors").RankDeficient
        peak = 0
        for fn, args, kwargs in self._fit_inputs.values():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
            except rank_deficient:  # the degenerate map's expected outcome
                pass
            finally:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return peak

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, importers in TARGETS:
            obj = _owner(owner)
            raw = obj.__dict__[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapper = self._wrap(name, fn)
            new = classmethod(wrapper) if is_cm else wrapper
            for where in (obj, *map(_owner, importers)):
                original = where.__dict__[attr]
                if original is not raw:
                    raise RuntimeError(f"{where.__name__}.{attr} is not {owner}.{attr}")
                self._saved.append((where, attr, original))
                setattr(where, attr, new)

    def uninstall(self) -> None:
        for where, attr, original in reversed(self._saved):
            setattr(where, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        if name == "model.invariant_callable":
            return self._wrap_invariant(fn)
        details = getattr(self, "_details_" + name.split(".")[-1], None)
        spans, stack, hits, clock = self.spans, self._stack, self.hits, time.perf_counter
        fit_inputs = self._fit_inputs if name == "disk.fit_mobius" else None

        def wrapper(*args, **kwargs):
            hits[name] += 1
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            if fit_inputs is not None:
                fit_inputs.setdefault(len(args[0]), (fn, args, kwargs))
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if details is not None:
                span[4] = details(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_invariant(self, fn):
        hits, counter = self.hits, self._j_evals

        def wrapper(config):
            hits["model.invariant_callable"] += 1
            j = fn(config)

            def counted(r):
                counter[0] += 1
                return j(r)

            return counted

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------- span details

    def _details_choose_r_min(self, args, kwargs, r_min):
        self._r_min = r_min
        return {"r_min": r_min}

    def _details_propagate(self, args, kwargs, traj):
        """Classify a leg by its arguments: inner (starts at the radius
        choose_r_min returned), projection (spans pi/(2k)) or doubling.

        ``step_stats`` holds only the last attempt of a leg that
        ``propagate`` retried after Wronskian drift, so the step counts
        leave out discarded attempts; ``model.j_evals`` and the self times
        include them."""
        config, init, r_target = args[:3]
        span = r_target - init.r
        if init.r == self._r_min:
            kind = "inner_leg"
        elif abs(span - math.pi / (2.0 * config.k)) <= 1e-9 * r_target:
            kind = "projection_leg"
        else:
            kind = "doubling_leg"
        requested = kwargs.get("local_tol")
        requested = max(config.tol / 100.0 if requested is None else requested, 4e-15)
        stats = traj.step_stats
        return {"kind": kind, "steps": stats.n_steps, "rejected": stats.n_rejected,
                "retried": traj.local_tol < requested}


# ---------------------------------------------------------------- metrics

LEGS = ("inner_leg", "doubling_leg", "projection_leg")


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - c for (_, _, t0, t1, _), c in zip(spans, child)]


def op_counts(spans) -> dict:
    """Exact per-op work counts from the spans of one op."""
    out = {f"{leg}.{k}": 0 for leg in LEGS for k in ("steps", "rejected")}
    for name, _, _, _, info in spans:
        if name == "integrate.propagate" and info is not None:
            out[info["kind"] + ".steps"] += info["steps"]
            out[info["kind"] + ".rejected"] += info["rejected"]
    return out


def layer_metrics(spans, op_windows, j_evals, overhead_frac, fit_peak_alloc) -> dict:
    """Per-layer metrics of a traced pass, per op where they are sums.

    ``spans`` covers the ops and their gates; ``op_windows`` holds the
    (start, end) of each timed op; ``j_evals`` is the J(r) count over the
    pass; ``fit_peak_alloc`` is :meth:`Tracer.fit_peak_alloc` in bytes.
    """
    n_ops = len(op_windows)
    selfs = self_times(spans)
    total = {}
    calls = {}
    dur = {}
    legs = {leg: {"steps": 0, "rejected": 0, "self": 0.0} for leg in LEGS}
    retries = 0
    r_mins = []
    levels = {}
    restarts = {}
    for (name, parent, t0, t1, info), st in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + (t1 - t0)
        if info is None:  # the call raised; it has no details to count
            continue
        if name == "integrate.propagate":
            leg = legs[info["kind"]]
            leg["steps"] += info["steps"]
            leg["rejected"] += info["rejected"]
            leg["self"] += st
            retries += info["retried"]
            if info["kind"] != "projection_leg" and parent >= 0:
                levels[parent] = levels.get(parent, 0) + 1
        elif name == "bases.choose_r_min":
            r_mins.append(info["r_min"])
            if parent >= 0:
                restarts[parent] = restarts.get(parent, -1) + 1

    def per_op(x):
        return x / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for leg in LEGS:
        d = legs[leg]
        m[f"integrate.{leg}.steps"] = per_op(d["steps"])
        m[f"integrate.{leg}.rejected"] = per_op(d["rejected"])
        m[f"integrate.{leg}.self_s"] = per_op(d["self"])
        m[f"integrate.{leg}.us_per_step"] = 1e6 * ratio(d["self"], d["steps"])
    accepted = sum(d["steps"] for d in legs.values())
    rejected = sum(d["rejected"] for d in legs.values())
    m["integrate.accept_ratio"] = ratio(accepted, accepted + rejected)
    m["integrate.drift_retries"] = per_op(retries)
    m["model.j_evals"] = per_op(j_evals)
    m["bases.r_min.p50"] = statistics.median(r_mins) if r_mins else 0.0
    for name in ("bases.choose_r_min", "bases.eval_asymptotic", "bases.eval_singularity",
                 "connect.transfer_matrix", "disk.uniform_grid", "disk.cauchy_reconstruct",
                 "disk.reconstruction_error_estimate", "disk.fit_mobius", "cli.main",
                 "model.validate", "oracle.isp_exact"):
        m[f"{name}.self_s"] = per_op(total.get(name, 0.0))
    for name in ("bases.eval_asymptotic", "connect.s_matrix", "disk.cauchy_reconstruct"):
        m[f"{name}.calls"] = per_op(calls.get(name, 0))
    m["connect.levels.mean"] = ratio(sum(levels.values()), len(levels))
    m["connect.noise_restarts"] = per_op(sum(restarts.values()))
    m["connect.s_matrix.us_per_call"] = 1e6 * ratio(
        dur.get("connect.s_matrix", 0.0), calls.get("connect.s_matrix", 0))
    m["disk.fit_mobius.peak_alloc_mb"] = fit_peak_alloc / 2 ** 20

    starts = [w0 for w0, _ in op_windows]
    covered = 0.0
    for _, parent, t0, t1, _ in spans:
        i = bisect.bisect_right(starts, t0) - 1
        if parent < 0 and i >= 0 and t1 <= op_windows[i][1]:
            covered += t1 - t0
    m["trace.coverage"] = ratio(covered, sum(w1 - w0 for w0, w1 in op_windows))
    m["trace.overhead_frac"] = overhead_frac
    return m
