"""The three benchmark workloads: seeded inputs, one timed op, its gate.

Every workload is a fixed cycle of cases.  The seed jitters each case
inside its stratum (``k`` inside a fixed sub-interval, interior Omega
points inside fixed annuli), so the cost of a cycle does not depend on
the seed; the package only ever sees the generated configs and points.
Cases are visited in a golden-ratio order of their strata, so any prefix
of a cycle is spread evenly over the stratified range.

An op is the part that is timed.  Its gate runs afterwards, outside the
timed region, and returns a list of failure reasons (empty when the op
is correct).  Calls into the package go through module attributes
(``connect.s_matrix``, ``oracle.isp_exact``, ...) so that the traced run
can wrap them.
"""

from __future__ import annotations

import json
import math
import os
import random

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fmt(x: float) -> str:
    """17-significant-digit rendering, exact for a float round trip."""
    return f"{x:.17g}"


def fmt_complex(z: complex) -> list[str]:
    return [fmt(z.real), fmt(z.imag)]


def stratum_order(n: int) -> list[int]:
    """Golden-ratio permutation of range(n): every prefix is well spread."""
    return sorted(range(n), key=lambda i: (i * GOLDEN) % 1.0)


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One jittered value per equal-width stratum of [lo, hi]."""
    width = (hi - lo) / n
    return [lo + (i + rng.uniform(0.05, 0.95)) * width for i in range(n)]


class SolveSweep:
    """One in-process ``singscat solve`` (``cli.main``) per op."""

    def __init__(self, name, singscat, seed, workdir, *, base, k_range, n_strata,
                 thetas=None):
        self.name = name
        self.sc = singscat
        self.seed = seed
        self.workdir = workdir
        self.base = base
        self.k_range = k_range
        self.n_strata = n_strata
        self.thetas = thetas
        self.report_path = os.path.join(workdir, f"{name}-report.json")
        self.cases = []

    def setup(self) -> None:
        """Generate, write and validate the configs of one cycle."""
        model = self.sc.model
        rng = random.Random(self.seed)
        ks = stratified(rng, *self.k_range, self.n_strata)
        cases = []
        for i in stratum_order(self.n_strata):
            cfg = dict(self.base, k=ks[i])
            theta = None
            if self.thetas is not None:
                theta = self.thetas[i % len(self.thetas)]
                cfg["lambda"] = theta * theta + 0.25
            path = os.path.join(self.workdir, f"{self.name}-case{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            model.validate(model.ProblemConfig.from_dict(cfg))
            cases.append({"stratum": i, "k": ks[i], "theta": theta, "tol": cfg["tol"],
                          "mu": cfg["mu"], "path": path})
        self.cases = cases

    def op(self, case):
        return self.sc.cli.main(
            ["solve", "--config", case["path"], "--output", self.report_path]
        )

    def outcome(self, case, rc) -> dict:
        """Read the report the op wrote; gate and record from it."""
        out = {"rc": rc}
        if os.path.exists(self.report_path):
            with open(self.report_path, encoding="utf-8") as fh:
                out["report"] = json.load(fh)
            os.remove(self.report_path)
        return out

    def gate(self, case, out) -> list[str]:
        fails = []
        if out["rc"] != 0:
            fails.append(f"exit code {out['rc']}")
        report = out.get("report")
        if report is None:
            return fails + ["no report written"]
        fails += [f"check {c['name']} {c['status']}" for c in report["checks"]
                  if c["status"] not in ("pass", "skipped")]
        if case["theta"] is not None:
            exact = self.sc.oracle.isp_exact(case["theta"], case["k"], case["mu"])
            tm = report["transfer_matrix"]
            for key, want in (("a", exact.a), ("b", exact.b)):
                err = abs(complex(*tm[key]) - want)
                if not err <= case["tol"]:
                    fails.append(f"|{key} - isp_exact| = {err:.3e} > tol {case['tol']:.1e}")
        return fails

    def record(self, case, out) -> dict:
        rec = {"stratum": case["stratum"], "k": fmt(case["k"]), "rc": out["rc"]}
        if case["theta"] is not None:
            rec["theta"] = case["theta"]
        report = out.get("report")
        if report is not None:
            tm = report["transfer_matrix"]
            rec["a"] = [fmt(x) for x in tm["a"]]
            rec["b"] = [fmt(x) for x in tm["b"]]
            rec["r_min_used"] = fmt(tm["residuals"]["r_min_used"])
        return rec


class DiskReconstruct:
    """Boundary sampling, Cauchy reconstruction and Moebius fit on the
    disk, for maps extracted once during set-up (no propagation is timed).
    """

    MAPS = ("isp_theta1", "degenerate_barrier")
    NODES = (128, 256, 512, 1024, 2048)
    N_POINTS = 4

    def __init__(self, name, singscat, seed, config_dir):
        self.name = name
        self.sc = singscat
        self.seed = seed
        self.config_dir = config_dir
        self.maps = {}
        self.cases = []

    def setup(self) -> None:
        """Extract both maps and draw the interior points of one cycle."""
        model, connect = self.sc.model, self.sc.connect
        maps = {}
        for name in self.MAPS:
            cfg = model.validate(
                model.ProblemConfig.from_json(os.path.join(self.config_dir, f"{name}.json"))
            )
            m = connect.transfer_matrix(cfg)
            smap = connect.blaschke_params(m, tol=cfg.tol)
            entry = {"config": cfg, "m": m, "degenerate": smap.degenerate,
                     "Rp": connect.scattering_coefficients(m).Rp}
            if cfg.is_conformal:
                entry["exact"] = (cfg.theta, cfg.k, cfg.mu)
            maps[name] = entry
        rng = random.Random(self.seed)
        cases = []
        for n in self.NODES:
            points = {}
            for name in self.MAPS:
                # one point per annulus of equal area inside |Omega| <= 0.9
                points[name] = [
                    0.9 * math.sqrt((j + rng.uniform(0.05, 0.95)) / self.N_POINTS)
                    * complex(math.cos(t), math.sin(t))
                    for j, t in ((j, rng.uniform(0.0, 2.0 * math.pi))
                                 for j in range(self.N_POINTS))
                ]
            cases.append({"nodes": n, "points": points})
        self.maps = maps
        self.cases = cases

    def op(self, case):
        connect, disk = self.sc.connect, self.sc.disk
        rank_deficient = self.sc.errors.RankDeficient
        result = {}
        for name in self.MAPS:
            m = self.maps[name]["m"]
            samples = disk.UnitaryFamilySample.uniform_grid(
                case["nodes"], lambda om: connect.s_matrix(m, om)
            )
            recs = [
                (disk.cauchy_reconstruct(samples, om),
                 disk.reconstruction_error_estimate(samples, om))
                for om in case["points"][name]
            ]
            try:
                fit = disk.fit_mobius(samples)
            except rank_deficient as exc:
                # drop the traceback: its frames hold the fit's 2N x 2N SVD
                # factor alive until the next garbage collection
                fit = exc.with_traceback(None)
            result[name] = (recs, fit)
        return result

    def outcome(self, case, result) -> dict:
        return {"result": result}

    @staticmethod
    def _apply(a: complex, b: complex, om: complex) -> complex:
        return (a * om + b) / (b.conjugate() * om + a.conjugate())

    def gate(self, case, out) -> list[str]:
        connect, oracle = self.sc.connect, self.sc.oracle
        rank_deficient = self.sc.errors.RankDeficient
        fails = []
        for name in self.MAPS:
            entry = self.maps[name]
            m, tol = entry["m"], entry["config"].tol
            recs, fit = out["result"][name]
            exact = None
            if "exact" in entry:
                ex = oracle.isp_exact(*entry["exact"])
                exact = (ex.a, ex.b)
            for om, (rec, est) in zip(case["points"][name], recs):
                refs = [("direct", connect.s_matrix(m, om))]
                if exact is not None:
                    refs.append(("exact", self._apply(*exact, om)))
                for label, ref in refs:
                    err = abs(rec - ref)
                    if not err <= est + 100.0 * tol:
                        fails.append(f"{name} N={case['nodes']} Omega={om:.3f}: "
                                     f"|rec - {label}| = {err:.3e} > {est + 100.0 * tol:.3e}")
            if entry["degenerate"]:
                if not isinstance(fit, rank_deficient):
                    fails.append(f"{name}: fit did not raise RankDeficient")
                else:
                    err = abs(fit.constant_value - entry["Rp"])
                    if not err <= 10.0 * tol:
                        fails.append(f"{name}: |constant - R'| = {err:.3e} > {10.0 * tol:.1e}")
            elif isinstance(fit, rank_deficient):
                fails.append(f"{name}: unexpected RankDeficient")
            else:
                # the fit fixes the sign gauge Re a > 0; the extraction does not
                err = min(abs(fit.a - s * m.a) + abs(fit.b - s * m.b) for s in (1.0, -1.0))
                bound = 100.0 * tol * max(1.0, abs(m.a))
                if not err <= bound:
                    fails.append(f"{name}: fitted (a, b) off by {err:.3e} > {bound:.3e}")
        return fails

    def record(self, case, out) -> dict:
        rec = {"nodes": case["nodes"]}
        for name in self.MAPS:
            recs, fit = out["result"][name]
            entry = {"rec": [fmt_complex(r) for r, _ in recs],
                     "est": [fmt(e) for _, e in recs]}
            if isinstance(fit, self.sc.errors.RankDeficient):
                entry["constant"] = fmt_complex(fit.constant_value)
            else:
                entry["a"], entry["b"] = fmt_complex(fit.a), fmt_complex(fit.b)
            rec[name] = entry
        return rec


CORE_BASE = {"p": 4.0, "lambda": 1.0, "l_plus_nu": 0.5, "mu": 1.0,
             "extra_potential": None, "r_min": 0.001, "r_max": 60.0, "tol": 1e-8}
CONFORMAL_BASE = {"p": 2.0, "l_plus_nu": 0.0, "mu": 1.0, "extra_potential": None,
                  "r_min": 0.001, "r_max": 60.0, "tol": 1e-10}

NAMES = ("core_k_sweep", "conformal_k_sweep", "disk_reconstruct")


def make(name, singscat, seed, workdir, config_dir):
    """Build the named workload; set-up is left to the caller."""
    if name == "core_k_sweep":
        return SolveSweep(name, singscat, seed, workdir, base=CORE_BASE,
                          k_range=(0.5, 2.5), n_strata=7)
    if name == "conformal_k_sweep":
        return SolveSweep(name, singscat, seed, workdir, base=CONFORMAL_BASE,
                          k_range=(0.25, 4.0), n_strata=9, thetas=(0.5, 1.0, 2.0))
    if name == "disk_reconstruct":
        return DiskReconstruct(name, singscat, seed, config_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
