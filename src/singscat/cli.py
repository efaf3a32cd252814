"""Command-line front end.

Subcommands
-----------
solve        extract the transfer matrix, amplitudes and S-matrix map for
             one JSON config; write a run report (JSON or flat CSV).
sweep        tabulate the reduced S-matrix along an axis (omega phase at
             fixed modulus, or k, or theta) as CSV.
reconstruct  compare Cauchy reconstruction from boundary samples against
             direct evaluation, as CSV.
verify       run the full invariant suite of :mod:`singscat.checks`; exit 0
             only if every check passes at the config tolerance.

Exit status: 0 success, else the ``exit_code`` of the error's class (1
invariant/numerical failure, 2 bad input), or 2 for a usage error or a
config file that cannot be read or parsed.

Reports are deterministic: identical configs produce bit-identical
output except for the explicitly excluded ``timing`` block.  Numbers are
serialized with 17 significant digits; complex values as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time
from dataclasses import asdict

from . import connect, disk
from .checks import solve_checks, verify_checks
from .errors import BadGrid, OutsideDisk, SingscatError
from .model import ProblemConfig, ValidatedConfig, validate


# ----------------------------------------------------------- serialization

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _jsonify(obj) -> str:
    """Deterministic JSON rendering with fixed float formatting."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return _fmt(obj)
    if isinstance(obj, complex):
        return _jsonify(_pair(obj))
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{_jsonify(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_jsonify(v) for v in obj) + "]"
    return json.dumps(obj)


def _pair(z: complex):
    if math.isinf(abs(z)):
        return "infinity"
    return [z.real, z.imag]


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(obj, complex):
        _flatten(prefix, _pair(obj), rows)
    elif isinstance(obj, float):
        rows.append((prefix, _fmt(obj)))
    elif obj is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(obj)))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_omega(s: str) -> complex:
    s = s.strip()
    if s.lower() in ("inf", "infinity"):
        return connect.OMEGA_INFINITY
    re, im = (float(part) for part in s.split(","))
    if math.isnan(re) or math.isnan(im):
        raise ValueError(f"Omega has a nan part: {s!r}")
    return complex(re, im)


def _require_at_least(what: str, value: int, least: int) -> None:
    if value < least:
        raise BadGrid(f"{what} must be >= {least}, got {value}")


# ------------------------------------------------------------------- solve

def _solve_report(config: ValidatedConfig) -> tuple[dict, tuple]:
    t0 = time.perf_counter()
    m = connect.transfer_matrix(config)
    coeffs = connect.scattering_coefficients(m, tol=config.tol)
    smap = connect.blaschke_params(m, tol=config.tol)
    checks = solve_checks(config, m, coeffs, smap)
    elapsed = time.perf_counter() - t0

    derived = {"theta": config.theta, "n_exponent": config.n_exponent}
    report = {
        "config": config.to_dict(),
        "derived": derived,
        "transfer_matrix": {"a": m.a, "b": m.b, "residuals": asdict(m.residuals)},
        "coefficients": {
            **asdict(coeffs),
            "abs_R": abs(coeffs.R),
            "abs_T_squared": abs(coeffs.T) ** 2,
        },
        "s_matrix_map": asdict(smap),
        "checks": checks,
        "timing": {"seconds": elapsed},
    }
    return report, (m, coeffs, smap)


def cmd_solve(args) -> int:
    config = validate(ProblemConfig.from_json(args.config))
    report, _ = _solve_report(config)
    if args.format == "json":
        _write_text(args.output, _jsonify(report) + "\n")
    else:
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        text = "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)
        _write_text(args.output, text)
    failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    if failing:
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------------- sweep

def _grid(start: float, stop: float, count: int) -> list[float]:
    """``numpy.linspace(start, stop, count)`` bit for bit, by numpy's own
    arithmetic: j * step, or (j / div) * span where the step underflows."""
    span, div = stop - start, max(count - 1, 1)
    step = span / div
    grid = [start + (j * step if step else j / div * span) for j in range(count)]
    return grid[:-1] + [stop] if count > 1 else grid


def _sweep_rows(config: ValidatedConfig, args) -> list[tuple]:
    start, stop, count = args.grid
    _require_at_least("grid COUNT", count, 1)
    if args.omega and (args.axis == "omega" or len(args.omega) > 1):
        raise BadGrid("a sweep takes one --omega, and only along k or theta")
    rows = []
    if args.axis == "omega":
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise BadGrid(f"omega grid START and STOP must be finite, got {start}, {stop}")
        if not (math.isfinite(args.modulus) and args.modulus >= 0.0):
            raise BadGrid(f"--modulus must be a finite number >= 0, got {args.modulus}")
        m = connect.transfer_matrix(config)
        for j in range(count):
            phase = start + (stop - start) * j / count
            om = args.modulus * cmath.exp(1j * phase)
            s = connect.s_matrix(m, om)
            rows.append((phase, om, s, config.tol))
    else:
        omega0 = args.omega[0] if args.omega else 0j
        if args.axis == "theta" and not config.is_conformal:
            raise BadGrid("theta sweep requires a p=2 configuration")
        # lambda = theta^2 + 1/4 would solve |theta|, or the subcritical theta = 0
        if args.axis == "theta" and not (start > 0.0 and stop > 0.0):
            raise BadGrid(f"theta grid START and STOP must be > 0, got {start}, {stop}")
        for v in map(float, _grid(start, stop, count)):
            if args.axis == "k":
                sub = config.replaced(k=v)
            else:
                # v * v rounds to inf where v ** 2 raises; validate rejects it
                sub = config.replaced(lam=v * v + 0.25)
            m = connect.transfer_matrix(sub)
            s = connect.s_matrix(m, omega0)
            rows.append((v, omega0, s, sub.tol))
    return rows


def cmd_sweep(args) -> int:
    config = validate(ProblemConfig.from_json(args.config))
    rows = _sweep_rows(config, args)
    lines = ["axis_value,re_s,im_s,abs_s,sign_ok"]
    for v, om, s, tol in rows:
        lhs = abs(s) ** 2 - 1.0
        # |Omega|^2 - 1 without the square, which overflows past |Omega| ~ 1.3e154
        rhs = (abs(om) - 1.0) * (abs(om) + 1.0)
        if abs(lhs) <= tol or abs(rhs) <= tol:
            ok = abs(lhs) <= tol and abs(rhs) <= tol
        else:
            ok = math.copysign(1.0, lhs) == math.copysign(1.0, rhs)
        lines.append(f"{_fmt(v)},{_fmt(s.real)},{_fmt(s.imag)},{_fmt(abs(s))},{int(ok)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


# ------------------------------------------------------------- reconstruct

def cmd_reconstruct(args) -> int:
    _require_at_least("nodes", args.nodes, 8)
    config = validate(ProblemConfig.from_json(args.config))
    m = connect.transfer_matrix(config)
    samples = disk.UnitaryFamilySample.uniform_grid(
        args.nodes, lambda om: connect.s_matrix(m, om)
    )
    omegas = [0j] + [om for om in (args.omega or []) if om != 0]
    lines = ["re_omega,im_omega,re_rec,im_rec,re_direct,im_direct,abs_diff,status"]
    for om in omegas:
        direct = connect.s_matrix(m, om)
        try:
            rec = disk.cauchy_reconstruct(samples, om)
            diff = abs(rec - direct)
            lines.append(
                f"{_fmt(om.real)},{_fmt(om.imag)},{_fmt(rec.real)},{_fmt(rec.imag)},"
                f"{_fmt(direct.real)},{_fmt(direct.imag)},{_fmt(diff)},ok"
            )
        except OutsideDisk:
            lines.append(
                f"{_fmt(om.real)},{_fmt(om.imag)},,,"
                f"{_fmt(direct.real)},{_fmt(direct.imag)},,invalid"
            )
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


# ------------------------------------------------------------------ verify

def cmd_verify(args) -> int:
    _require_at_least("nodes", args.nodes, 8)
    config = validate(ProblemConfig.from_json(args.config))
    report, (m, coeffs, smap) = _solve_report(config)
    checks = list(report["checks"])
    checks.extend(verify_checks(config, m, coeffs, smap, args.nodes))
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        print(
            f"{c['name']:<{width}}  {c['status']:>7}  "
            f"measured={c['measured']:.3e}  tol={c['tolerance']:.3e}"
        )
    failing = [c["name"] for c in checks if c["status"] == "fail"]
    if failing:
        print(f"FAILED: {', '.join(failing)}")
        return 1
    print("all invariants pass")
    return 0


# -------------------------------------------------------------------- main

def _grid_spec(s: str) -> tuple[float, float, int]:
    parts = s.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be START:STOP:COUNT")
    return float(parts[0]), float(parts[1]), int(parts[2])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about ten times as much."""
    parser = argparse.ArgumentParser(
        prog="singscat",
        description="S-matrix of singular power-law potentials as a map on the unit disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON problem configuration")
        p.add_argument("--output", default="-", help="output path (default stdout)")

    p_solve = sub.add_parser("solve", help="run one configuration, write a report")
    add_common(p_solve)
    p_solve.add_argument("--format", choices=("json", "csv"), default="json")

    p_sweep = sub.add_parser("sweep", help="tabulate the S-matrix along an axis")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=("omega", "k", "theta"), required=True)
    p_sweep.add_argument(
        "--grid",
        type=_grid_spec,
        default=(0.0, 2.0 * math.pi, 64),
        help="START:STOP:COUNT (omega: phases, endpoint excluded)",
    )
    p_sweep.add_argument("--modulus", type=float, default=1.0, help="|Omega| for omega sweeps")
    p_sweep.add_argument(
        "--omega",
        action="append",
        type=_parse_omega,
        help="'re,im' evaluation point for k/theta sweeps",
    )

    p_rec = sub.add_parser("reconstruct", help="Cauchy reconstruction vs direct values")
    add_common(p_rec)
    p_rec.add_argument("--nodes", type=int, default=128)
    p_rec.add_argument("--omega", action="append", type=_parse_omega, help="'re,im' (repeatable)")

    p_ver = sub.add_parser("verify", help="run the full invariant suite")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--nodes", type=int, default=128)

    return parser


_COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep,
             "reconstruct": cmd_reconstruct, "verify": cmd_verify}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (SingscatError, OSError, ValueError) as exc:
        # OSError, ValueError (JSONDecodeError too): an unreadable config file
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    raise SystemExit(main())
