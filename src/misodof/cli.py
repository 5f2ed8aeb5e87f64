"""Batch front-end: region export, rate sweeps, slope fits, oracle runs.

Exit codes: 0 success, 1 oracle failure, 2 bad usage/arguments, 3 non-finite
Monte Carlo result.  Numeric output is deterministic for a fixed seed
regardless of the worker count.  In ``rates`` the schemes at one SNR share
their channel draws: one ``rate_scheme`` call evaluates them together.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import json
import math
import os
import shlex
import sys
from datetime import datetime, timezone

import numpy as np
from numpy.random import Generator, Philox

from . import __version__, mc
from .channel import CsitConfig
from .mc import McConfig, NonFiniteSampleError
from .oracles import (
    QuadratureConfig,
    QuadratureError,
    conditional_log_bounds_check,
    exp_log_mean,
    rotation_mean_log_closed_form,
    rotation_mean_log_quadrature,
)
from .rates import rate_scheme
from .regions import (
    Scheme,
    dof_imperfect_delayed,
    DelayedCsitQuality,
    dof_scheme,
    region_common_message,
    region_imperfect_delayed,
    region_main,
)

LOG2_10 = math.log2(10.0)

CSV_HEADER = [
    "snr_db", "scheme", "alpha", "r1", "r2", "rsum", "stderr_sum",
    "r_c", "r_p1", "r_p2", "r_mimo1", "r_mimo2", "r_eta1", "r_eta2",
]


class _Exit(Exception):
    """Ends a command with exit ``code`` and a one-line message on stderr."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fmt(x):
    return format(float(x), ".12g")


def _mc_config(args):
    """McConfig from --samples, --workers and --seed (else MISO_DOF_SEED, else 0)."""
    env = os.environ.get("MISO_DOF_SEED", "0")
    try:
        seed = args.seed if args.seed is not None else int(env)
    except ValueError:
        raise _Exit(2, f"MISO_DOF_SEED must be an integer, got {env!r}") from None
    try:
        return McConfig(args.samples, seed, getattr(args, "workers", 1))
    except ValueError as exc:
        raise _Exit(2, str(exc)) from None


def _cell_configs(grid, cfg_builder):
    """(snr_db, CsitConfig) per grid point."""
    try:
        return [(db, cfg_builder(10.0 ** (float(db) / 10.0))) for db in grid]
    except (OverflowError, ValueError) as exc:
        raise _Exit(2, f"SNR grid {grid[0]:g}..{grid[-1]:g} dB out of range ({exc})") from None


def _resolve_exponent(value, name, warn=True):
    if not value >= 0.0:
        print(f"error: {name} must be a nonnegative number, got {value}", file=sys.stderr)
        return None
    if value > 1.0:
        if warn:
            print(f"warning: {name} {_fmt(value)} truncated to 1", file=sys.stderr)
        return 1.0
    return float(value)


def _parse_snr_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        return None
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        return None
    if not all(map(math.isfinite, (start, step, stop))) or step <= 0 or stop < start:
        return None
    grid = []
    value = start
    while value <= stop + 1e-9:
        grid.append(round(value, 12))
        value += step
    return grid


def _region_payload(region, extra=None):
    payload = dict(extra or {})
    payload["vertices"] = [[float(v) for v in vert] for vert in region.vertices]
    payload["inequalities"] = [
        {"coeffs": [float(c) for c in coeffs], "bound": float(bound)}
        for coeffs, bound in region.inequalities
    ]
    return payload


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _config_hash(params):
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(out_path, argv, seed, params):
    manifest = {
        "command_line": shlex.join(argv),
        "seed": int(seed),
        "config_hash": _config_hash(params),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    _write_json(out_path + ".manifest.json", manifest)


def cmd_region(args):
    alpha = _resolve_exponent(args.alpha, "alpha")
    if alpha is None:
        return 2
    if args.beta is not None and args.common_message:
        print("error: --beta and --common-message are mutually exclusive", file=sys.stderr)
        return 2
    if args.common_message:
        region = region_common_message(alpha)
        payload = _region_payload(region, {"alpha": alpha, "common_message": True})
    elif args.beta is not None:
        beta = _resolve_exponent(args.beta, "beta")
        if beta is None:
            return 2
        sym, corners = dof_imperfect_delayed(DelayedCsitQuality(alpha=alpha, beta=beta))
        region = region_imperfect_delayed(alpha, beta)
        payload = _region_payload(region, {
            "alpha": alpha, "beta": beta, "sym": sym,
            "corners": [[float(v) for v in c] for c in corners],
        })
    else:
        region = region_main(alpha)
        payload = _region_payload(region, {"alpha": alpha})
    _write_json(args.out, payload)
    return 0


def _scheme_list(name):
    return list(Scheme) if name == "all" else [Scheme(name)]


def _rate_rows(schemes, cells, mc_cfg):
    # One call per SNR.  A lone scheme goes bare: bench/tracing.py keys each
    # call's integrand time by this argument, per scheme name.
    group = tuple(schemes) if len(schemes) > 1 else schemes[0]
    rows = []
    for snr_db, cfg in cells:
        cell = f"snr_db {_fmt(snr_db)}, scheme "
        try:
            results = rate_scheme(group, cfg, mc_cfg)
        except NonFiniteSampleError as exc:
            named = exc.scheme.value if exc.scheme else "/".join(s.value for s in schemes)
            raise _Exit(3, f"{exc} in cell ({cell}{named})") from exc
        for scheme, res in zip(schemes, results if len(schemes) > 1 else [results]):
            rsum = res.r1 + res.r2
            stderr_sum = math.sqrt(res.se_r1 ** 2 + res.se_r2 ** 2)
            if not all(math.isfinite(v) for v in (res.r1, res.r2, rsum)):
                raise _Exit(3, f"non-finite rate in cell ({cell}{scheme.value})")
            rows.append([
                _fmt(snr_db), scheme.value, _fmt(cfg.alpha),
                _fmt(res.r1), _fmt(res.r2), _fmt(rsum), _fmt(stderr_sum),
                _fmt(res.r_c), _fmt(res.r_p1), _fmt(res.r_p2),
                _fmt(res.r_mimo1), _fmt(res.r_mimo2),
                _fmt(res.r_eta1), _fmt(res.r_eta2),
            ])
    return rows


def cmd_rates(args, argv):
    if args.sigma_sq is not None:
        if not 0.0 < args.sigma_sq <= 1.0:
            print(f"error: sigma-sq must lie in (0, 1], got {args.sigma_sq}",
                  file=sys.stderr)
            return 2
        quality = {"sigma_sq": args.sigma_sq}

        def cfg_builder(snr_p):
            return CsitConfig.from_sigma_sq(snr_p, args.sigma_sq)
    else:
        alpha = _resolve_exponent(args.alpha, "alpha")
        if alpha is None:
            return 2
        quality = {"alpha": alpha}

        def cfg_builder(snr_p):
            return CsitConfig.from_alpha(snr_p, alpha)

    grid = _parse_snr_grid(args.snr_db)
    if grid is None:
        print(f"error: malformed --snr-db range {args.snr_db!r}; "
              "expected finite start:step:stop with positive step", file=sys.stderr)
        return 2
    if min(grid) <= 0:
        print("error: SNR must be positive in dB (P > 1 linear)", file=sys.stderr)
        return 2
    cells = _cell_configs(grid, cfg_builder)
    mc_cfg = _mc_config(args)
    seed = mc_cfg.seed
    rows = _rate_rows(_scheme_list(args.scheme), cells, mc_cfg)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    _write_manifest(args.out, argv, seed, {
        "command": "rates", "scheme": args.scheme,
        "snr_db": grid, "samples": args.samples, "seed": seed, **quality,
    })
    return 0


def _fit_slope(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / sxx)
    intercept = y_mean - slope * x_mean
    resid = y - intercept - slope * x
    if n > 2:
        se = math.sqrt(float(np.sum(resid ** 2)) / (n - 2) / sxx)
    else:
        se = 0.0
    return slope, 1.96 * se


def cmd_slopes(args, argv):
    alpha = _resolve_exponent(args.alpha, "alpha")
    if alpha is None:
        return 2
    if args.points < 3:
        print("error: slope fits need at least 3 grid points", file=sys.stderr)
        return 2
    parts = args.snr_db_range.split(":")
    try:
        lo, hi = (float(p) for p in parts)
    except ValueError:
        lo, hi = 1.0, 0.0
    if len(parts) != 2 or not 0 < lo < hi < math.inf:
        print(f"error: malformed --snr-db-range {args.snr_db_range!r}; expected lo:hi",
              file=sys.stderr)
        return 2
    grid = [round(v, 12) for v in np.linspace(lo, hi, args.points)]
    cells = _cell_configs(grid, lambda p: CsitConfig.from_alpha(p, alpha))
    mc_cfg = _mc_config(args)
    seed = mc_cfg.seed
    scheme = Scheme(args.scheme)
    rows = _rate_rows([scheme], cells, mc_cfg)
    rsum = [float(r[5]) for r in rows]
    log2_p = [db / 10.0 * LOG2_10 for db in grid]
    slope, ci95 = _fit_slope(log2_p, rsum)
    payload = {
        "scheme": scheme.value,
        "alpha": alpha,
        "slope": slope,
        "slope_ci95": ci95,
        "theory": 2.0 * dof_scheme(scheme, alpha),
        "snr_db": grid,
        "rsum": rsum,
        "samples": args.samples,
        "seed": seed,
    }
    _write_json(args.out, payload)
    return 0


def _run_oracle_suite(strict=False, max_panels=None, samples=1_000_000, seed=0,
                      out=None):
    out = out if out is not None else sys.stdout
    tol = 1e-7 if strict else 1e-6
    failures = []
    try:
        quad_cfg = QuadratureConfig(n_points=max_panels or (1 << 24), tolerance=tol)
    except ValueError as exc:
        print(f"quadrature-config: FAIL ({exc})", file=out)
        return 1

    rng = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))
    pairs = rng.uniform(0.05, 10.0, size=(1000, 2))
    max_err = 0.0
    n_pass = 0
    for a, b in pairs:
        try:
            err = abs(rotation_mean_log_quadrature(a, b, quad_cfg)
                      - rotation_mean_log_closed_form(a, b))
        except QuadratureError:
            failures.append(f"rotation identity did not converge at ({a}, {b})")
            continue
        max_err = max(max_err, err)
        if err < tol:
            n_pass += 1
        else:
            failures.append(f"rotation identity off by {err:.3e} at ({a:.4f}, {b:.4f})")
    print(f"rotation-identity: {n_pass}/{len(pairs)} pass (max err {max_err:.3e})", file=out)

    try:
        gamma_quad = exp_log_mean(quad_cfg)
        cfg = CsitConfig.from_sigma_sq(100.0, 0.25)

        def f(batch):
            mag_sq = batch.g_tilde[:, 0].real ** 2 + batch.g_tilde[:, 0].imag ** 2
            return np.log2(mag_sq / cfg.sigma_sq)

        est = mc.estimate(f, McConfig(n_samples=samples, seed=seed), cfg)
        diff = abs(gamma_quad - est.mean)
        ok = diff <= 5.0 * est.std_error
        print(f"exp-log-constant: quadrature {gamma_quad:.6f} vs mc {est.mean:.6f} "
              f"(|diff| {diff:.2e}, 5*se {5 * est.std_error:.2e}) "
              f"{'pass' if ok else 'FAIL'}", file=out)
        if not ok:
            failures.append("exp-log constant mismatch between quadrature and Monte Carlo")
    except QuadratureError as exc:
        print(f"exp-log-constant: FAIL ({exc})", file=out)
        failures.append(str(exc))

    bounds_cfg = CsitConfig.from_sigma_sq(1000.0, 0.1)
    report = conditional_log_bounds_check(
        (bounds_cfg.snr_p, 0.0), bounds_cfg,
        McConfig(n_samples=min(samples, 100_000), seed=seed),
        quad_config=quad_cfg,
    )
    n_ok = int(np.sum((report.upper_margins >= 0) & (report.lower_margins >= 0)))
    print(f"conditional-bounds: {n_ok}/{report.n_batches} batches pass "
          f"(min upper margin {report.upper_margins.min():.4f}, "
          f"min lower margin {report.lower_margins.min():.4f})", file=out)
    if not report.passed:
        failures.append("conditional log bounds violated")

    for failure in failures[:20]:
        print(f"FAIL: {failure}", file=out)
    return 1 if failures else 0


def cmd_oracles(args):
    mc_cfg = _mc_config(args)
    return _run_oracle_suite(strict=args.strict, max_panels=args.max_panels,
                             samples=mc_cfg.n_samples, seed=mc_cfg.seed)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="misodof",
        description="Two-user MISO broadcast channel: DoF regions and ergodic rates "
                    "under delayed plus imperfect current transmitter CSI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="export a DoF region as JSON")
    p_region.add_argument("--alpha", type=float, required=True)
    p_region.add_argument("--beta", type=float, default=None,
                          help="delayed-feedback quality exponent; emits the "
                               "achievable region under quantized delayed CSIT")
    p_region.add_argument("--common-message", action="store_true")
    p_region.add_argument("--out", required=True)

    p_rates = sub.add_parser("rates", help="ergodic-rate sweep over SNR, CSV output")
    p_rates.add_argument("--scheme", required=True,
                         choices=["tdma", "zf", "mat", "rszf", "proposed", "all"])
    quality = p_rates.add_mutually_exclusive_group(required=True)
    quality.add_argument("--alpha", type=float,
                         help="current-CSIT quality exponent (error variance P**-alpha)")
    quality.add_argument("--sigma-sq", type=float,
                         help="current-CSIT error variance, fixed across the sweep")
    p_rates.add_argument("--snr-db", required=True, metavar="START:STEP:STOP")
    p_rates.add_argument("--samples", type=int, default=100_000)
    p_rates.add_argument("--seed", type=int, default=None)
    p_rates.add_argument("--workers", type=int, default=1)
    p_rates.add_argument("--out", required=True)

    p_slopes = sub.add_parser("slopes", help="high-SNR sum-rate slope fit, JSON output")
    p_slopes.add_argument("--scheme", required=True,
                          choices=["tdma", "zf", "mat", "rszf", "proposed"])
    p_slopes.add_argument("--alpha", type=float, required=True)
    p_slopes.add_argument("--snr-db-range", default="40:80", metavar="LO:HI")
    p_slopes.add_argument("--points", type=int, default=9)
    p_slopes.add_argument("--samples", type=int, default=100_000)
    p_slopes.add_argument("--seed", type=int, default=None)
    p_slopes.add_argument("--workers", type=int, default=1)
    p_slopes.add_argument("--out", required=True)

    p_oracles = sub.add_parser("oracles", help="run the analytic verification suite")
    p_oracles.add_argument("--strict", action="store_true",
                           help="tighten tolerances tenfold")
    p_oracles.add_argument("--max-panels", type=int, default=None,
                           help="quadrature panel budget (testing hook)")
    p_oracles.add_argument("--samples", type=int, default=1_000_000)
    p_oracles.add_argument("--seed", type=int, default=None)

    return parser


def _keep_freed_heap():
    # Each Monte Carlo block frees a few MiB of numpy temporaries; glibc's adaptive
    # thresholds return them to the system and fault them back in every block.
    with contextlib.suppress(OSError):  # not glibc: its defaults stay
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: block arrays use the heap
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: freed heap is kept


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _keep_freed_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "region":
            return cmd_region(args)
        if args.command == "rates":
            return cmd_rates(args, argv)
        if args.command == "slopes":
            return cmd_slopes(args, argv)
        return cmd_oracles(args)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def cli():
    sys.exit(main())


if __name__ == "__main__":
    cli()
