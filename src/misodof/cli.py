"""Batch front-end: region export, rate sweeps, slope fits, oracle runs.

Exit codes: 0 success, 1 oracle failure, 2 bad usage/arguments or a failed
write to ``--out`` or stdout, 3 non-finite Monte Carlo result.

Each input is checked once, by the type that owns it: ``channel.exponent``
for alpha and beta, the ``CsitConfig`` constructors for P and sigma^2 at
each grid point, and ``McConfig`` for samples, seed and workers; their
messages are prefixed with the option (or ``MISO_DOF_SEED``) that set the
value.  This module checks only the form and size of its SNR grids: at most
``MAX_GRID_POINTS`` points, counted before a grid is built.  Both grids,
``rates --snr-db`` and ``slopes --snr-db-range``, set point i to
start + i * step, correctly rounded to 12 decimals; two ``rates`` points
that round alike are a usage error.  Every usage error ends the command with
exit 2 and one ``error:`` line on stderr (argparse's own errors print its
usage text first); a truncation warning is printed only once every usage
check has passed.

Numeric output is deterministic for a fixed seed regardless of the worker
count, so ``rates``, ``slopes`` and ``oracles`` run their Monte Carlo blocks
in worker processes forked by ``mc``, one per CPU this process may use unless
``--workers`` says otherwise; the ``rates`` and ``slopes`` manifests record
the count.  In ``rates`` and ``slopes`` every scheme and SNR of a run shares
its channel draws: one ``rate_scheme`` call evaluates them together.
``oracles --samples`` counts the exponential samples of the exp-log check;
each channel draw gives eight.  The process entry ``cli()``, not ``main(argv)``,
freezes the import-time heap (``gc.freeze``): the exit collections skip it.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import shlex
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .channel import CsitConfig, exponent
from .mc import block_rng  # by name: tracers count mc.block_rng as mc blocks
from .mc import McConfig, NonFiniteSampleError, usable_cpus
from .oracles import _TOLERANCE as _ROTATION_TOL
from .oracles import (
    conditional_log_bounds_check,
    exp_log_mean,
    exp_log_mean_monte_carlo,
    rotation_mean_log_closed_form,
    rotation_mean_log_quadrature,
)
from .rates import rate_scheme
from .regions import (
    Scheme,
    dof_imperfect_delayed,
    dof_scheme,
    region_common_message,
    region_imperfect_delayed,
    region_main,
)

LOG2_10 = math.log2(10.0)
_ROTATION_FAIL_LINES = 20
MAX_GRID_POINTS = 10_000  # every point is a config of one grid estimate

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


def _config(build, options, *values):
    """``build(*values)``; a ValueError is a usage error behind the option that
    set the field it names (each config type's messages start with one)."""
    try:
        return build(*values)
    except ValueError as exc:
        raise _Exit(2, f"{options[str(exc).split(' ', 1)[0]]}: {exc}") from None


def _mc_config(args):
    """McConfig from --samples, --workers and --seed (else MISO_DOF_SEED, else 0)."""
    env = os.environ.get("MISO_DOF_SEED", "0")
    try:
        seed = args.seed if args.seed is not None else int(env)
    except ValueError:
        raise _Exit(2, f"MISO_DOF_SEED must be an integer, got {env!r}") from None
    options = {"n_samples": "--samples", "n_workers": "--workers",
               "seed": "--seed" if args.seed is not None else "MISO_DOF_SEED"}
    return _config(McConfig, options, args.samples, seed, args.workers)


def _cell_configs(grid, build, quality):
    """(snr_db, build(P, quality)) per grid point, for a CsitConfig constructor
    ``build``; a point it rejects is a usage error that names its snr_db."""
    cells = []
    for db in grid:
        try:
            cells.append((db, build(10.0 ** (float(db) / 10.0), quality)))
        except OverflowError:
            raise _Exit(2, f"snr_db {_fmt(db)} out of range (P overflows)") from None
        except ValueError as exc:
            raise _Exit(2, f"snr_db {_fmt(db)}: {exc}") from None
    return cells


def _exponent(value, name):
    try:
        return exponent(value, name)
    except ValueError as exc:
        raise _Exit(2, str(exc)) from None


def _warn_truncated(name, value):
    # called once every usage check has passed, so a usage error stays one line
    if value is not None and value > 1.0:
        print(f"warning: {name} {_fmt(value)} truncated to 1", file=sys.stderr)


def _grid(start, step, n):
    # point i is start + i * step; Python's round is correctly rounded
    return [round(start + i * step, 12) for i in range(n)]


def _parse_snr_grid(text):
    try:
        start, step, stop = (float(p) for p in text.split(":"))
        ok = all(map(math.isfinite, (start, step, stop))) and step > 0 and stop >= start
    except ValueError:  # not three numbers
        ok = False
    if not ok:
        raise _Exit(2, f"malformed --snr-db range {text!r}; "
                       "expected finite start:step:stop with positive step")
    steps = (stop - start) / step + 1e-9  # slack in steps, not dB: never past stop
    if steps >= MAX_GRID_POINTS:
        raise _Exit(2, f"--snr-db {text!r} has more than {MAX_GRID_POINTS} points")
    grid = _grid(start, step, int(steps) + 1)
    if len(set(grid)) < len(grid):
        raise _Exit(2, f"--snr-db {text!r} has points that round alike at 12 decimals")
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


def _check_out(path):
    # Raises what writing would, before any estimate runs; keeps an existing file.
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _config_hash(params):
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(out_path, argv, mc_cfg, params):
    # The worker count is recorded but left out of the hash: it never
    # changes the numbers.
    manifest = {
        "command_line": shlex.join(argv),
        "seed": int(mc_cfg.seed),
        "workers": mc_cfg.n_workers,
        "config_hash": _config_hash(params),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    _write_json(out_path + ".manifest.json", manifest)


def cmd_region(args):
    alpha = _exponent(args.alpha, "alpha")
    beta = None if args.beta is None else _exponent(args.beta, "beta")
    _warn_truncated("alpha", args.alpha)
    _warn_truncated("beta", args.beta)
    if args.common_message:
        region = region_common_message(alpha)
        payload = _region_payload(region, {"alpha": alpha, "common_message": True})
    elif beta is not None:
        sym, corners = dof_imperfect_delayed(alpha, beta)
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
    # One call per run, over every SNR.  A lone scheme goes bare:
    # bench/tracing.py keys each call's integrand time by this argument,
    # per scheme name.
    group = tuple(schemes) if len(schemes) > 1 else schemes[0]
    try:
        results = rate_scheme(group, [cfg for _, cfg in cells], mc_cfg)
    except NonFiniteSampleError as exc:
        cell = f"snr_db {_fmt(cells[exc.config_index][0])}, scheme {exc.scheme.value}"
        raise _Exit(3, f"{exc} in cell ({cell})") from exc
    rows = []
    for (snr_db, cfg), at_snr in zip(cells, results):
        for scheme, res in zip(schemes, at_snr if len(schemes) > 1 else [at_snr]):
            rsum = res.r1 + res.r2
            stderr_sum = math.sqrt(res.se_r1 ** 2 + res.se_r2 ** 2)
            if not all(math.isfinite(v) for v in (res.r1, res.r2, rsum)):
                raise _Exit(3, f"non-finite rate in cell "
                               f"(snr_db {_fmt(snr_db)}, scheme {scheme.value})")
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
        name, quality, build = "sigma_sq", args.sigma_sq, CsitConfig.from_sigma_sq
    else:
        name, quality, build = "alpha", _exponent(args.alpha, "alpha"), CsitConfig.from_alpha
    grid = _parse_snr_grid(args.snr_db)
    cells = _cell_configs(grid, build, quality)
    mc_cfg = _mc_config(args)
    seed = mc_cfg.seed
    _warn_truncated("alpha", args.alpha)
    rows = _rate_rows(_scheme_list(args.scheme), cells, mc_cfg)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    _write_manifest(args.out, argv, mc_cfg, {
        "command": "rates", "scheme": args.scheme,
        "snr_db": grid, "samples": args.samples, "seed": seed, name: quality,
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
    se = math.sqrt(float(np.sum(resid ** 2)) / (n - 2) / sxx)
    return slope, 1.96 * se


def cmd_slopes(args, argv):
    alpha = _exponent(args.alpha, "alpha")
    parts = args.snr_db_range.split(":")
    try:
        lo, hi = (float(p) for p in parts)
    except ValueError:
        lo, hi = 1.0, 0.0
    if len(parts) != 2 or not 0 < hi - lo < math.inf:  # CsitConfig checks P > 1
        raise _Exit(2, f"malformed --snr-db-range {args.snr_db_range!r}; expected lo:hi")
    if args.points > MAX_GRID_POINTS:
        raise _Exit(2, f"--points {args.points} is more than {MAX_GRID_POINTS}")
    # a count below 1 gives an empty grid, which fails the check below
    grid = _grid(lo, (hi - lo) / max(args.points - 1, 1), args.points)
    if len(set(grid)) < 3:
        raise _Exit(2, f"slope fits need at least 3 distinct grid points; --points "
                       f"{args.points} over {args.snr_db_range} rounds to {len(set(grid))}")
    cells = _cell_configs(grid, CsitConfig.from_alpha, alpha)
    mc_cfg = _mc_config(args)
    seed = mc_cfg.seed
    _warn_truncated("alpha", args.alpha)
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
        "stderr_sum": [float(r[6]) for r in rows],
        "samples": args.samples,
        "seed": seed,
    }
    _write_json(args.out, payload)
    _write_manifest(args.out, argv, mc_cfg, {
        "command": "slopes", "scheme": scheme.value, "alpha": alpha,
        "snr_db": grid, "samples": args.samples, "seed": seed,
    })
    return 0


def cmd_oracles(args):
    mc_cfg = _mc_config(args)
    failures = []

    rng = block_rng(mc_cfg.seed, 0)
    pairs = rng.uniform(0.05, 10.0, size=(1000, 2))
    # one batched quadrature for every pair; NaN marks a pair out of panels
    quads = rotation_mean_log_quadrature(pairs[:, 0], pairs[:, 1])
    errs = []
    for (a, b), quad in zip(pairs, quads):
        if math.isnan(quad):
            failures.append(f"rotation identity did not converge at ({a}, {b})")
            continue
        err = abs(quad - rotation_mean_log_closed_form(a, b))
        errs.append(err)
        if err >= _ROTATION_TOL:
            failures.append(f"rotation identity off by {err:.3e} at ({a:.4f}, {b:.4f})")
    n_pass = sum(err < _ROTATION_TOL for err in errs)
    details = [f"max err {max(errs):.3e}"] if errs else []
    if len(errs) < len(pairs):
        details.append(f"{len(pairs) - len(errs)} did not converge")
    print(f"rotation-identity: {n_pass}/{len(pairs)} pass ({', '.join(details)})")
    # one line per failing pair, up to a cap, so the later checks still show
    if len(failures) > _ROTATION_FAIL_LINES:
        more = len(failures) - _ROTATION_FAIL_LINES
        failures[_ROTATION_FAIL_LINES:] = [f"... and {more} more rotation identity failures"]

    gamma = exp_log_mean()  # once; the bound check below reuses it
    est = exp_log_mean_monte_carlo(mc_cfg)
    mean, std_error = est.mean[0], est.std_error[0]
    diff = abs(gamma - mean)
    ok = diff <= 5.0 * std_error
    print(f"exp-log-constant: exact {gamma:.6f} vs mc {mean:.6f} "
          f"(|diff| {diff:.2e}, 5*se {5 * std_error:.2e}) "
          f"{'pass' if ok else 'FAIL'}")
    if not ok:
        failures.append("exp-log constant mismatch between the exact value and Monte Carlo")

    bounds_cfg = CsitConfig.from_sigma_sq(1000.0, 0.1)
    report = conditional_log_bounds_check(
        (bounds_cfg.snr_p, 0.0), bounds_cfg, mc_cfg, gamma=gamma)
    n_ok = int(np.sum((report.upper_margins >= 0) & (report.lower_margins >= 0)))
    print(f"conditional-bounds: {n_ok}/{report.upper_margins.size} batches pass "
          f"(min upper margin {report.upper_margins.min():.4f}, "
          f"min lower margin {report.lower_margins.min():.4f})")
    if not report.passed:
        failures.append("conditional log bounds violated")

    for failure in failures:
        print(f"FAIL: {failure}")
    print(end="", flush=True)  # a full or broken stdout fails here, where main reports it
    return 1 if failures else 0


def _add_workers(parser):
    workers = usable_cpus()
    parser.add_argument("--workers", type=int, default=workers,
                        help="Monte Carlo worker processes (default: the CPUs this "
                             f"process may run on, {workers} here; more are capped "
                             "at that count); the output does not depend on it")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="misodof",
        description="Two-user MISO broadcast channel: DoF regions and ergodic rates "
                    "under delayed plus imperfect current transmitter CSI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="export a DoF region as JSON")
    p_region.add_argument("--alpha", type=float, required=True)
    extension = p_region.add_mutually_exclusive_group()
    extension.add_argument("--beta", type=float, default=None,
                           help="delayed-feedback quality exponent; emits the "
                                "achievable region under quantized delayed CSIT")
    extension.add_argument("--common-message", action="store_true")
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
    _add_workers(p_rates)
    p_rates.add_argument("--out", required=True)

    p_slopes = sub.add_parser("slopes", help="high-SNR sum-rate slope fit, JSON output")
    p_slopes.add_argument("--scheme", required=True,
                          choices=["tdma", "zf", "mat", "rszf", "proposed"])
    p_slopes.add_argument("--alpha", type=float, required=True)
    p_slopes.add_argument("--snr-db-range", default="40:80", metavar="LO:HI")
    p_slopes.add_argument("--points", type=int, default=9)
    p_slopes.add_argument("--samples", type=int, default=100_000)
    p_slopes.add_argument("--seed", type=int, default=None)
    _add_workers(p_slopes)
    p_slopes.add_argument("--out", required=True)

    p_oracles = sub.add_parser("oracles", help="run the analytic verification suite")
    p_oracles.add_argument("--samples", type=int, default=1_000_000,
                           help="exponential samples of the exp-log check; each "
                                "channel draw gives 8: the Exp(1) entries of the "
                                "errors and of g_hat, and h_hat's Gamma(2) norm^2 "
                                "counted twice")
    p_oracles.add_argument("--seed", type=int, default=None)
    _add_workers(p_oracles)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command != "oracles":  # before any estimate runs
            _check_out(args.out)
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
    except OSError as exc:  # writing --out, its manifest or (oracles) stdout
        name = exc.filename or getattr(args, "out", "<stdout>")
        print(f"error: cannot write {name!r}: {exc.strerror}", file=sys.stderr)
        return 2


def cli():
    gc.freeze()  # what is alive here (numpy, the package) lives until exit anyway
    code = main()
    try:
        print(end="", flush=True)  # as exit would; a no-op once main has flushed
    except OSError:  # main reported it; drop the bytes exit would retry
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    cli()
