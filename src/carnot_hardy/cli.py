"""Command-line front end.

    carnot-hardy bounds  --group heisenberg --n 1 --norm koranyi --p 2 --theta 1
    carnot-hardy supz    --norm cc --Q 4 --p 2 --theta 1 --out profile.csv
    carnot-hardy verify  identity --p 2 --theta 1 --norm koranyi
    carnot-hardy cc      --point 1,0,0.5

Outputs are deterministic for a fixed configuration (seeded sampling,
order-fixed reductions): JSON dumps are byte-identical across runs, CSV is a
flat one-row-per-result table.  The process exits nonzero exactly when some
verification report fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .bounds import (BoundReport, bound_cc, bound_generic, bound_koranyi,
                     bound_koranyi_B, bound_product, hardy_target, koranyi_window,
                     CC_COEFF, product_conditions)
from .groups import Point, heisenberg, heisenberg_product, nonisotropic
from .norms import cc_invert, make_norm
from .zfield import (ScanRangeError, ZFieldSpec, cc_profile_max, g_cc,
                     koranyi_profile_max, sup_z_norm, z_profile_koranyi)
from .verify import (QuadratureSpec, Report, check_ibp_identity, counterexample_scan,
                     hardy_quotient, product_check, radial_bump, random_bump,
                     sharpness_function, sharpness_sequence, fit_log_excess)
from .verify.quadrature import NonFiniteIntegrandError

DEFAULT_SEED = 2024
# each bounds row lists the group's lambdas, so its size grows with --n
MAX_BOUNDS_N = 1000
# the Gauss rule of n sigma nodes is built from an n x n matrix, and the
# supz profile holds and prints every node
MAX_VERIFY_NODES = 2000
MAX_SUPZ_NODES = 10**6


class UsageError(Exception):
    """Bad command-line input; reported by argparse with exit code 2.  Not a
    ValueError, so that argparse passes it on from a type function."""


def _finite(flag):
    """argparse type of ``flag``: a finite float, or a usage error."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            raise UsageError(f"{flag} {text}: must be a finite number")
        return value
    return parse


def _not_finite(context):
    """The usage error for finite inputs whose results overflow double precision."""
    return UsageError(f"{context}: the result is not finite in double precision")


def _check_finite(context, *values):
    if not all(np.all(np.isfinite(v)) for v in values):
        raise _not_finite(context)


def _gauge_range(norm, group, support):
    """The least and the largest value of the gauge on the Koranyi annulus
    support = (r, R): by homogeneity, r and R times its extremes on the
    Koranyi unit sphere, sampled along each horizontal axis at 65 slopes
    (the center included)."""
    psi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, 65)
    m = 2 * group.n
    z = np.zeros((m, psi.size, m))
    z[np.arange(m), :, np.arange(m)] = np.sqrt(np.cos(psi))
    t = np.zeros((m, psi.size, group.h))
    t[..., 0] = np.sin(psi)
    d = norm.value(z.reshape(-1, m), t.reshape(-1, group.h))
    return support[0] * d.min(), support[1] * d.max()


def _check_powers(context, spec, u, u_max, lam=None):
    """Usage error unless the powers that the integrands of verify identity,
    hardy and sharpness take stay finite on the support window of u, checked
    up front as the closed profiles check their coefficients: the gauge's
    d^(p theta), d^(p theta - 1) and d^(p (theta - 1)), finite and nonzero at
    both ends of its range on the window, and |u|^p at u_max >= |u|; for the
    cut-off family also lam^2, lam^kappa and lam^(kappa - 1) at both ends of
    its slope window lam."""
    p, theta = spec.p, spec.theta
    bases = [np.array(_gauge_range(spec.norm, spec.group, u.support))[:, None]]
    exponents = [np.array([p * theta, p * theta - 1.0, p * (theta - 1.0)])]
    if lam is not None:
        kappa = u.params["exponent"]
        bases.append(np.array(lam)[:, None])
        exponents.append(np.array([2.0, kappa, kappa - 1.0]))
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        powers = [b**e for b, e in zip(bases, exponents)]
        u_p = np.float64(u_max) ** p
    if not (np.isfinite(u_p) and all(np.all(np.isfinite(w) & (w > 0.0)) for w in powers)):
        raise _not_finite(context)


@contextmanager
def _finite_integrands(context):
    """Usage errors for integrands whose samples leave double precision
    beyond what _check_powers sees, such as |grad u|^p at a large --p.  Their
    overflow is not warned about: the quadrature's check of every sample
    turns it into the usage error."""
    try:
        with np.errstate(over="ignore"):
            yield
    except NonFiniteIntegrandError:
        raise _not_finite(context) from None


@contextmanager
def _scan_limits(context):
    """Usage errors for scans beyond the Sobol draw's dimensions or points."""
    try:
        yield
    except ScanRangeError as exc:
        raise UsageError(f"{context}: {exc}") from None


def _parse_floats(text, flag):
    """The comma list of finite numbers given to ``flag``."""
    return [_finite(flag)(x) for x in str(text).split(",") if x != ""]


def _make_group(args):
    """The group named by --group, or a usage error for out-of-range sizes."""
    if args.group == "nonisotropic" and not args.lambdas:
        raise UsageError("--lambdas is required for nonisotropic groups")
    try:
        if args.group == "heisenberg":
            return heisenberg(args.n)
        if args.group == "nonisotropic":
            return nonisotropic(_parse_floats(args.lambdas, "--lambdas"))
        if args.group == "product":
            return heisenberg_product(args.n, args.N)
    except ValueError as exc:
        raise UsageError(f"--group {args.group}: {exc}") from None
    raise UsageError(f"unknown group {args.group!r}")


def _make_norm(kind, group, args):
    """The gauge named by --norm, or a usage error when the group lacks it."""
    try:
        return make_norm(kind, group)
    except ValueError as exc:
        raise UsageError(f"--norm {kind} is not available on --group {args.group}: "
                         f"{exc}") from None


def _make_spec(group, norm, p, theta, variant="single"):
    """The Z-field of (group, norm, p, theta), or a usage error for --p < 2."""
    try:
        return ZFieldSpec(group, norm, p, theta, variant=variant)
    except ValueError as exc:
        raise UsageError(f"--p {p:g} --theta {theta:g}: {exc}") from None


def _theta_grid(args, Q):
    if args.theta is not None:
        thetas = _parse_floats(args.theta, "--theta")
        if not thetas:
            raise UsageError(f"--theta {args.theta!r}: give at least one value")
        return thetas
    return [0.0, 0.5, 1.0, 2.0, Q / args.p]


def _jsonable(obj):
    """Convert numpy scalars/arrays so payloads serialize deterministically."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _emit(payload, args, rows=None):
    """Serialize to JSON (default) or CSV with a stable column order."""
    payload = _jsonable(payload)
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        rows = rows if rows is not None else payload["results"]
        buf = io.StringIO()
        cols = []
        flat_rows = []
        for r in rows:
            flat = _flatten(r)
            flat_rows.append(flat)
            for k in flat:
                if k not in cols:
                    cols.append(k)
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        for flat in flat_rows:
            writer.writerow(flat)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            out[key] = json.dumps(v)
        else:
            out[key] = v
    return out


def _meta(args, command):
    # the output path is not part of the run semantics; dropping it keeps
    # byte-identical payloads for identical configurations
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "out") and v is not None}
    return {"version": __version__, "seed": args.seed, "command": command,
            "config": cfg}


def _bound_row(args, group, kind, p, theta, context):
    """(sup, bound value, branch, condition checks) of one bounds row; the
    value is None where the hypothesis of the product bound fails."""
    Q = float(group.Q)
    checks = {}
    if args.group == "product":
        checks = product_conditions(args.n, args.N, p, theta)
        spec = _make_spec(group, make_norm(kind, group), p, theta, variant="product")
        sup = sup_z_norm(spec)
        _check_finite(context, sup.sup_value)
        try:
            value = bound_product(args.n, args.N, p, theta)
        except ValueError:
            return sup, None, "condition_failed", checks
        _check_finite(context, value)
        return sup, value, "product", checks
    spec = _make_spec(group, _make_norm(kind, group, args), p, theta)
    sup = sup_z_norm(spec)
    _check_finite(context, sup.sup_value)
    if kind == "koranyi":
        value, branch = bound_koranyi(Q, p, theta)
        lo, hi = koranyi_window(Q)
        checks = {"ptheta_in_window": lo <= p * theta <= hi}
    elif kind == "cc":
        checks = {"closed_branch": theta >= 0 and Q >= CC_COEFF * p * theta}
        value, branch = bound_cc(Q, p, theta, g_sup=sup.sup_sq)
    elif kind == "koranyi_b":
        value, branch = bound_koranyi_B(group, p, theta)
        lo, hi = koranyi_window(Q)
        checks = {"ptheta_in_window": lo <= p * theta <= hi}
    else:  # no closed formula: generic bound from the sampled sup
        value, branch = bound_generic(sup.sup_value, Q, p, theta), "generic"
    _check_finite(context, value)
    return sup, value, branch, checks


def cmd_bounds(args) -> int:
    if args.n > MAX_BOUNDS_N:
        raise UsageError(f"--n {args.n}: bounds tabulates at most {MAX_BOUNDS_N} blocks")
    group = _make_group(args)
    Q = float(group.Q)
    if args.group == "product":
        # the product bound and its sup are stated for the Koranyi gauge
        if args.norm not in ("all", "koranyi"):
            raise UsageError("--group product is tabulated with --norm koranyi only")
        norms = ["koranyi"]
    elif args.norm != "all":
        norms = [args.norm]
    else:
        norms = ["koranyi", "cc"] if group.is_isotropic_heisenberg() else ["koranyi_b"]
    rows = []
    for theta in _theta_grid(args, Q):
        for kind in norms:
            p = args.p
            context = f"--p {p:g} --theta {theta:g} --norm {kind}"
            try:
                with _scan_limits(f"--group {args.group} {context}"):
                    sup, value, branch, checks = _bound_row(args, group, kind, p, theta,
                                                            context)
            except OverflowError:
                raise _not_finite(context) from None
            report = BoundReport(group.describe(), kind, p, theta, Q,
                                 None if value is None else float(value), branch,
                                 sup_value=sup.sup_value, sup_method=sup.method,
                                 condition_checks=checks,
                                 upper_remark=((Q - 2.0)**2 / 4.0
                                               if (p, theta) == (2.0, 1.0) else None))
            rows.append(report.to_dict())
    _emit({"meta": _meta(args, "bounds"), "results": rows}, args)
    return 0


def cmd_supz(args) -> int:
    Q = float(args.Q)
    p, theta = args.p, args.theta
    if p < 2:
        raise UsageError(f"--p {p:g}: the profiles are stated for p >= 2, as the bounds are")
    if not 2 <= args.nodes <= MAX_SUPZ_NODES:
        raise UsageError(f"--nodes {args.nodes}: the profile takes 2 to {MAX_SUPZ_NODES} nodes")
    context = f"--Q {Q:g} --p {p:g} --theta {theta:g}"
    try:
        if args.norm == "cc":
            xs = np.linspace(-2 * np.pi, 2 * np.pi, args.nodes)
            ys = g_cc(Q, p, theta, xs)
            xname = "nu"
            sup_sq, arg = cc_profile_max(Q, p, theta)
            method = "scan_zoom"
        else:
            psi = np.linspace(-np.pi / 2 * (1 - 1e-9), np.pi / 2 * (1 - 1e-9), args.nodes)
            xs = np.tan(psi)
            ys = z_profile_koranyi(Q, p, theta, xs)
            xname = "lambda"
            sup_sq, arg, _ = koranyi_profile_max(Q, p, theta)
            method = "closed_form"
    except ValueError as exc:
        raise UsageError(f"--Q {Q:g}: {exc}") from None
    except OverflowError:
        raise _not_finite(context) from None
    _check_finite(context, ys, sup_sq, arg)
    i = int(np.argmax(ys))
    if args.format == "csv":
        lines = [f"# sup_sq={sup_sq!r} arg={arg!r} method={method}",
                 f"{xname},z_sq"]
        lines += [f"{x!r},{y!r}" for x, y in zip(xs, ys)]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        payload = {"meta": _meta(args, "supz"),
                   "results": [{"x_name": xname, "x": xs.tolist(), "z_sq": ys.tolist(),
                                "argmax": float(xs[i]), "max": float(ys[i]),
                                "sup": {"sup_sq": sup_sq, "arg": arg,
                                        "method": method}}]}
        _emit(payload, args)
    return 0


def _quad_from_args(args, support):
    """Quadrature overrides from the command line for one test function."""
    if args.quad_method == "monte_carlo":
        return QuadratureSpec(method="monte_carlo", samples=args.samples, seed=args.seed,
                              sigma_range=support, box=(support[1], support[1] ** 2))
    return QuadratureSpec(n_sigma=args.nodes, sigma_range=support)


def _check_verify_args(args, group):
    """Usage errors for configurations that no verify check covers; group is
    the --group of identity, hardy and sharpness, and None for the checks
    that build their own."""
    # the grid error is estimated against a grid of half the nodes, floored at
    # 8: from 16 nodes on the two grids differ
    for flag, value, least in (("--bumps", args.bumps, 1), ("--nodes", args.nodes, 16),
                               ("--samples", args.samples, 1),
                               ("--samples-log2", args.samples_log2, 0)):
        if value < least:
            raise UsageError(f"{flag} {value}: must be at least {least}")
    if args.nodes > MAX_VERIFY_NODES:
        raise UsageError(f"--nodes {args.nodes}: verify takes at most {MAX_VERIFY_NODES}")
    if group is not None:
        if group.h != 1:
            raise UsageError(f"--group {args.group} has {group.h} vertical directions; "
                             f"verify {args.check} needs one (see verify product)")
        if group.n != 1 and (args.check == "sharpness"
                             or args.quad_method == "tensor_grid"):
            hint = "" if args.check == "sharpness" else "; try --quad-method monte_carlo"
            raise UsageError(f"--group {args.group} has {group.n} horizontal blocks; the "
                             f"tensor grid of verify {args.check} needs one{hint}")
    if args.check == "product":
        if args.n < 1 or args.N < 1:
            raise UsageError(f"--n {args.n} --N {args.N}: verify product scans (H^n)^N "
                             "and needs n >= 1 and N >= 1")
        if args.theta_value < 0:
            raise UsageError(f"--theta {args.theta_value:g}: verify product needs theta >= 0")
        if args.p < 2:
            raise UsageError(f"--p {args.p:g}: verify product needs p >= 2")
    if args.check == "sharpness":
        eps = _parse_floats(args.eps, "--eps")
        if not (eps and all(0.0 < e < 1.0 for e in eps)
                and all(b < a for a, b in zip(eps, eps[1:]))):
            raise UsageError(f"--eps {args.eps}: verify sharpness needs values in (0, 1) "
                             "that decrease strictly")


def cmd_verify(args) -> int:
    # counterexample and product build their own groups and ignore --group
    uses_group = args.check in ("identity", "hardy", "sharpness")
    group = _make_group(args) if uses_group else None
    _check_verify_args(args, group)
    context = f"--p {args.p:g} --theta {args.theta_value:g}"
    reports = []
    if args.check == "identity":
        norm = _make_norm(args.norm, group, args)
        spec = _make_spec(group, norm, args.p, args.theta_value)
        modulation = 0.25 if group.h == 1 else 0.0
        u = radial_bump(group, modulation=modulation)
        _check_powers(context, spec, u, 1.0 + modulation)
        with _finite_integrands(context):
            reports.append(check_ibp_identity(spec, u, _quad_from_args(args, u.support)))
    elif args.check == "hardy":
        rng = np.random.default_rng(args.seed)
        norm = _make_norm(args.norm, group, args)
        spec = _make_spec(group, norm, args.p, args.theta_value)
        target = hardy_target(group.Q, args.p, args.theta_value)
        worst = np.inf
        for _ in range(args.bumps):
            u = random_bump(group, rng)
            _check_powers(context, spec, u, 1.0 + abs(u.params["modulation"][0]))
            with _finite_integrands(context):
                q = hardy_quotient(spec, u, _quad_from_args(args, u.support))
            worst = min(worst, q)
        reports.append(Report("hardy_dominance", worst >= target - 1e-3, 1e-3,
                              values={"worst_quotient": worst, "target": target},
                              diagnostics={"bumps": args.bumps, "norm": args.norm}))
    elif args.check == "sharpness":
        if args.norm not in ("koranyi", "cc"):
            raise UsageError(f"--norm {args.norm} is not available for verify sharpness: "
                             "the cut-off family is computed for the koranyi or cc gauges")
        norm = _make_norm(args.norm, group, args)
        spec = _make_spec(group, norm, args.p, args.theta_value)
        eps = _parse_floats(args.eps, "--eps")
        context = f"{context} --eps {args.eps}"
        # u_eps <= lam^kappa on its slope window (eps, 1/eps), widest at the
        # last eps
        u = sharpness_function(group, args.p, eps[-1])
        lam = (eps[-1], 1.0 / eps[-1])
        _check_powers(context, spec, u, np.float64(lam[1]) ** u.params["exponent"], lam=lam)
        with _finite_integrands(context):
            pts = sharpness_sequence(spec, eps, QuadratureSpec(n_sigma=args.nodes))
        target = hardy_target(group.Q, args.p, args.theta_value)
        c_fit, resid = fit_log_excess(pts, target)
        decreasing = all(b.quotient <= a.quotient + 1e-3 for a, b in zip(pts, pts[1:]))
        reports.append(Report(
            "sharpness", decreasing and resid <= 0.2, 0.2,
            values={"quotients": [[sp.eps, sp.quotient] for sp in pts],
                    "denominators": [sp.denominator for sp in pts],
                    "target": target, "fit_C": c_fit, "fit_residual": resid},
            diagnostics={"norm": args.norm}))
    elif args.check == "counterexample":
        with _scan_limits(f"--samples-log2 {args.samples_log2}"):
            reports.append(counterexample_scan(samples_log2=args.samples_log2))
            reports.append(counterexample_scan(isotropic_control=True,
                                               samples_log2=args.samples_log2))
    elif args.check == "product":
        with _scan_limits(f"--n {args.n} --N {args.N} --samples-log2 {args.samples_log2}"):
            reports.append(product_check(args.n, args.N, args.p, args.theta_value,
                                         samples_log2=args.samples_log2,
                                         seed=args.seed, mc_samples=args.samples))
    else:
        raise UsageError(f"unknown verify check {args.check!r}")
    payload = {"meta": _meta(args, f"verify {args.check}"),
               "results": [r.to_dict() for r in reports]}
    _emit(payload, args)
    return 0 if all(r.passed for r in reports) else 1


def cmd_cc(args) -> int:
    coords = _parse_floats(args.point, "--point")
    if len(coords) < 3 or len(coords) % 2 == 0:
        raise UsageError("--point must be z_1,...,z_2n,t")
    x = Point(coords[:-1], coords[-1])
    if x.is_origin():
        raise UsageError("the origin has no polar data")
    # the polar chart reads t/|z|^2 off |z|^2, away from the center
    with np.errstate(all="ignore"):
        zn2 = x.z @ x.z
        slope = x.t[0] / zn2 if not x.on_center() else 0.0
    if not x.on_center() and zn2 < np.finfo(float).tiny:
        raise UsageError(f"--point {args.point}: |z|^2 underflows double precision")
    _check_finite(f"--point {args.point}", zn2, slope)
    model = make_norm("cc", heisenberg(x.z.shape[0] // 2))
    result = {"point": coords, "cc_value": model.value_at(x)}
    polar = cc_invert(x)
    result.update(nu=polar.nu, r=polar.r)
    if not x.on_center():
        grad = model.hgrad_at(x)
        result["hgrad"] = grad.tolist()
        result["hgrad_norm"] = float(np.linalg.norm(grad))
        result["dt"] = float(model.dt_at(x)[0])
    _emit({"meta": _meta(args, "cc"), "results": [result]}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="carnot-hardy", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)

    b = sub.add_parser("bounds", help="tabulate Hardy-constant lower bounds")
    b.add_argument("--group", choices=("heisenberg", "nonisotropic", "product"),
                   default="heisenberg")
    b.add_argument("--n", type=int, default=1)
    b.add_argument("--N", type=int, default=1)
    b.add_argument("--lambdas", default=None)
    b.add_argument("--norm", default="all",
                   choices=("all", "koranyi", "cc", "koranyi_b", "balogh_tyson"))
    b.add_argument("--p", type=_finite("--p"), default=2.0)
    b.add_argument("--theta", default=None, help="comma list; default grid incl. Q/p")
    common(b)
    b.set_defaults(func=cmd_bounds)

    s = sub.add_parser("supz", help="dump the |Z_d|^2 profile for plotting")
    s.add_argument("--norm", choices=("koranyi", "cc"), default="koranyi")
    s.add_argument("--Q", type=_finite("--Q"), default=4.0)
    s.add_argument("--p", type=_finite("--p"), default=2.0)
    s.add_argument("--theta", type=_finite("--theta"), default=1.0)
    s.add_argument("--nodes", type=int, default=2001)
    common(s)
    s.set_defaults(func=cmd_supz)

    v = sub.add_parser("verify", help="run a verification check")
    v.add_argument("check", choices=("identity", "hardy", "sharpness",
                                     "counterexample", "product"))
    v.add_argument("--group", choices=("heisenberg", "nonisotropic", "product"),
                   default="heisenberg")
    v.add_argument("--n", type=int, default=1)
    v.add_argument("--N", type=int, default=2)
    v.add_argument("--lambdas", default=None)
    v.add_argument("--norm", default="koranyi",
                   choices=("koranyi", "cc", "koranyi_b"))
    v.add_argument("--p", type=_finite("--p"), default=2.0)
    v.add_argument("--theta", dest="theta_value", type=_finite("--theta"), default=1.0)
    v.add_argument("--eps", default="1e-2,1e-3,1e-4")
    v.add_argument("--bumps", type=int, default=5)
    v.add_argument("--samples", type=int, default=10**6, help="Monte Carlo samples")
    v.add_argument("--samples-log2", type=int, default=15,
                   help="log2 of quasi-random scan points")
    v.add_argument("--quad-method", choices=("tensor_grid", "monte_carlo"),
                   default="tensor_grid")
    v.add_argument("--nodes", type=int, default=80)
    common(v)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("cc", help="evaluate the cc distance and its derivatives")
    c.add_argument("--point", required=True, help="z_1,...,z_2n,t")
    common(c)
    c.set_defaults(func=cmd_cc)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
