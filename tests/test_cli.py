import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from carnot_hardy import (ZFieldSpec, balogh_tyson, bound_row, cc, cli,
                          heisenberg, heisenberg_product, koranyi, koranyi_b, nonisotropic)
from carnot_hardy.bounds import hardy_target
from carnot_hardy.verify import Report
from carnot_hardy.zfield import product_hypothesis
from oracles import cc_bound, koranyi_bound, product_bound


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_bounds_json_headline_values(capsys):
    code, out = run_cli(["bounds", "--group", "heisenberg", "--n", "1",
                         "--norm", "all", "--p", "2", "--theta", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    rows = {r["norm"]: r for r in data["results"]}
    assert rows["koranyi"]["bound"] == 0.25
    assert rows["koranyi"]["branch"] == "first"
    assert rows["cc"]["bound"] == 0.25
    assert rows["cc"]["branch"] == "closed"
    assert rows["koranyi"]["upper_remark"] == 1.0   # (Q-2)^2/4 for p=2, theta=1
    assert data["meta"]["seed"] == 2024


def test_bounds_nonisotropic(capsys):
    code, out = run_cli(["bounds", "--group", "nonisotropic", "--lambdas", "1,2",
                         "--norm", "koranyi_b", "--p", "2", "--theta", "1"], capsys)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["bound"] == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_bounds_product(capsys):
    code, out = run_cli(["bounds", "--group", "product", "--n", "1", "--N", "2",
                         "--p", "2", "--theta", "1"], capsys)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["bound"] == pytest.approx(2.25)
    assert row["Q"] == 8.0
    assert row["condition_checks"]["n_ge_(ptheta-4)/4"] is True


def test_bounds_product_reports_the_koranyi_gauge(capsys):
    code, out = run_cli(["bounds", "--group", "product", "--n", "1", "--N", "2",
                         "--p", "2", "--theta", "1,2"], capsys)
    assert code == 0
    assert [r["norm"] for r in json.loads(out)["results"]] == ["koranyi", "koranyi"]


@pytest.mark.parametrize("argv", [
    ["bounds", "--group", "heisenberg", "--norm", "balogh_tyson"],
    ["bounds", "--group", "nonisotropic", "--lambdas", "1,2", "--norm", "cc"],
    ["bounds", "--group", "nonisotropic", "--norm", "cc"],
    ["bounds", "--group", "product", "--norm", "koranyi_b"],
    ["verify", "identity", "--group", "nonisotropic", "--lambdas", "1,2", "--norm", "cc"],
    ["verify", "sharpness", "--norm", "koranyi_b"],
    ["verify", "sharpness", "--group", "nonisotropic", "--lambdas", "1,2",
     "--norm", "koranyi_b"],
    ["verify", "identity", "--group", "product"],
    ["verify", "hardy", "--group", "product"],
    ["verify", "sharpness", "--group", "product"],
    ["verify", "sharpness", "--group", "nonisotropic", "--lambdas", "1,2",
     "--norm", "koranyi"],
    # identity and hardy run Monte Carlo on groups without the phi chart;
    # sharpness and the cc norm still need H^1 and H^n respectively
    ["verify", "sharpness", "--n", "2"],
    ["verify", "hardy", "--group", "nonisotropic", "--lambdas", "1,2", "--norm", "cc"],
    ["verify", "identity", "--group", "nonisotropic", "--lambdas", "1,2,3", "--norm", "cc"],
    ["verify", "product", "--theta", "-1"],
])
def test_unsupported_group_norm_pairs_are_usage_errors(argv, capsys):
    assert_usage_error(argv, capsys)


# identity and hardy on groups without the phi chart integrate by Monte
# Carlo, pinned bit for bit at 2 x 10^5 samples; the Koranyi identity reads
# the same bits on H^2 and on the (1, 2) group, whose draws are the same.
# Its defect, 1.16e-2, is past the tolerance 2e-3 at this sample count, so
# the identity exits 1
MC_IDENTITY = {"I1": -176.0910776658237, "I2": -174.0693775291716,
               "I3": -174.61536074783484, "defect": 0.011578019986292465}


@pytest.mark.parametrize("argv, code, values", [
    (["verify", "identity", "--n", "2"], 1, MC_IDENTITY),
    (["verify", "identity", "--group", "nonisotropic", "--lambdas", "1,2"], 1, MC_IDENTITY),
    (["verify", "hardy", "--group", "nonisotropic", "--lambdas", "1,2",
      "--norm", "koranyi_b", "--bumps", "2"], 0,
     {"target": 4.0, "worst_quotient": 20.777682914825903}),
], ids=["identity-H2", "identity-noniso(1,2)", "hardy-noniso(1,2)"])
def test_groups_without_the_chart_run_monte_carlo(argv, code, values, capsys):
    got, out = run_cli([*argv, "--samples", "200000"], capsys)
    assert got == code
    res = json.loads(out)["results"][0]
    assert {k: res["values"][k] for k in values} == values
    if argv[1] == "identity":
        assert res["diagnostics"]["method"] == "monte_carlo"
        assert res["diagnostics"]["grid_error"] == 1.5619210374506425
        assert res["diagnostics"]["n_evals"] == 41391


def assert_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["bounds", "--p", "1"],
    ["bounds", "--group", "product", "--p", "1"],
    ["bounds", "--n", "0"],
    ["bounds", "--group", "product", "--N", "0"],
    ["bounds", "--group", "nonisotropic", "--lambdas=-1,2"],
    ["verify", "identity", "--p", "1"],
    ["verify", "product", "--n", "0"],
    ["verify", "product", "--p", "1"],
    ["supz", "--Q", "2"],
    ["supz", "--norm", "cc", "--Q", "2"],
    ["supz", "--p", "1", "--theta", "1"],
    ["supz", "--norm", "cc", "--p", "1.5"],
    ["cc", "--point", "1,0,abc"],
    ["cc", "--point", "nan,0,0.5"],
    ["verify", "sharpness", "--eps", "abc"],
    ["verify", "sharpness", "--eps", "1e-2,0"],
    ["verify", "sharpness", "--eps", "2,1e-2"],
    ["verify", "sharpness", "--eps", "1e-2,1e-2"],
    ["bounds", "--theta", "abc"],
    ["bounds", "--p", "nan"],
    ["verify", "identity", "--p", "nan"],
    ["supz", "--Q", "nan"],
    # finite inputs whose results overflow double precision
    ["supz", "--theta", "1e308"],
    ["supz", "--norm", "cc", "--theta", "1e308"],
    ["supz", "--Q", "1e308"],
    ["supz", "--norm", "cc", "--Q", "1e308"],
    ["bounds", "--p", "1e308"],
    ["bounds", "--theta", "1e308"],
    ["bounds", "--p", "2", "--theta", "1e200"],
    ["cc", "--point", "1e200,0,1"],
    ["cc", "--point", "1e-160,0,1"],
    # node counts beyond what a Gauss rule or a profile dump can hold
    ["verify", "identity", "--nodes", "100000"],
    ["supz", "--nodes", "100000000"],
    # counts that bound nothing but the run time: one past each cap, and the
    # counts that once ran on past any timeout
    ["verify", "hardy", "--bumps", str(cli.MAX_VERIFY_BUMPS + 1)],
    ["verify", "hardy", "--bumps", "100000000"],
    ["verify", "identity", "--n", "2", "--samples", str(cli.MAX_VERIFY_SAMPLES + 1)],
    ["verify", "hardy", "--n", "2", "--samples", str(cli.MAX_VERIFY_SAMPLES + 1)],
    ["verify", "product", "--samples", str(cli.MAX_VERIFY_SAMPLES + 1)],
    ["verify", "product", "--samples", "1000000000000", "--samples-log2", "4"],
    # counts within their own caps whose product, the total work of verify
    # hardy, is past a cap: one past each, and the pairs that ran past a
    # minute; nodes on the phi chart of H^1, samples on H^2, which has none
    ["verify", "hardy", "--bumps", "401", "--nodes", "2000"],
    ["verify", "hardy", "--bumps", "10000", "--nodes", "2000"],
    ["verify", "hardy", "--n", "2", "--bumps", "2",
     "--samples", str(cli.MAX_VERIFY_SAMPLES // 2 + 1)],
    ["verify", "hardy", "--n", "2", "--bumps", "5", "--samples", str(10**8)],
    # powers of the gauge, of u or of the slope that leave double precision
    # on the support window
    ["verify", "identity", "--p", "1e6"],
    ["verify", "identity", "--theta", "1e6"],
    ["verify", "hardy", "--norm", "cc", "--p", "1e6"],
    ["verify", "sharpness", "--p", "1e6"],
    ["verify", "sharpness", "--eps", "1e-2,1e-300"],
])
@pytest.mark.filterwarnings("error")
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    # the closed profiles and the verify integrands check their coefficients
    # and powers before evaluating anything, so no NumPy warning precedes the
    # usage error
    assert_usage_error(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "hardy", "--p", "300", "--bumps", "1", "--nodes", "16"],
    ["verify", "sharpness", "--p", "400", "--eps", "1e-2,1e-3", "--nodes", "16"],
])
@pytest.mark.filterwarnings("error")
def test_non_finite_integrands_are_usage_errors(argv, capsys):
    # |grad u|^p overflows although the powers of the gauge and of u do not:
    # the quadrature finds the non-finite sample, and the usage error names
    # the flags, with no NumPy warning before it
    assert_usage_error(argv, capsys)


def _reject_non_finite(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["supz", "--nodes", "101"],
    ["supz", "--norm", "cc", "--nodes", "101"],
    ["supz", "--theta", "1e100", "--nodes", "101"],
    ["supz", "--norm", "cc", "--theta=-1e100", "--nodes", "101"],
    ["cc", "--point", "1e154,0,1"],
    ["bounds", "--group", "product", "--n", "1", "--N", "2", "--p", "2", "--theta", "10"],
])
def test_outputs_are_strict_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    json.loads(out, parse_constant=_reject_non_finite)


def test_product_of_one_factor_prints_the_heisenberg_rows(capsys):
    # (H^n)^1 is H^n: its rows are H^n's Koranyi rows, the closed second
    # branch at theta = 10 included
    argv = ["--n", "1", "--p", "2", "--theta", "1,10"]
    code, out = run_cli(["bounds", "--group", "product", "--N", "1", *argv], capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    code, out = run_cli(["bounds", "--group", "heisenberg", "--norm", "koranyi", *argv],
                        capsys)
    assert code == 0
    assert rows == json.loads(out)["results"]
    assert [r["branch"] for r in rows] == ["first", "second"]
    assert rows[1]["bound"] == 2.515576474687263 and rows[1]["heuristic"] is False


def test_product_row_whose_hypothesis_fails_has_no_bound(capsys):
    code, out = run_cli(["bounds", "--group", "product", "--n", "1", "--N", "2",
                         "--p", "2", "--theta", "2,10"], capsys)
    assert code == 0
    held, failed = json.loads(out, parse_constant=_reject_non_finite)["results"]
    assert held["branch"] == "product" and held["bound"] > 0.0
    assert failed["branch"] == "condition_failed" and failed["bound"] is None


def _closed_bound(norm, Q, p, theta, group):
    """The bound of a row from the paper's closed formula, which needs no
    sup; None for a product whose hypothesis fails, and a ValueError where
    no formula applies."""
    if group == "product":
        return product_bound(1, 2, p, theta) if all(
            product_hypothesis(1, p, theta).values()) else None
    if norm == "koranyi" and group == "heisenberg":
        return koranyi_bound(Q, p, theta)
    if norm == "cc":
        return cc_bound(Q, p, theta)
    if norm == "koranyi_b":
        return koranyi_bound(Q, p, theta, lam_min=1.0)
    raise ValueError(f"no closed bound for {norm}")


@pytest.mark.parametrize("argv, labels", [
    # the cc rows at theta 3 and 5 take the numeric branch
    (["bounds", "--group", "heisenberg", "--n", "1", "--norm", "all", "--p", "2",
      "--theta", "1,3,5"], {False, True}),
    (["bounds", "--group", "nonisotropic", "--lambdas", "0.5,1", "--norm", "balogh_tyson",
      "--p", "2", "--theta", "0.5,1"], {True}),
    (["bounds", "--group", "nonisotropic", "--lambdas", "1,2", "--norm", "koranyi_b",
      "--p", "2", "--theta", "1,5"], {False}),
    # the Koranyi gauge off H^n has no closed sup
    (["bounds", "--group", "nonisotropic", "--lambdas", "1,2", "--norm", "koranyi",
      "--p", "2", "--theta", "0,1,2"], {True}),
    # theta 10 fails the product hypothesis: no bound, on a multistart sup
    (["bounds", "--group", "product", "--n", "1", "--N", "2", "--p", "2",
      "--theta", "1,10"], {False}),
])
def test_bounds_from_sampled_sups_are_heuristic(argv, labels, capsys):
    # a row whose bound is not its closed formula divides the target by a
    # sampled sup, which may be below the true one: it must say so
    code, out = run_cli(argv, capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    for row in rows:
        Q, p, theta = row["Q"], row["p"], row["theta"]
        try:
            closed = _closed_bound(row["norm"], Q, p, theta, argv[2])
        except ValueError:
            closed = None
        if row["heuristic"]:
            assert closed is None and row["sup_method"] in ("multistart", "scan_zoom")
            assert row["bound"] == pytest.approx(hardy_target(Q, p, theta)
                                                 / row["sup_value"] ** p, rel=1e-12)
        elif closed is None:
            assert row["bound"] is None
        else:
            assert row["bound"] == hardy_target(Q, p, theta) / row["sup_value"] ** p
            rel = 1e-15 if row["norm"] == "cc" else 1e-14
            assert abs(row["bound"] - closed) <= rel * closed
    assert {row["heuristic"] for row in rows} == labels


H1 = heisenberg(1)
NONISO = nonisotropic([1.0, 2.0])
BT = nonisotropic([0.5, 1.0])
H1xH1 = heisenberg_product(1, 2)


@pytest.mark.parametrize("argv, spec, branch", [
    (["--n", "1", "--norm", "koranyi", "--theta", "1"],
     ZFieldSpec(H1, koranyi(H1), 2.0, 1.0), "first"),
    (["--n", "1", "--norm", "koranyi", "--theta", "6"],
     ZFieldSpec(H1, koranyi(H1), 2.0, 6.0), "second"),
    (["--n", "1", "--norm", "cc", "--theta", "1"],
     ZFieldSpec(H1, cc(H1), 2.0, 1.0), "closed"),
    (["--n", "1", "--norm", "cc", "--theta", "3"],
     ZFieldSpec(H1, cc(H1), 2.0, 3.0), "numeric"),
    (["--group", "nonisotropic", "--lambdas", "1,2", "--norm", "koranyi_b", "--theta", "7"],
     ZFieldSpec(NONISO, koranyi_b(NONISO), 2.0, 7.0), "second"),
    (["--group", "nonisotropic", "--lambdas", "0.5,1", "--norm", "balogh_tyson",
      "--theta", "1"], ZFieldSpec(BT, balogh_tyson(BT), 2.0, 1.0), "generic"),
    (["--group", "product", "--n", "1", "--N", "2", "--theta", "1"],
     ZFieldSpec(H1xH1, koranyi(H1xH1), 2.0, 1.0), "product"),
    (["--group", "product", "--n", "1", "--N", "2", "--theta", "10"],
     ZFieldSpec(H1xH1, koranyi(H1xH1), 2.0, 10.0), "condition_failed"),
])
def test_bounds_rows_are_bound_row(argv, spec, branch, capsys):
    # the command emits bound_row's report of the spec it builds, unchanged
    code, out = run_cli(["bounds", "--p", "2", *argv], capsys)
    assert code == 0
    (row,) = json.loads(out)["results"]
    assert row["branch"] == branch
    assert row == cli._jsonable(bound_row(spec).to_dict())


def test_bounds_n_has_a_stated_maximum(monkeypatch, capsys):
    # the check comes before the group is built: nothing large is started.
    # A row of (H^n)^N lists its N x nN couplings, as many as H^n's n
    def never(args):
        raise AssertionError("the group was built")

    monkeypatch.setattr(cli, "_make_group", never)
    for n in (cli.MAX_BOUNDS_N + 1, 10**8):
        assert_usage_error(["bounds", "--n", str(n)], capsys)
    for N in (32, 10**8):
        assert_usage_error(["bounds", "--group", "product", "--n", "1", "--N", str(N),
                            "--theta", "1"], capsys)


def test_couplings_near_four_are_not_heisenberg(capsys):
    # the closed Koranyi and cc formulas hold on H^n alone, not on groups
    # whose couplings round to 4
    base = ["bounds", "--group", "nonisotropic", "--lambdas", "4.00003,4"]
    assert_usage_error(base + ["--norm", "cc"], capsys)
    code, out = run_cli(base + ["--norm", "all"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    assert rows and all(r["norm"] == "koranyi_b" for r in rows)


def test_counterexample_ignores_group(capsys):
    # the scan runs on its own (1/2, 1) group; --group is not built for it
    base = ["verify", "counterexample", "--samples-log2", "6"]
    code, plain = run_cli(base, capsys)
    code_g, grouped = run_cli(base + ["--group", "nonisotropic"], capsys)
    assert code == code_g == 0
    assert json.loads(grouped)["results"] == json.loads(plain)["results"]


def test_product_scan_size_follows_samples_log2(capsys):
    # 2^6 Sobol points, less the one at z = 0 (point 1, 1/2 in every
    # coordinate); (H^1)^3 has no Monte Carlo identity, so only the scan runs
    code, out = run_cli(["verify", "product", "--N", "3", "--samples-log2", "6"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["diagnostics"]["samples"] == 63


def test_product_identity_with_no_window_sample_is_not_checked(capsys):
    # one box-equivalent draw: at most one sample in the support window, no
    # integrand to compare and no variance, so the report fails
    code, out = run_cli(["verify", "product", "--samples", "1", "--samples-log2", "1"],
                        capsys)
    assert code == 1
    res = json.loads(out)["results"][0]
    diag = res["diagnostics"]
    assert res["passed"] is False and diag["mc_samples"] == 1
    assert diag["mc_window_samples"] < 2
    assert diag["identity_not_checked"] == (f"{diag['mc_window_samples']} of 1 Monte Carlo "
                                            "samples in the support window: at least 2 "
                                            "are needed")
    assert "identity_lhs" not in res["values"] and "mc_stderr" not in diag


@pytest.mark.parametrize("seed", ["2024", "4"])
def test_monte_carlo_checks_with_too_few_window_samples(seed, capsys):
    # one box-equivalent draw on H^2, which integrates by Monte Carlo: with
    # it outside the window (seed 2024: it misses the ball) the identity
    # divided by a zero I3 and the quotient met a zero denominator, both
    # tracebacks; with it inside (seed 4) there is no variance
    mc = ["--n", "2", "--samples", "1", "--seed", seed]
    code, out = run_cli(["verify", "identity", *mc], capsys)
    assert code == 1
    res = json.loads(out)["results"][0]
    assert res["passed"] is False and "defect" not in res["values"]
    if seed == "2024":
        # no draw, no mass: I3 is +0.0, not -0.0
        assert '"I3": 0.0,' in out
    assert res["diagnostics"]["identity_not_checked"].endswith(
        "of 1 Monte Carlo samples in the support window: at least 2 are needed")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "hardy", "--bumps", "1", *mc])
    assert exc.value.code == 2
    assert "--samples 1:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "product", "--n", "0"],
                                  ["verify", "product", "--N", "0"]])
def test_product_sizes_have_their_own_usage_message(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "verify product" in err and "--group" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "product", "--n", "32", "--N", "1"],
    ["verify", "product", "--n", "1", "--N", "22"],
    ["verify", "product", "--n", "1", "--N", "100000000"],
    ["bounds", "--group", "product", "--n", "32", "--N", "2", "--p", "2", "--theta", "200"],
    ["bounds", "--group", "nonisotropic", "--lambdas", ",".join(["1"] * 32),
     "--norm", "koranyi"],
    ["verify", "counterexample", "--samples-log2", "31"],
    ["verify", "product", "--samples-log2", "31"],
])
def test_scans_beyond_the_sobol_draw_are_usage_errors(argv, capsys):
    # 65 dimensions and more, or more than 2^30 points: rejected before any
    # draw, and the dimensions of verify product before its N x nN group
    assert_usage_error(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "hardy", "--bumps", "0"],
    ["verify", "identity", "--nodes", "0"],
    ["verify", "identity", "--nodes", "15"],
    ["verify", "sharpness", "--nodes", "8"],
    ["verify", "product", "--samples", "0"],
    ["verify", "identity", "--n", "2", "--samples", "0"],
    ["verify", "counterexample", "--samples-log2", "-1"],
    ["supz", "--nodes", "0"],
    ["supz", "--nodes", "1"],
    ["bounds", "--theta", ","],
    ["bounds", "--theta="],
    # the cut-off family is integrated on the phi chart only, which H^2 lacks
    ["verify", "sharpness", "--n", "2", "--eps", "1e-2,1e-3", "--nodes", "16"],
    # one eps fits C/log(1/eps) exactly, with residual 0
    ["verify", "sharpness", "--eps", "1e-2"],
])
def test_degenerate_counts_are_usage_errors(argv, capsys):
    # left through, each of these would check nothing and pass, report a grid
    # error from two identical grids, ignore a flag it was given and print
    # what the run without it prints, or end in a traceback
    assert_usage_error(argv, capsys)


def test_bounds_theta_grid_default(capsys):
    code, out = run_cli(["bounds", "--norm", "koranyi", "--p", "2"], capsys)
    thetas = [r["theta"] for r in json.loads(out)["results"]]
    assert thetas == [0.0, 0.5, 1.0, 2.0, 2.0]   # grid includes Q/p = 2
    degenerate = [r for r in json.loads(out)["results"] if r["theta"] == 2.0]
    assert all(r["bound"] == 0.0 for r in degenerate)


def test_json_byte_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = cli.main(["bounds", "--group", "heisenberg", "--norm", "all",
                         "--p", "2", "--theta", "0.5,1,2", "--out", str(f)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_csv_output(tmp_path):
    f = tmp_path / "rows.csv"
    code = cli.main(["bounds", "--norm", "koranyi", "--p", "2", "--theta", "1",
                     "--format", "csv", "--out", str(f)])
    assert code == 0
    lines = f.read_text().strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "bound" in header and "norm" in header


def test_supz_cc_profile(capsys):
    code, out = run_cli(["supz", "--norm", "cc", "--Q", "4", "--p", "2",
                         "--theta", "1"], capsys)
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["x_name"] == "nu"
    assert abs(res["argmax"]) <= 1e-2
    assert res["max"] == pytest.approx(4.0, abs=1e-4)
    assert res["sup"]["sup_sq"] == pytest.approx(4.0, abs=1e-8)


@pytest.mark.parametrize("norm", ["cc", "koranyi"])
def test_supz_csv_rows_are_two_floats(norm, capsys):
    code, out = run_cli(["supz", "--norm", norm, "--Q", "4", "--p", "2", "--theta", "1",
                         "--nodes", "301", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# sup_sq=") and "np." not in lines[0]
    assert lines[1] in ("nu,z_sq", "lambda,z_sq")
    rows = lines[2:]
    assert len(rows) == 301
    for row in rows:
        x, y = row.split(",")
        # each field is the repr of a Python float, so it reads back to itself
        assert repr(float(x)) == x and repr(float(y)) == y, row


def test_supz_koranyi_profile_csv(tmp_path):
    f = tmp_path / "prof.csv"
    code = cli.main(["supz", "--norm", "koranyi", "--Q", "4", "--p", "2",
                     "--theta", "6", "--format", "csv", "--out", str(f)])
    assert code == 0
    lines = f.read_text().splitlines()
    assert lines[0].startswith("# sup_sq=")
    assert "7.11111111" in lines[0]
    assert lines[1] == "lambda,z_sq"


def test_supz_monotone_profile_ptheta_zero(capsys):
    code, out = run_cli(["supz", "--norm", "koranyi", "--Q", "4", "--p", "2",
                         "--theta", "0", "--nodes", "101"], capsys)
    res = json.loads(out)["results"][0]
    ys = np.array(res["z_sq"])
    mid = len(ys) // 2
    assert np.all(np.diff(ys[mid:]) <= 1e-12)          # decreasing for lam > 0
    assert ys[mid] == pytest.approx(4.0, abs=1e-6)     # (Q/(Q-2))^2 at lam = 0


def test_verify_identity_exit_zero(capsys):
    code, out = run_cli(["verify", "identity", "--norm", "koranyi",
                         "--p", "2", "--theta", "1"], capsys)
    assert code == 0
    rep = json.loads(out)["results"][0]
    assert rep["passed"] is True


def test_verify_exit_nonzero_on_failure(monkeypatch, capsys):
    def failing(spec, u, quad=None):
        return Report("ibp_identity", False, 2e-3, values={"forced": True})

    monkeypatch.setattr(cli, "check_ibp_identity", failing)
    code, out = run_cli(["verify", "identity"], capsys)
    assert code == 1


def test_cc_command(capsys):
    code, out = run_cli(["cc", "--point", "1,0,0"], capsys)
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["cc_value"] == pytest.approx(1.0)
    assert res["nu"] == pytest.approx(0.0, abs=1e-12)

    code, out = run_cli(["cc", "--point", "0,0,1"], capsys)
    res = json.loads(out)["results"][0]
    assert res["cc_value"] == pytest.approx(np.sqrt(np.pi), abs=1e-12)

    code, out = run_cli(["cc", "--point", f"1,0,{np.pi/2}"], capsys)
    res = json.loads(out)["results"][0]
    assert res["cc_value"] == pytest.approx(np.pi / 2, rel=1e-12)
    assert res["nu"] == pytest.approx(np.pi, rel=1e-12)
    assert res["hgrad_norm"] == pytest.approx(1.0, abs=1e-12)


def test_cc_rejects_origin():
    with pytest.raises(SystemExit):
        cli.main(["cc", "--point", "0,0,0"])


@pytest.mark.parametrize("point", ["1e-200,0,0", "0,1e-170,0", "1e-160,0,0"])
def test_cc_point_whose_square_underflows_is_not_the_origin(point, capsys):
    # |z| is representable but |z|^2 is 0 or subnormal: a usage error that
    # says so, not the origin's
    with pytest.raises(SystemExit) as exc:
        cli.main(["cc", "--point", point])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "underflows" in err and "origin" not in err and "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("point", ["1,0,1e308", "0,0,1e308", "0,0,-1.7976931348623157e308",
                                   "0,0,5e-324", "1e-150,0,1e10", "0,-1e-152,-1e300"])
def test_cc_point_at_the_ends_of_the_float_range(point, capsys):
    # slopes t/|z|^2 up to DBL_MAX take the pole branch of the inversion, and
    # slopes that overflow take 2pi - |nu| from |z| and t; sqrt(pi |t|) on the
    # center neither overflows nor rounds a subnormal product; the distance is
    # printed once as cc_value and once as r
    code, out = run_cli(["cc", "--point", point], capsys)
    assert code == 0
    res = json.loads(out, parse_constant=_reject_non_finite)["results"][0]
    values = [v for v in res.values() if not isinstance(v, list)] + res.get("hgrad", [])
    assert np.all(np.isfinite(values))
    assert res["cc_value"] == res["r"]
    t = float(point.split(",")[-1])
    # |d(z, t) - sqrt(pi |t|)| <= |z| = 1 off the center
    assert res["cc_value"] == pytest.approx(np.sqrt(np.pi) * np.sqrt(abs(t)), rel=1e-14)
    assert res["nu"] == pytest.approx(np.copysign(2 * np.pi, t), rel=1e-15)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports the package from src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def run_cli_fresh(argv, **env):
    """(exit code, stdout, stderr) of the CLI in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "carnot_hardy.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_back_to_back_calls_print_what_separate_runs_print(capsys):
    # main() reuses one parser: flags, defaults and errors of a call must not
    # reach the next one
    sequence = [
        ["bounds", "--group", "nonisotropic", "--lambdas", "1,2", "--norm", "koranyi_b",
         "--p", "3", "--theta", "2", "--format", "csv", "--seed", "7"],
        ["bounds", "--theta", "1"],
        ["supz", "--norm", "cc", "--Q", "6", "--theta", "3", "--nodes", "40",
         "--format", "csv"],
        ["supz", "--p", "1"],
        ["supz", "--nodes", "30"],
        ["cc", "--point", "1,0,0.5"],
        ["bounds", "--theta", "1"],
    ]
    in_process = []
    for argv in sequence:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        in_process.append((code, out, err))
    assert [r[0] for r in in_process] == [0, 0, 0, 2, 0, 0, 0]
    assert in_process[1] == in_process[-1]
    for argv, got in zip(sequence, in_process):
        assert got == run_cli_fresh(argv), argv


def test_main_runs_a_rebound_command(monkeypatch, capsys):
    # the parser outlives the call, but a cmd_* rebound on the module (a
    # wrapper, a mock) is the one that runs
    assert run_cli(["cc", "--point", "1,0,0.5"], capsys)[0] == 0
    monkeypatch.setattr(cli, "cmd_cc", lambda args: 7)
    assert cli.main(["cc", "--point", "1,0,0.5"]) == 7


def test_monte_carlo_output_does_not_depend_on_blas_threads():
    # the second moment is a pairwise sum over 2^17-draw chunks, as the
    # first is; a BLAS dot of them printed mc_stderr 8.70442156501716 at
    # one OpenBLAS 0.3.31 thread and 8.704421565017158 at two for this seed
    argv = ["verify", "product", "--samples", "300000", "--samples-log2", "4",
            "--seed", "6"]
    runs = [run_cli_fresh(argv, OMP_NUM_THREADS=k, OPENBLAS_NUM_THREADS=k,
                          MKL_NUM_THREADS=k) for k in ("1", "2")]
    assert runs[0][0] in (0, 1) and runs[0][2] == ""
    assert "mc_stderr" in runs[0][1]
    assert runs[0] == runs[1]


def test_package_and_readme_commands_do_not_import_scipy():
    # SciPy is a test-only dependency: with every scipy import refused, the
    # package, the README commands and the p != 2 weight identity still run
    proc = run_fresh("""
import contextlib, io, sys
import numpy as np
class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None
sys.meta_path.insert(0, RefuseScipy())
import carnot_hardy, carnot_hardy.verify, carnot_hardy.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert scipy_modules() == [], scipy_modules()
for argv in (["bounds", "--group", "heisenberg", "--n", "1", "--norm", "all",
              "--p", "2", "--theta", "1"],
             ["supz", "--norm", "cc"],
             ["cc", "--point", "1,0,0.5"],
             ["verify", "identity"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert carnot_hardy.cli.main(argv) == 0, argv
    assert scipy_modules() == [], (argv, scipy_modules())
rng = np.random.default_rng(9)
f = rng.normal(size=200)
# random pairs, and near-equal ones, most of them on the weight's series branch
for g in (rng.normal(size=200), f * (1.0 + 1e-3 * rng.normal(size=200))):
    for p in (2.5, 3.0, 4.0):
        rep = carnot_hardy.verify.check_w_identity(p, f, g)
        assert rep.passed and rep.tol == 1e-10, (p, rep.values)
assert scipy_modules() == [], scipy_modules()
""")
    assert proc.returncode == 0, proc.stderr


def test_scans_do_not_load_scipy():
    # the Sobol points come from the package's own generator
    proc = run_fresh("""
import contextlib, io, json, sys
from carnot_hardy import ZFieldSpec, balogh_tyson, cli, nonisotropic
from carnot_hardy.zfield import multistart_sup
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
# 1000 Monte Carlo samples cannot resolve the product identity: exit code 1
for argv, code in ((["verify", "counterexample"], 0),
                   (["verify", "product", "--samples", "1000"], 1),
                   (["bounds", "--group", "nonisotropic", "--lambdas", "0.5,1",
                     "--norm", "balogh_tyson", "--theta", "1"], 0)):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli.main(argv)
    assert got == code, (argv, got)
    rows = json.loads(out.getvalue())["results"]
    assert rows and scipy_modules() == [], (argv, scipy_modules())
assert rows[0]["sup_method"] == "multistart"
g = nonisotropic([0.5, 1.0])
assert multistart_sup(ZFieldSpec(g, balogh_tyson(g), 2.0, 1.0), m=10).samples > 0
assert scipy_modules() == [], scipy_modules()
""")
    assert proc.returncode == 0, proc.stderr
