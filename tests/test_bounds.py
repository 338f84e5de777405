import json

import mpmath
import numpy as np
import pytest

from carnot_hardy import (ZFieldSpec, bound_generic, bound_row, cc, cli, heisenberg,
                          heisenberg_product, koranyi, koranyi_b, koranyi_profile_max,
                          nonisotropic, sup_z_norm)
from carnot_hardy.bounds import hardy_target
from carnot_hardy.zfield import CC_COEFF, cc_profile_max
from oracles import PROFILE_ROW_BRANCH, cc_bound, koranyi_bound, product_bound


H1 = heisenberg(1)
WINDOW = (1.0 - np.sqrt(1.5), 1.0 + np.sqrt(1.5))


def _row(group, norm, p, theta):
    return bound_row(ZFieldSpec(group, norm(group), p, theta))


def _close(value, ref, rel=1e-14):
    return abs(value - ref) <= rel * abs(ref)


def test_bound_generic():
    assert bound_generic(2.0, 4.0, 2.0, 1.0) == pytest.approx(0.25)
    assert bound_generic(3.0, 4.0, 2.0, 2.0) == 0.0          # p theta = Q
    assert bound_generic(1.0, 6.0, 2.0, 1.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        bound_generic(0.0, 4.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        bound_generic(-1.0, 4.0, 2.0, 1.0)


@pytest.mark.parametrize("p, theta", [(50.0, 1e6), (20.0, 1e20), (100.0, 1e4),
                                      (400.0, 300.0)])
def test_rows_whose_target_or_sup_power_overflows_keep_their_bound(p, theta, capsys):
    # sup|Z|^p leaves double precision while the bound itself does not; the
    # command prints both rows of H^1, and at p = 400 both bounds underflow to 0
    assert cli.main(["bounds", "--n", "1", "--norm", "all", "--p", repr(p),
                     "--theta", repr(theta)]) == 0
    printed = json.loads(capsys.readouterr().out)["results"]
    assert [row["norm"] for row in printed] == ["koranyi", "cc"]
    for norm, branch, shown in zip((koranyi, cc), ("second", "numeric"), printed):
        row = _row(H1, norm, p, theta)
        assert shown == cli._jsonable(row.to_dict())
        with pytest.raises(OverflowError):
            row.sup_value ** p
        assert row.branch == branch
        if p == 400.0:
            assert row.bound == 0.0
        else:
            assert row.bound > 0.0
        if norm is koranyi:
            if p <= 50.0:
                assert _close(row.bound, koranyi_bound(4.0, p, theta), rel=1e-13)
            continue
        with mpmath.workdps(50):
            ref = (abs(4 - mpmath.mpf(p) * mpmath.mpf(theta)) / p
                   / mpmath.mpf(row.sup_value)) ** p
            assert float(abs(row.bound - ref)) <= 1e-14 * float(ref)


def test_bound_koranyi_branches():
    row = _row(H1, koranyi, 2.0, 1.0)
    assert row.bound == 0.25 and row.branch == "first"
    assert row.condition_checks == {"ptheta_in_window": True}
    # exact arithmetic of the headline case: (Q-2)^4/(4 Q^2)
    assert row.bound == (4.0 - 2.0) ** 4 / (4.0 * 4.0**2)
    row = _row(H1, koranyi, 2.0, 6.0)
    assert row.branch == "second"
    assert row.condition_checks == {"ptheta_in_window": False}
    assert row.bound == pytest.approx(2.25, rel=1e-14)
    assert _row(H1, koranyi, 2.0, 2.0).bound == 0.0         # p theta = Q


def test_bound_koranyi_branch_continuity():
    # both branches agree at the window edges p theta = (1 +- sqrt(3/2)) Q
    for g in (H1, heisenberg(2), heisenberg(4)):
        Q = float(g.Q)
        for p in (2.0, 3.0):
            for edge in (WINDOW[0] * Q, WINDOW[1] * Q):
                just_in = _row(g, koranyi, p, edge / p * (1 - 1e-9))
                just_out = _row(g, koranyi, p, edge / p * (1 + 1e-9))
                assert (just_in.branch, just_out.branch) == ("first", "second")
                assert just_in.bound == pytest.approx(just_out.bound, rel=1e-6)


def test_bound_koranyi_matches_generic_profile_sup():
    for p, theta in ((2.0, 1.0), (2.0, 6.0), (3.0, 0.5), (2.0, -1.0)):
        sup = sup_z_norm(ZFieldSpec(H1, koranyi(H1), p, theta))
        row = _row(H1, koranyi, p, theta)
        assert row.sup_value == sup.sup_value
        assert row.bound == bound_generic(sup.sup_value, 4.0, p, theta)
        assert _close(row.bound, koranyi_bound(4.0, p, theta))


# the bounds rows of every gauge and group the bounds command tabulates
ROW_GRID = [(heisenberg(n), kind) for n in (1, 2, 3) for kind in ("koranyi", "cc")] + [
    (nonisotropic(lam), "koranyi_b") for lam in ((1.0, 2.0), (1.0, 3.0))] + [
    (heisenberg_product(1, 2), "koranyi"), (heisenberg_product(2, 3), "koranyi")]


@pytest.mark.parametrize("group, kind", ROW_GRID,
                         ids=["H1-koranyi", "H1-cc", "H2-koranyi", "H2-cc", "H3-koranyi",
                              "H3-cc", "lam12-koranyi_b", "lam13-koranyi_b", "H1^2", "H2^3"])
def test_rows_divide_the_target_by_the_sup_they_report(group, kind):
    norm = {"koranyi": koranyi, "koranyi_b": koranyi_b, "cc": cc}[kind](group)
    Q = float(group.Q)
    for p in (2.0, 2.5, 3.0, 4.0):
        for theta in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0):
            row = bound_row(ZFieldSpec(group, norm, p, theta))
            if row.bound is None:
                continue
            assert row.bound == bound_generic(row.sup_value, Q, p, theta)
            assert row.bound == hardy_target(Q, p, theta) / row.sup_value ** p
            if kind == "cc":
                closed = theta >= 0 and Q >= CC_COEFF * (p * theta)
                assert row.branch == ("closed" if closed else "numeric")
                assert row.condition_checks == {"closed_branch": closed}
                if closed:
                    ref = cc_bound(Q, p, theta)
                    assert row.sup_method == "closed_form"
                    assert abs(row.bound - ref) <= 1e-15 * ref
                continue
            if group.h > 1:
                assert row.branch == "product"
                assert _close(row.bound, product_bound(group.n // group.h, group.h, p, theta))
                continue
            profile = PROFILE_ROW_BRANCH[koranyi_profile_max(Q, p, theta)[2]]
            assert row.branch == profile
            assert row.condition_checks == {"ptheta_in_window": profile == "first"}
            lam_min = float(group.lambdas.min()) if kind == "koranyi_b" else 4.0
            assert _close(row.bound, koranyi_bound(Q, p, theta, lam_min))


def test_bound_cc():
    row = _row(H1, cc, 2.0, 1.0)
    assert row.branch == "closed" and row.bound == 0.25 == cc_bound(4.0, 2.0, 1.0)
    assert 4.0 >= CC_COEFF * 2.0  # the hypothesis that fires the closed branch
    row = _row(H1, cc, 2.0, 0.0)
    assert row.branch == "closed" and row.bound == pytest.approx(1.0)
    assert _close(row.bound, cc_bound(4.0, 2.0, 0.0), rel=1e-15)
    # negative theta divides by the numerically computed sup of g, where the
    # closed formula does not hold
    sup = sup_z_norm(ZFieldSpec(H1, cc(H1), 2.0, -3.0))
    row = _row(H1, cc, 2.0, -3.0)
    assert row.branch == "numeric" and row.sup_value == sup.sup_value
    assert row.bound == bound_generic(sup.sup_value, 4.0, 2.0, -3.0)
    with pytest.raises(ValueError):
        cc_bound(4.0, 2.0, -3.0)


def test_bound_cc_matches_generic():
    # on the window the closed sup Q/(Q-2) is the dense scan's maximum, and
    # the target over it is the paper's closed cc bound
    for n, p, theta in ((1, 2.0, 1.0), (1, 3.0, 0.5), (2, 2.5, 0.0), (3, 4.0, 1.0)):
        g = heisenberg(n)
        Q = float(g.Q)
        sup = sup_z_norm(ZFieldSpec(g, cc(g), p, theta))
        assert sup.method == "closed_form" and sup.sup_value == Q / (Q - 2.0)
        assert _close(np.sqrt(cc_profile_max(Q, p, theta)[0]), sup.sup_value, rel=1e-15)
        assert _close(bound_generic(sup.sup_value, Q, p, theta), cc_bound(Q, p, theta),
                      rel=1e-15)


def test_bound_koranyi_b():
    g = nonisotropic([1.0, 2.0])          # n = 2, Q = 6, lam_min = 1
    row = _row(g, koranyi_b, 2.0, 1.0)
    assert row.branch == "first"
    assert row.bound == pytest.approx(4.0 / 9.0, abs=1e-12)
    # the p=2, theta=1 closed reduction (lam_min/4) (Q-2)^4/(4 Q^2)
    assert row.bound == pytest.approx((1.0 / 4.0) * 4.0**4 / (4.0 * 36.0), rel=1e-14)
    # isotropic reduction: prefactor one
    h2 = heisenberg(2)
    assert _row(h2, koranyi_b, 2.0, 1.0).bound == pytest.approx(
        _row(h2, koranyi, 2.0, 1.0).bound, rel=1e-14)
    with pytest.raises(ValueError):
        koranyi_b(heisenberg_product(1, 2))


def test_bound_koranyi_b_matches_generic():
    g = nonisotropic([1.0, 2.0])
    sup = sup_z_norm(ZFieldSpec(g, koranyi_b(g), 2.0, 1.0))
    assert _row(g, koranyi_b, 2.0, 1.0).bound == bound_generic(sup.sup_value, 6.0, 2.0, 1.0)
    assert _close(bound_generic(sup.sup_value, 6.0, 2.0, 1.0),
                  koranyi_bound(6.0, 2.0, 1.0, lam_min=1.0))


def test_bound_product():
    g = heisenberg_product(1, 2)
    row = _row(g, koranyi, 2.0, 1.0)
    assert (row.branch, row.bound) == ("product", pytest.approx(2.25))
    # N = 1 reduces to the Koranyi first branch when p theta <= 4
    for p, theta in ((2.0, 1.0), (2.0, 2.0), (4.0, 0.75)):
        row = _row(heisenberg_product(1, 1), koranyi, p, theta)
        assert row.branch == "first"
        assert row.bound == pytest.approx(product_bound(1, 1, p, theta), rel=1e-14, abs=0.0)
    # condition void whenever p theta <= 4
    for pt in (0.0, 2.0, 4.0):
        assert _row(g, koranyi, 2.0, pt / 2.0).branch == "product"
    for theta in (6.0, -1.0):              # n = 1 < (12 - 4)/4, theta < 0
        row = _row(g, koranyi, 2.0, theta)
        assert (row.branch, row.bound) == ("condition_failed", None)


def test_bounds_nonnegative_and_vanish_at_ptheta_q():
    rng = np.random.default_rng(40)
    groups = [heisenberg(n) for n in range(1, 6)]
    for _ in range(200):
        g = groups[rng.integers(len(groups))]
        Q = float(g.Q)
        p = rng.uniform(2.0, 5.0)
        theta = rng.uniform(-4.0, 4.0)
        assert _row(g, koranyi, p, theta).bound >= 0.0
        Q = rng.uniform(3.0, 12.0)
        if theta >= 0 and Q >= CC_COEFF * (p * theta):
            assert cc_bound(Q, p, theta) >= 0.0
        assert _row(g, cc, p, theta).bound >= 0.0
    # p theta = Q kills every bound, on a closed sup or a scanned one
    assert _row(heisenberg(2), koranyi, 2.5, 2.4).bound == 0.0
    assert _row(heisenberg(2), cc, 2.5, 2.4).bound == 0.0


@pytest.mark.parametrize("lambdas, theta", [((1.0, 2.0), 2.0), ((1.0, 2.0), 1.0),
                                            ((0.5, 8.0), 1.0)])
def test_koranyi_row_off_heisenberg_divides_by_its_sampled_sup(lambdas, theta):
    # the isotropic formula assumes sup|Z| = Q/(Q-2); off H^n the Koranyi
    # field exceeds it, so the formula would overstate the bound
    g = nonisotropic(lambdas)
    Q = float(g.Q)
    row = bound_row(ZFieldSpec(g, koranyi(g), 2.0, theta)).to_dict()
    assert row["branch"] == "generic" and row["heuristic"] is True
    assert row["sup_method"] == "multistart" and row["sup_value"] > Q / (Q - 2.0)
    assert row["bound"] == hardy_target(Q, 2.0, theta) / row["sup_value"] ** 2.0
    assert row["bound"] < koranyi_bound(Q, 2.0, theta)


@pytest.mark.parametrize("p, theta, branch", [(3.0, 0.7101318663035474, "closed"),
                                              (11.0, 0.19367232717369476, "numeric")])
def test_cc_row_checks_the_condition_that_chose_its_branch(p, theta, branch):
    # inputs where CC_COEFF * p * theta and CC_COEFF * (p * theta) round to
    # opposite sides of Q = 4
    assert (4.0 >= CC_COEFF * p * theta) != (4.0 >= CC_COEFF * (p * theta))
    row = bound_row(ZFieldSpec(H1, cc(H1), p, theta))
    assert row.branch == branch
    assert row.condition_checks == {"closed_branch": branch == "closed"}
