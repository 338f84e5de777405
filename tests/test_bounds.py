import numpy as np
import pytest

from carnot_hardy import (ZFieldSpec, bound_cc, bound_generic, bound_koranyi,
                          bound_koranyi_B, bound_product, bound_row, cc, heisenberg,
                          heisenberg_product, koranyi, koranyi_b, nonisotropic,
                          sup_z_norm)
from carnot_hardy.bounds import CC_COEFF, hardy_target, koranyi_window


H1 = heisenberg(1)


def test_bound_generic():
    assert bound_generic(2.0, 4.0, 2.0, 1.0) == pytest.approx(0.25)
    assert bound_generic(3.0, 4.0, 2.0, 2.0) == 0.0          # p theta = Q
    assert bound_generic(1.0, 6.0, 2.0, 1.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        bound_generic(0.0, 4.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        bound_generic(-1.0, 4.0, 2.0, 1.0)


def test_bound_koranyi_branches():
    value, branch = bound_koranyi(4.0, 2.0, 1.0)
    assert value == 0.25 and branch == "first"
    # exact arithmetic of the headline case: (Q-2)^4/(4 Q^2)
    assert value == (4.0 - 2.0) ** 4 / (4.0 * 4.0**2)
    value, branch = bound_koranyi(4.0, 2.0, 6.0)
    assert branch == "second"
    assert value == pytest.approx(2.25, rel=1e-14)
    value, _ = bound_koranyi(4.0, 2.0, 2.0)
    assert value == 0.0                                      # p theta = Q
    with pytest.raises(ValueError):
        bound_koranyi(2.0, 2.0, 1.0)


def test_bound_koranyi_branch_continuity():
    # both branches agree at the window edges p theta = (1 +- sqrt(3/2)) Q
    for Q in (4.0, 6.0, 10.0):
        for p in (2.0, 3.0):
            lo, hi = koranyi_window(Q)
            for edge in (lo, hi):
                just_in = bound_koranyi(Q, p, edge / p * (1 - np.copysign(1e-9, edge)))
                just_out = bound_koranyi(Q, p, edge / p * (1 + np.copysign(1e-9, edge)))
                assert just_in[1] != just_out[1]
                assert just_in[0] == pytest.approx(just_out[0], rel=1e-6)


def test_bound_koranyi_matches_generic_profile_sup():
    g = heisenberg(1)
    for p, theta in ((2.0, 1.0), (2.0, 6.0), (3.0, 0.5), (2.0, -1.0)):
        sup = sup_z_norm(ZFieldSpec(g, koranyi(g), p, theta))
        closed, _ = bound_koranyi(4.0, p, theta)
        assert closed == pytest.approx(bound_generic(sup.sup_value, 4.0, p, theta),
                                       rel=1e-9)


def test_bound_cc():
    value, branch = bound_cc(4.0, 2.0, 1.0)
    assert branch == "closed" and value == pytest.approx(0.25)
    assert 4.0 >= CC_COEFF * 2.0  # the hypothesis that fires the closed branch
    value, branch = bound_cc(4.0, 2.0, 0.0)
    assert branch == "closed" and value == pytest.approx(1.0)
    # negative theta falls back to the numerically computed sup of g
    g = heisenberg(1)
    sup = sup_z_norm(ZFieldSpec(g, cc(g), 2.0, -3.0))
    value, branch = bound_cc(4.0, 2.0, -3.0, g_sup=sup.sup_sq)
    assert branch == "numeric"
    assert value == pytest.approx(bound_generic(sup.sup_value, 4.0, 2.0, -3.0), rel=1e-12)
    with pytest.raises(ValueError):
        bound_cc(4.0, 2.0, -3.0)


def test_bound_cc_matches_generic():
    g = heisenberg(1)
    sup = sup_z_norm(ZFieldSpec(g, cc(g), 2.0, 1.0))
    closed, _ = bound_cc(4.0, 2.0, 1.0)
    assert closed == pytest.approx(bound_generic(sup.sup_value, 4.0, 2.0, 1.0), rel=1e-9)


def test_bound_koranyi_b():
    g = nonisotropic([1.0, 2.0])          # n = 2, Q = 6, lam_min = 1
    value, branch = bound_koranyi_B(g, 2.0, 1.0)
    assert branch == "first"
    assert value == pytest.approx(4.0 / 9.0, abs=1e-12)
    # the p=2, theta=1 closed reduction (lam_min/4) (Q-2)^4/(4 Q^2)
    assert value == pytest.approx((1.0 / 4.0) * 4.0**4 / (4.0 * 36.0), rel=1e-14)
    # isotropic reduction: prefactor one
    h2 = heisenberg(2)
    iso, _ = bound_koranyi_B(h2, 2.0, 1.0)
    kor, _ = bound_koranyi(6.0, 2.0, 1.0)
    assert iso == pytest.approx(kor, rel=1e-14)
    with pytest.raises(ValueError):
        bound_koranyi_B(heisenberg_product(1, 2), 2.0, 1.0)


def test_bound_koranyi_b_matches_generic():
    g = nonisotropic([1.0, 2.0])
    sup = sup_z_norm(ZFieldSpec(g, koranyi_b(g), 2.0, 1.0))
    closed, _ = bound_koranyi_B(g, 2.0, 1.0)
    assert closed == pytest.approx(bound_generic(sup.sup_value, 6.0, 2.0, 1.0), rel=1e-9)


def test_bound_product():
    assert bound_product(1, 2, 2.0, 1.0) == pytest.approx(2.25)
    # N = 1 reduces to the Koranyi first branch when p theta <= 4
    for p, theta in ((2.0, 1.0), (2.0, 2.0), (4.0, 0.75)):
        kor, branch = bound_koranyi(4.0, p, theta)
        assert branch == "first"
        assert bound_product(1, 1, p, theta) == pytest.approx(kor, rel=1e-14)
    # condition void whenever p theta <= 4
    for pt in (0.0, 2.0, 4.0):
        bound_product(1, 1, 2.0, pt / 2.0)
    with pytest.raises(ValueError):
        bound_product(1, 1, 2.0, 6.0)      # n = 1 < (12 - 4)/4
    with pytest.raises(ValueError):
        bound_product(1, 1, 2.0, -1.0)


def test_bounds_nonnegative_and_vanish_at_ptheta_q():
    rng = np.random.default_rng(40)
    for _ in range(200):
        Q = rng.uniform(3.0, 12.0)
        p = rng.uniform(2.0, 5.0)
        theta = rng.uniform(-4.0, 4.0)
        v, _ = bound_koranyi(Q, p, theta)
        assert v >= 0.0
        if theta >= 0 and Q >= CC_COEFF * p * theta:
            vcc, _ = bound_cc(Q, p, theta)
            assert vcc >= 0.0
    # p theta = Q kills every bound (any positive g_sup in the fallback)
    assert bound_koranyi(5.0, 2.5, 2.0)[0] == 0.0
    assert bound_cc(5.0, 2.5, 2.0, g_sup=4.0)[0] == 0.0


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
    assert row["bound"] < bound_koranyi(Q, 2.0, theta)[0]


@pytest.mark.parametrize("p, theta, branch", [(3.0, 0.7101318663035474, "closed"),
                                              (11.0, 0.19367232717369476, "numeric")])
def test_cc_row_checks_the_condition_that_chose_its_branch(p, theta, branch):
    # inputs where CC_COEFF * p * theta and CC_COEFF * (p * theta) round to
    # opposite sides of Q = 4
    assert (4.0 >= CC_COEFF * p * theta) != (4.0 >= CC_COEFF * (p * theta))
    row = bound_row(ZFieldSpec(H1, cc(H1), p, theta))
    assert row.branch == branch
    assert row.condition_checks == {"closed_branch": branch == "closed"}
