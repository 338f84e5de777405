import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from carnot_hardy import (CenterError, Point, StepTwoGroup, ZFieldSpec, balogh_tyson,
                          cc, g_cc, heisenberg, heisenberg_product, koranyi, koranyi_b,
                          koranyi_profile_max, nonisotropic, sup_z_norm,
                          z_profile_koranyi)
from carnot_hardy.norms import cc_from_polar, CCPolar, symplectic_norm_sq_arrays
from carnot_hardy.zfield import bracket_zoom_max, z_field_components

H1 = heisenberg(1)


def z_at(spec, x):
    """Z_d at a point: the batched field on one row."""
    return z_field_components(spec, x.z[None], x.t[None])[0]


def test_z_field_on_horizontal_plane():
    # at t = 0 the vertical term drops: Z = (Q/(Q-2)) z/rho, norm 2 on H^1
    spec = ZFieldSpec(H1, koranyi(H1), 2.0, 1.0)
    for zvec in ([1.0, 0.0], [0.3, -0.4], [-2.0, 1.0]):
        x = Point(zvec, 0.0)
        v = z_at(spec, x)
        assert np.linalg.norm(v) == pytest.approx(2.0, rel=1e-14)
        assert np.allclose(v, 2.0 * x.z / np.linalg.norm(x.z), rtol=1e-14)


def test_z_field_profile_consistency_koranyi():
    # |Z|^2 at t/|z|^2 = lam equals the closed profile
    rng = np.random.default_rng(30)
    for p, theta in ((2.0, 1.0), (2.0, 6.0), (3.0, 0.5), (2.5, -1.0)):
        spec = ZFieldSpec(H1, koranyi(H1), p, theta)
        for _ in range(25):
            z = rng.normal(size=(1, 2))
            lam = rng.normal() * 3.0
            t = np.array([[lam * float(np.sum(z * z))]])
            val = np.sum(z_field_components(spec, z, t) ** 2)
            prof = float(z_profile_koranyi(4.0, p, theta, lam))
            assert abs(val - prof) < 1e-8 * max(1.0, prof)


def test_z_field_gradient_free_when_ptheta_zero():
    spec = ZFieldSpec(H1, cc(H1), 2.0, 0.0)
    rng = np.random.default_rng(31)
    for _ in range(10):
        z = rng.normal(size=2)
        t = rng.normal(size=1)
        x = Point(z, t)
        v = z_at(spec, x)
        d = cc(H1).value_at(x)
        assert np.allclose(v, 2.0 * z / d, rtol=1e-10)
    # the cc jet has no gradient on the center, and Z_d none there either
    with pytest.raises(CenterError):
        z_at(spec, Point([0.0, 0.0], 1.0))


def test_z_field_degree_zero_homogeneity():
    rng = np.random.default_rng(32)
    for model in (koranyi(H1), cc(H1)):
        spec = ZFieldSpec(H1, model, 2.0, 1.5)
        for _ in range(25):
            z = rng.normal(size=(1, 2))
            t = rng.normal(size=(1, 1))
            gam = rng.uniform(0.3, 4.0)
            v1 = np.linalg.norm(z_field_components(spec, z, t))
            v2 = np.linalg.norm(z_field_components(spec, gam * z, gam**2 * t))
            assert abs(v1 - v2) < 1e-9 * max(1.0, v1)


def test_profile_koranyi_values():
    assert float(z_profile_koranyi(4.0, 2.0, 1.0, 0.0)) == pytest.approx(4.0)
    # frozen: Q=4, p=2, theta=6 interior maximum 192/27 at s = 5/9
    lam_star = np.sqrt((5.0 / 9.0) / (4.0 / 9.0))
    assert float(z_profile_koranyi(4.0, 2.0, 6.0, lam_star)) == pytest.approx(192.0 / 27.0, rel=1e-13)
    # decay ~ beta/lam for large lam
    assert float(z_profile_koranyi(4.0, 2.0, 6.0, 1e9)) < 2e-8
    with pytest.raises(ValueError):
        z_profile_koranyi(2.0, 2.0, 1.0, 0.0)


def test_profile_max_closed_form():
    sup_sq, lam_star, branch = koranyi_profile_max(4.0, 2.0, 1.0)
    assert sup_sq == 4.0 and lam_star == 0.0 and branch == "endpoint"
    sup_sq, lam_star, branch = koranyi_profile_max(4.0, 2.0, 6.0)
    assert branch == "interior"
    assert sup_sq == pytest.approx(192.0 / 27.0, rel=1e-14)
    assert lam_star**2 / (1 + lam_star**2) == pytest.approx(5.0 / 9.0, rel=1e-12)
    # bracket-zoom confirmation on the compactified variable
    alpha, beta = 4.0, 12.0
    _, val = bracket_zoom_max(lambda s: np.sqrt(1 - s) * (alpha + beta * s),
                              0.0, 1.0 - 1e-12)
    assert val == pytest.approx(192.0 / 27.0, rel=1e-10)


def test_g_cc_values():
    # frozen: limits at 0 and the value at pi for Q=4, p theta = 2
    assert float(g_cc(4.0, 2.0, 1.0, 0.0)) == pytest.approx(4.0)
    assert float(g_cc(4.0, 2.0, 17.0, 0.0)) == pytest.approx(4.0)
    assert float(g_cc(4.0, 2.0, 1.0, np.pi)) == pytest.approx(4.0 / np.pi**2, rel=1e-13)
    assert float(g_cc(4.0, 2.0, 1.0, np.pi)) == pytest.approx(0.405285, abs=1e-6)
    # even in nu
    rng = np.random.default_rng(33)
    nus = rng.uniform(0, 2 * np.pi, 50)
    assert np.allclose(g_cc(4.0, 2.0, 1.0, nus), g_cc(4.0, 2.0, 1.0, -nus), rtol=1e-14)
    # series/direct seam: no jump beyond the genuine O(nu dnu) variation
    seam = np.array([0.9999e-4, 1.0001e-4])
    v = g_cc(4.0, 3.0, 2.0, seam)
    assert abs(v[0] - v[1]) < 1e-10
    with pytest.raises(ValueError):
        g_cc(4.0, 2.0, 1.0, 7.0)


def test_cc_profile_consistency():
    # |Z_cc|^2 at Phi(a+ib, nu, r) equals g(nu), independent of a, b, r
    rng = np.random.default_rng(34)
    spec = ZFieldSpec(H1, cc(H1), 2.0, 1.0)
    for _ in range(40):
        phi = rng.uniform(0, 2 * np.pi)
        a, b = np.array([np.cos(phi)]), np.array([np.sin(phi)])
        nu = rng.uniform(-2 * np.pi + 0.1, 2 * np.pi - 0.1)
        r = rng.uniform(0.2, 5.0)
        x = cc_from_polar(CCPolar(a, b, nu, r))
        val = np.linalg.norm(z_at(spec, x)) ** 2
        assert abs(val - float(g_cc(4.0, 2.0, 1.0, nu))) < 1e-7


def _same_bits(got, ref):
    """Equal type, shape and bytes: -0.0 and 0.0 differ, equal NaNs agree."""
    return (type(got) is type(ref) and np.shape(got) == np.shape(ref)
            and np.asarray(got).tobytes() == np.asarray(ref).tobytes())


@pytest.mark.parametrize("Q", [2.5, 3.0, 4.0, 6.0, 10.0, 30.0])
def test_cc_profile_max_is_the_dense_scan_to_the_bit(Q):
    # the table-driven scan and the lean zoom against np.linspace and the
    # series at every node, across both sides of the closed regime
    from oracles import cc_profile_max_reference
    from carnot_hardy.zfield import cc_profile_max
    for p, theta in itertools.product((2.0, 2.5, 3.0, 7.0),
                                      (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0, 9.0, 40.0)):
        got = cc_profile_max(Q, p, theta)
        ref = cc_profile_max_reference(Q, p, theta)
        assert all(_same_bits(g, r) for g, r in zip(got, ref)), (Q, p, theta, got, ref)


def test_g_cc_is_its_reference_to_the_bit():
    from oracles import g_cc_reference
    rng = np.random.default_rng(35)
    tiny = np.array([0.0, -0.0, 1e-300, -3e-9, 5e-5, -9.99e-5, 1e-4, -1e-4, 1.0001e-4])
    inputs = [0.0, -0.0, 3e-5, 0.3, -2.0 * np.pi, np.float64(1e-6), np.float64(4.0),
              np.array(2e-5), np.array(-1.7), tiny,
              np.concatenate([tiny, rng.uniform(-2 * np.pi, 2 * np.pi, 64)]),
              rng.uniform(-2 * np.pi, 2 * np.pi, (5, 7)), np.linspace(-1e-3, 1e-3, 101)]
    for Q, p, theta in [(4.0, 2.0, 1.0), (3.0, 3.0, 5.0), (10.0, 2.5, -1.0)]:
        for nu in inputs:
            got, ref = g_cc(Q, p, theta, nu), g_cc_reference(Q, p, theta, nu)
            assert _same_bits(got, ref), (Q, p, theta, nu)


def test_cc_scan_table_is_read_only_and_has_no_series_node():
    from carnot_hardy.zfield import CC_SCAN_NODES, _cc_scan_table
    table = _cc_scan_table()
    assert table is _cc_scan_table()
    nus = table[0]
    assert nus.shape == (CC_SCAN_NODES,) and np.min(np.abs(nus)) >= 1e-4
    assert np.array_equal(nus, np.linspace(-2.0 * np.pi, 2.0 * np.pi, CC_SCAN_NODES))
    for arr in table:
        assert not arr.flags.writeable


def test_zoom_grid_is_linspace_to_the_bit():
    from carnot_hardy.zfield import ZOOM_POINTS, _zoom_grid
    rng = np.random.default_rng(36)
    a = rng.uniform(-10.0, 10.0, 200) * 10.0 ** rng.integers(-8, 8, 200)
    brackets = list(zip(a, a + rng.uniform(0.0, 1.0, 200) * 10.0 ** rng.integers(-12, 3, 200)))
    # a few ulps wide, denormal widths (a zero step), zero width
    brackets += [(x, np.nextafter(x, np.inf)) for x in (1.0, -3.5, 1e6, 0.0)]
    brackets += [(x, np.nextafter(np.nextafter(x, np.inf), np.inf)) for x in (0.7, -1e-3)]
    brackets += [(0.0, 5e-324), (-1e-310, 1e-310), (0.0, 0.0), (2.5, 2.5), (-0.0, 0.0)]
    for lo, hi in brackets:
        lo, hi = float(lo), float(hi)
        got = _zoom_grid(lo, hi)
        assert _same_bits(got, np.linspace(lo, hi, ZOOM_POINTS)), (lo, hi)
        # the zoom hands its later brackets over as NumPy scalars
        got = _zoom_grid(np.float64(lo), np.float64(hi))
        assert _same_bits(got, np.linspace(np.float64(lo), np.float64(hi), ZOOM_POINTS))


def test_importing_the_package_builds_no_cc_table():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import carnot_hardy, carnot_hardy.cli, carnot_hardy.verify\n"
            "from carnot_hardy import zfield\n"
            "assert zfield._cc_scan_table.cache_info().currsize == 0\n"
            "zfield.cc_profile_max(4.0, 2.0, 1.0)\n"
            "assert zfield._cc_scan_table.cache_info().currsize == 1\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_koranyi_b_profile():
    # |Z_{rho_B}|_B^2 on t = lam |z|_B^2 equals the same closed profile
    g = nonisotropic([1.0, 2.0])
    rb = koranyi_b(g)
    Q = float(g.Q)
    rng = np.random.default_rng(35)
    for p, theta in ((2.0, 1.0), (2.0, 6.0), (3.0, 1.0)):
        spec = ZFieldSpec(g, rb, p, theta)
        for _ in range(35):
            z = rng.normal(size=(1, 4))
            lam = rng.normal() * 2.0
            zb2 = float(symplectic_norm_sq_arrays(g, z)[0])
            t = np.array([[lam * zb2]])
            comp = z_field_components(spec, z, t)
            val = float(symplectic_norm_sq_arrays(g, comp)[0])
            prof = float(z_profile_koranyi(Q, p, theta, lam))
            assert abs(val - prof) < 1e-7 * max(1.0, prof)


def test_sup_z_norm_koranyi():
    sup = sup_z_norm(ZFieldSpec(H1, koranyi(H1), 2.0, 1.0))
    assert sup.method == "closed_form"
    assert sup.sup_sq == pytest.approx(4.0, abs=1e-9)
    assert sup.arg == 0.0
    sup6 = sup_z_norm(ZFieldSpec(H1, koranyi(H1), 2.0, 6.0))
    assert sup6.sup_sq == pytest.approx(192.0 / 27.0, rel=1e-12)


def test_sup_z_norm_cc():
    sup = sup_z_norm(ZFieldSpec(H1, cc(H1), 2.0, 1.0))
    assert sup.method == "scan_zoom"
    assert abs(sup.sup_sq - 4.0) < 1e-7
    assert abs(sup.arg) < 1e-3
    # outside the closed-branch condition the max moves off nu = 0
    sup_neg = sup_z_norm(ZFieldSpec(H1, cc(H1), 2.0, -3.0))
    assert sup_neg.sup_sq > 4.0
    assert abs(sup_neg.arg) > 0.1


def test_sup_z_norm_product_closed():
    gp = heisenberg_product(1, 2)
    spec = ZFieldSpec(gp, koranyi(gp), 2.0, 1.0)
    sup = sup_z_norm(spec)
    assert sup.method == "closed_form"
    assert sup.sup_value == pytest.approx(2.0)


def test_sup_z_norm_multistart_balogh_tyson():
    g = nonisotropic([0.5, 1.0])
    spec = ZFieldSpec(g, balogh_tyson(g), 2.0, 1.0)
    sup = sup_z_norm(spec)
    assert sup.method == "multistart"
    assert sup.samples > 10**5
    # a sampled lower bound dominates any sampled value, here at t = 0
    probe = Point([1.0, 0.0, 0.0, 0.0], 0.0)
    spot = np.linalg.norm(z_at(spec, probe))
    assert sup.sup_value >= spot - 1e-12


def test_product_field_reduces_to_single_on_one_factor():
    # on (H^1)^2 at (z_1, 0; t_1, 0) the product field is (Z_{H^1}(z_1, t_1), 0, 0)
    gp = heisenberg_product(1, 2)
    rng = np.random.default_rng(36)
    for theta in (1.0, 6.0):
        spec_p = ZFieldSpec(gp, koranyi(gp), 2.0, theta)
        spec_s = ZFieldSpec(H1, koranyi(H1), 2.0, theta)
        z1 = rng.normal(size=(10, 2))
        t1 = rng.normal(size=(10, 1))
        zp = np.concatenate([z1, np.zeros((10, 2))], axis=1)
        tp = np.concatenate([t1, np.zeros((10, 1))], axis=1)
        got = z_field_components(spec_p, zp, tp)
        assert np.allclose(got[:, :2], z_field_components(spec_s, z1, t1),
                           rtol=1e-13, atol=0.0)
        assert not np.any(got[:, 2:])


def test_z_field_norm_is_linalg_norm_to_the_bit():
    from carnot_hardy.zfield import z_field_norm
    rng = np.random.default_rng(37)
    gn, gp = nonisotropic([0.5, 1.0]), heisenberg_product(1, 3)
    for spec in (ZFieldSpec(H1, cc(H1), 2.0, 3.0), ZFieldSpec(gn, balogh_tyson(gn), 3.0, 1.0),
                 ZFieldSpec(gp, koranyi(gp), 2.0, 1.5)):
        z = rng.normal(size=(257, 2 * spec.group.n))
        t = rng.normal(size=(257, spec.group.h))
        ref = np.linalg.norm(z_field_components(spec, z, t), axis=-1)
        assert z_field_norm(spec, z, t).tobytes() == ref.tobytes()


def test_symplectic_norm():
    assert np.sqrt(symplectic_norm_sq_arrays(heisenberg(1), [0.6, 0.8])) == pytest.approx(1.0)
    g = nonisotropic([1.0, 2.0])
    z = np.array([[1.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]])
    assert np.sqrt(symplectic_norm_sq_arrays(g, z)) == pytest.approx([0.5, 1.5])


def test_spec_validation():
    with pytest.raises(ValueError):
        ZFieldSpec(H1, koranyi(H1), 1.5, 1.0)
    for p, theta in ((np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan), (2.0, -np.inf)):
        with pytest.raises(ValueError):
            ZFieldSpec(H1, koranyi(H1), p, theta)
    # several vertical directions take the product formula, that of
    # Heisenberg factors with coupling 4 on every block
    g = StepTwoGroup([[2.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ValueError):
        ZFieldSpec(g, koranyi(g), 2.0, 1.0)
    with pytest.raises(ValueError):
        z_field_components(ZFieldSpec(H1, koranyi(H1), 2.0, 1.0),
                           np.zeros((1, 2)), np.zeros((1, 1)))


@pytest.mark.parametrize("shape", ["smooth", "kinked"])
@pytest.mark.parametrize("a, lo, hi", [(0.3183098861837907, -1.0, 2.0),
                                       (-0.7071067811865476, -0.75, 0.5),
                                       (1.4142135623730951, 1.4, 1.5)])
def test_bracket_zoom_reaches_the_maximizer(shape, a, lo, hi):
    # exact arithmetic in f, so f has the same bits in a batch and alone
    f = {"smooth": lambda s: -(s - a) ** 2, "kinked": lambda s: -np.abs(s - a)}[shape]
    tol = 1e-10
    s, v = bracket_zoom_max(f, lo, hi, tol=tol)
    assert abs(s - a) <= tol
    assert v == f(np.array([s]))[0]


def test_bracket_zoom_keeps_an_endpoint_maximum():
    s, v = bracket_zoom_max(lambda s: -s, 0.25, 1.0, tol=1e-10)
    assert (s, v) == (0.25, -0.25)


def test_bracket_zoom_stops_below_the_ulp_of_its_bracket():
    # cells of 1e-12 are finer than the spacing of doubles near 1e6
    s, v = bracket_zoom_max(lambda s: -(s - 1e6) ** 2, 1e6 - 1.0, 1e6 + 1.0, tol=1e-12)
    assert abs(s - 1e6) <= 1e-9 and v == -(s - 1e6) ** 2


def test_coordinate_refinement_never_returns_less_than_its_start():
    from carnot_hardy.zfield import _coordinate_refine
    centre = np.array([0.2, -0.1, 0.4])

    def f(x):
        return -np.sum((x - centre) ** 2, axis=1)

    x0 = np.array([0.35, 0.05, 0.2])
    v0 = float(f(x0[None])[0])
    x, best = _coordinate_refine(f, x0, v0, width=0.3, sweeps=6)
    assert best >= v0
    assert best == f(x[None])[0]
    assert np.max(np.abs(x - centre)) <= 1e-10
    # a start value above anything f reaches is kept, and so is its point
    x, best = _coordinate_refine(f, x0, 1.0, width=0.3, sweeps=6)
    assert best == 1.0 and np.array_equal(x, x0)


def test_coordinate_refinement_zooms_coarse_to_fine():
    # each sweep but the last stops at the next sweep's grid: two zoom steps
    # per coordinate, from cells of w/16 to w/256, below 0.35 w/32
    from carnot_hardy.zfield import _coordinate_refine
    centre = np.array([0.2, -0.1, 0.4])
    moved = []

    def f(x):
        varies = np.flatnonzero(np.ptp(x, axis=0) > 0.0)
        assert varies.size == 1
        moved.append(int(varies[0]))
        return -np.sum((x - centre) ** 2, axis=1)

    x0 = np.array([0.35, 0.05, 0.2])
    sweeps = 6
    x, _ = _coordinate_refine(f, x0, -np.sum((x0 - centre) ** 2), width=0.3, sweeps=sweeps)
    # one run of zoom steps per coordinate and sweep
    runs = [len(list(steps)) for _, steps in itertools.groupby(moved)]
    assert len(runs) == sweeps * x0.size
    assert max(runs[:-x0.size]) <= 2
    assert np.max(np.abs(x - centre)) <= 1e-10


def test_multistart_refines_in_batches(monkeypatch):
    # the Sobol batch plus one call per zoom step, each with its 33 rows;
    # the one-row golden-section refinement took 808 calls here, and the
    # batched zoom to 1e-10 in every sweep 126
    from carnot_hardy import zfield
    calls, rows = [], []

    def counted(spec, z, t, d=None, g=None):
        calls.append(len(z))
        rows.append(np.min(np.sum(z * z, axis=-1)))
        return z_field_components(spec, z, t, d, g)

    monkeypatch.setattr(zfield, "z_field_components", counted)
    res = zfield.multistart_sup(ZFieldSpec(H1, koranyi(H1), 2.0, 6.0), m=10)
    assert len(calls) <= 60
    assert calls[0] == res.samples and set(calls[1:]) <= {zfield.ZOOM_POINTS}
    assert min(rows) >= 1e-10
    sup = np.sqrt(koranyi_profile_max(4.0, 2.0, 6.0)[0])
    assert abs(res.sup_value - sup) <= 1e-9 * sup


# ---------------------------------------------------------------------------
# the Sobol draw and the blocked scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 10, 17])
def test_sobol_points_match_scipy(m):
    # scipy's generator, from the same Joe-Kuo numbers, is the oracle
    from scipy.stats import qmc
    from carnot_hardy.zfield import SOBOL_MAX_DIM, _SCAN_BLOCK, sobol_points
    ref = qmc.Sobol(SOBOL_MAX_DIM, scramble=False).random_base2(m)
    for lo in range(0, 2**m, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, 2**m)
        assert np.array_equal(sobol_points(SOBOL_MAX_DIM, lo, hi), ref[lo:hi])
    lo, hi = 2**m // 3, 2**m - 2**m // 5
    assert np.array_equal(sobol_points(SOBOL_MAX_DIM, lo, hi), ref[lo:hi])
    for dim in (1, 3, 5, 6, 9):
        assert np.array_equal(sobol_points(dim, 0, 2**m),
                              qmc.Sobol(dim, scramble=False).random_base2(m))


def test_sobol_directions_are_built_per_dimension():
    from carnot_hardy.zfield import SOBOL_MAX_DIM, _sobol_directions
    full = _sobol_directions(SOBOL_MAX_DIM)
    for dim in range(1, SOBOL_MAX_DIM + 1):
        assert np.array_equal(_sobol_directions(dim), full[:, :dim])
    assert _sobol_directions(5) is _sobol_directions(5)


def test_sobol_draw_beyond_its_range_is_a_typed_error():
    from carnot_hardy.zfield import (SOBOL_BITS, SOBOL_MAX_DIM, ScanRangeError,
                                     scan_unit_sphere, sobol_points)
    with pytest.raises(ScanRangeError):
        sobol_points(SOBOL_MAX_DIM + 1, 0, 1)
    with pytest.raises(ScanRangeError):
        sobol_points(3, 0, 2**SOBOL_BITS + 1)
    with pytest.raises(ScanRangeError):
        sobol_points(3, 5, 5)
    with pytest.raises(ScanRangeError):
        scan_unit_sphere(lambda z, t: z[:, 0], koranyi(H1), SOBOL_BITS + 1)


def _one_batch_scan(objective, norm, m, width, sweeps):
    """The scan with all 2^m of scipy's Sobol points in one batch."""
    from scipy.stats import qmc
    from carnot_hardy.zfield import _coordinate_refine
    nz = 2 * norm.group.n

    def to_sphere(z, t):
        d = norm.value(z, t)
        return z / d[:, None], t / d[:, None] ** 2

    pts = 1.5 * (2.0 * qmc.Sobol(d=norm.group.dim, scramble=False).random_base2(m) - 1.0)
    z, t = pts[:, :nz], pts[:, nz:]
    keep = np.sum(z * z, axis=1) > 1e-6
    z, t = to_sphere(z[keep], t[keep])
    vals = objective(z, t)
    i = int(np.argmax(vals))

    def f(x):
        zz, tt = x[:, :nz], x[:, nz:]
        out = np.full(len(x), -np.inf)
        ok = np.sum(zz * zz, axis=1) >= 1e-10
        out[ok] = objective(zz[ok], tt[ok])
        return out

    x, best = _coordinate_refine(f, np.concatenate([z[i], t[i]]), float(vals[i]),
                                 width, sweeps)
    arg_z, arg_t = to_sphere(x[None, :nz], x[None, nz:])
    return best, (arg_z[0], arg_t[0]), vals


def _scan_cases():
    from carnot_hardy.verify.checks import _vertical_excess
    g = nonisotropic([0.5, 1.0])
    bt = ZFieldSpec(g, balogh_tyson(g), 2.0, 1.0)
    gp = heisenberg_product(1, 2)
    prod = ZFieldSpec(gp, koranyi(gp), 2.0, 6.0)
    return [(bt.norm, lambda z, t: _vertical_excess(bt, z, t), 0.2, 5),
            (prod.norm, lambda z, t: np.linalg.norm(z_field_components(prod, z, t), axis=-1),
             0.2, 6)]


@pytest.mark.parametrize("case", [0, 1], ids=["counterexample", "product"])
def test_blocked_scan_matches_one_batch(case):
    from carnot_hardy.zfield import _SCAN_BLOCK, scan_unit_sphere
    norm, objective, width, sweeps = _scan_cases()[case]
    m = 15                      # four blocks
    assert 2**m > _SCAN_BLOCK
    rows = []

    def recorded(z, t):
        rows.append(len(z))
        return objective(z, t)

    best, (arg_z, arg_t), vals = scan_unit_sphere(recorded, norm, m, width, sweeps)
    ref_best, (ref_z, ref_t), ref_vals = _one_batch_scan(objective, norm, m, width, sweeps)
    assert best == ref_best
    assert np.array_equal(arg_z, ref_z) and np.array_equal(arg_t, ref_t)
    assert np.array_equal(vals, ref_vals)
    assert max(rows) <= _SCAN_BLOCK and sum(rows[:4]) == vals.size


@pytest.mark.parametrize("marks", [
    {},                                             # every value tied
    {100: 2.0, 8197: 2.0, 24585: 2.0},              # first maximum in block 0
    {8197: 2.0, 24585: 2.0},                        # ... in block 1, tied in block 3
    {10: 5.0, 16385: np.nan, 24576: np.nan},        # a later NaN beats a larger value
    {0: np.nan, 9000: 7.0},                         # a NaN on the first row
], ids=["all tied", "tie block 0", "tie block 1", "nan", "nan first"])
def test_scan_starts_from_the_row_argmax_picks(marks, monkeypatch):
    from carnot_hardy import zfield
    values = np.ones(2**15)
    for k, v in marks.items():
        values[k] = v
    seen, start = [], {}

    def objective(z, t):
        k = sum(len(b) for b in seen)
        seen.append(np.concatenate([z, t], axis=1))
        return values[k:k + len(z)].copy()

    def refine(f, x0, value0, width, sweeps):
        start.update(x0=x0, value0=value0)
        return x0, value0

    monkeypatch.setattr(zfield, "_coordinate_refine", refine)
    _, _, vals = zfield.scan_unit_sphere(objective, koranyi(H1), 15)
    i = int(np.argmax(vals))
    assert np.array_equal(start["x0"], np.concatenate(seen)[i])
    assert np.array_equal([start["value0"]], [vals[i]], equal_nan=True)
