"""The phi chart's tables: integrands evaluated on the distinct radii and
slopes of a chunk must give what the same evaluators give on its flat nodes."""

from dataclasses import replace

import numpy as np
import pytest

from carnot_hardy import ZFieldSpec, cc, heisenberg, koranyi, nonisotropic
from carnot_hardy.zfield import z_field_components
from carnot_hardy.verify import (BumpProfile, Nodes, QuadratureSpec, check_ibp_identity,
                                 hardy_quotient, integrate_many, product_check, radial_bump,
                                 random_bump, sharpness_function, sharpness_sequence)
from carnot_hardy.verify import checks, testfuncs
from carnot_hardy import norms
from carnot_hardy.verify import quadrature
from carnot_hardy.verify.quadrature import chart_tables, phi_polar_nodes
import oracles
from oracles import euler_adjoint_defect, weak_divergence_defect

H1 = heisenberg(1)
PROFILE = BumpProfile(0.3, 0.6, 1.3, 1.8)
PROFILE_SUPPORT = (PROFILE.r2, PROFILE.R2)
# the whole line in psi (its graded end panels reach |lam| ~ 7e4) and a
# one-sided log-lambda window as the cut-off family uses
QUADS = {
    "graded psi": QuadratureSpec(sigma_range=(0.3, 1.8), n_angle=4),
    "log lambda": QuadratureSpec(sigma_range=(0.3, 1.8), n_angle=4,
                                 lambda_range=(1e-3, 1e3)),
}


def chunks(quad):
    """The node records integrate_many hands to its integrands (fine and
    coarse grid)."""
    seen = []

    def record(nodes):
        seen.append(nodes)
        return np.zeros(nodes.z.shape[:-1])

    integrate_many(H1, [record], quad)
    return seen


def rel_gap(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def slabs(nodes) -> int:
    """The number of sigma slabs in a chart chunk: the length of its radius
    column."""
    return nodes.rho.shape[0]


def slopes(nodes) -> int:
    """The length of a chart chunk's slope tables."""
    return nodes.tables[0].size


def test_chunks_are_whole_sigma_slabs_with_tables():
    quad = QuadratureSpec(sigma_range=(0.3, 1.8), n_angle=4, psi_nodes=6, chunk=2000)
    records = chunks(quad)
    fine = [n for n in records if slabs(n) <= 3]
    slab = 4 * slopes(fine[0])
    assert all(n.z.shape[:-1] == (slabs(n), 4, slopes(n)) for n in fine)
    assert all(n.z[..., 0].size == slabs(n) * slab <= quad.chunk for n in fine)
    assert sum(slabs(n) for n in fine) == quad.n_sigma
    for n in records:
        assert n.rho.shape == (slabs(n), 1, 1)
        assert n.tables[0].shape == (slopes(n),)
        assert all(v.shape == (slopes(n), 1) for v in n.tables[1:])
        rho = koranyi(H1).value(n.z, n.t)
        gauge, *tables = n.invariants(slope=True)
        assert gauge is n.rho
        assert rel_gap(np.broadcast_to(n.gauge(), rho.shape), rho) <= 1e-15
        # the tables are the invariants the nodes' own coordinates give: the
        # slope exactly as the nodes carry it, |z|^2/rho^2 and t/rho^2 (closed
        # formulas in the slope) to rounding
        zn2 = np.sum(n.z * n.z, axis=-1)
        slope = n.t[..., 0] / zn2
        for table, point, bound in zip(tables, (zn2 / rho**2, n.t[..., 0] / rho**2, slope),
                                       (2e-15, 2e-15, 1e-15)):
            table = np.broadcast_to(table.reshape(slopes(n)), point.shape)
            assert np.max(np.abs(table - point) / np.abs(point)) <= bound
    # a slab larger than a chunk is a chunk of its own, with its tables
    small = QuadratureSpec(sigma_range=(0.3, 1.8), n_angle=4, psi_nodes=6, chunk=100)
    fine = chunks(small)[:small.n_sigma]
    assert all(slabs(n) == 1 and n.z[..., 0].size == slab > small.chunk for n in fine)
    assert [n.rho[0, 0, 0] for n in fine] == list(chart_tables(small).sigma)


def test_chart_nodes_are_read_only_tensors_kept_within_their_budget():
    quad = QuadratureSpec(sigma_range=(0.3, 1.8), n_angle=4, psi_nodes=6)
    z, t, w = phi_polar_nodes(H1, quad)
    tab = chart_tables(quad)
    shape = (tab.sigma.size, tab.cos.size, tab.lam.size)
    assert z.shape == shape + (2,) and t.shape == shape + (1,) and w.shape == shape
    assert not (z.flags.writeable or t.flags.writeable or w.flags.writeable)
    # t is constant along the circle: a view of one (sigma, lam) table
    assert t.strides[1] == 0
    assert np.array_equal(t[:, 0, :, 0], tab.lam * tab.sigma[:, None] ** 2
                          * (1.0 / np.sqrt(1.0 + tab.lam**2)))
    # built once per resolution: the fine and the coarse grid are kept
    assert phi_polar_nodes(H1, quad)[0] is z
    assert phi_polar_nodes(H1, quad, coarse=True)[0] is phi_polar_nodes(H1, quad, True)[0]
    # the most recently used grids stay within the budget, the oldest go first
    for lo in np.linspace(0.05, 0.25, 40):
        phi_polar_nodes(H1, replace(quad, sigma_range=(lo, 1.8)))
    held = sum(z.nbytes + w.nbytes for z, _, w in quadrature._NODE_CACHE.values())
    assert 0 < held <= quadrature.NODE_CACHE_BYTES
    assert phi_polar_nodes(H1, quad)[0] is not z
    # a grid larger than the budget is built on every call, and not kept
    big = replace(quad, n_sigma=400, n_angle=16, psi_nodes=12)
    assert phi_polar_nodes(H1, big)[0] is not phi_polar_nodes(H1, big)[0]
    assert quadrature._chart_key(big, False) not in quadrature._NODE_CACHE


def test_integrands_may_return_tables_of_the_chart():
    # a (sigma, lam) table and its spread onto the nodes integrate to the same
    # bits, alone and in a stack
    u = _seeded_bump()
    quad = QuadratureSpec(sigma_range=PROFILE_SUPPORT, n_angle=4, psi_nodes=6, chunk=3000)

    def table(nodes):
        return u.jet(nodes, derivs=False)[0]

    def spread(nodes):
        return np.broadcast_to(table(nodes), nodes.z.shape[:-1]).copy()

    def stack(nodes):
        return np.stack(np.broadcast_arrays(table(nodes), nodes.gauge()))

    assert table(chunks(quad)[0]).shape[1] == 1
    got = integrate_many(H1, [table, stack], quad)
    want = integrate_many(H1, [spread, stack], quad)
    for a, b in zip(got, want):
        assert a.value == b.value and a.error == b.error and a.n_evals == b.n_evals
    (radius,) = integrate_many(H1, [lambda n: np.broadcast_to(n.gauge(), n.z.shape[:-1])],
                               quad)
    assert got[2].value == radius.value


def test_cc_chart_inverts_each_slope_table_once():
    quad = QuadratureSpec(sigma_range=(0.3, 1.8), n_angle=4, psi_nodes=6, chunk=2000)
    records = chunks(quad)
    model = cc(H1)
    norms._cc_slope_table.cache_clear()
    want = [model.jet(n) for n in records]
    # the fine and the coarse grid have one slope table each
    assert norms._cc_slope_table.cache_info().misses == 2
    # keyed by the table's contents: a copy is the same table
    for n, (d, g) in zip(records, want):
        again = n._replace(tables=tuple(np.array(v) for v in n.tables))
        d2, g2 = model.jet(again)
        assert np.array_equal(d2, d) and np.array_equal(g2, g)
    assert norms._cc_slope_table.cache_info().misses == 2
    lam = records[0].tables[2]
    nu, inv_sinc, cot = norms._cc_slope_table(lam.tobytes())
    assert not nu.flags.writeable
    assert all(np.array_equal(a, b) for a, b in
               zip((nu, inv_sinc, cot), norms._cc_slope(lam[:, 0])))


# each chart on H^1, and on the one-block group of coupling 2, on which the
# frame coefficients carry the factor L/4 = 1/2 (the cc distance is H^n's alone)
CHART_CASES = {**{chart: (chart, H1) for chart in QUADS},
               **{f"{chart} noniso(2)": (chart, nonisotropic([2.0])) for chart in QUADS}}


@pytest.mark.parametrize("chart, group", list(CHART_CASES.values()), ids=list(CHART_CASES))
def test_chart_jets_match_coordinate_jets(chart, group):
    records = chunks(QUADS[chart])
    if chart == "graded psi":
        assert max(np.max(np.abs(n.tables[2])) for n in records) > 7e4
    bumps = [radial_bump(group, PROFILE, modulation=a, modulation2=b)
             for a, b in ((0.0, 0.0), (0.3, 0.0), (-0.4, 0.25))]
    cutoff = sharpness_function(group, 2.0, 1e-2, PROFILE)
    norms_here = [koranyi(group)] + ([cc(group)] if group.is_isotropic_heisenberg() else [])
    for nodes in records:
        plain = Nodes(nodes.z, nodes.t)
        for u in bumps + [cutoff]:
            for got, want in zip(u.jet(nodes), u.jet(plain)):
                assert rel_gap(got, want) <= 1e-13, u.params
            assert rel_gap(u.jet(nodes, derivs=False)[0], u.jet(plain)[0]) <= 1e-13
        for norm in norms_here:
            for got, want in zip(norm.jet(nodes), norm.jet(plain)):
                assert rel_gap(got, want) <= 1e-13, norm.kind
            d, g = norm.jet(nodes, derivs=False)
            assert g is None and rel_gap(d, norm.value(nodes.z, nodes.t)) <= 1e-13
            # the gauge gradient and Z_d are homogeneous of degree zero: on
            # the unit slice, broadcast over sigma, they are the nodes' own
            spec = ZFieldSpec(group, norm, 3.0, 1.0)
            shape = nodes.z.shape
            d1, g1 = norm.jet(nodes.unit)
            assert rel_gap(np.broadcast_to(g1, shape), norm.jet(plain)[1]) <= 1e-13
            zc = z_field_components(spec, nodes.unit.z, nodes.unit.t, d1, g1)
            assert rel_gap(np.broadcast_to(zc, shape),
                           z_field_components(spec, nodes.z, nodes.t)) <= 1e-13
            d_check, zc_check = checks._gauge_and_field(spec, nodes)
            assert _same_bits(d_check, d) and _same_bits(zc_check, zc), norm.kind
            assert _same_bits(d_check, norm.jet(nodes)[0]), norm.kind


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_unit_slice_is_the_chart_at_radius_one():
    for quad in QUADS.values():
        records = chunks(quad)
        for coarse in (False, True):
            tab = chart_tables(quad, coarse)
            unit = next(n for n in records if slopes(n) == tab.lam.size).unit
            assert unit.z.shape == (1, tab.cos.size, tab.lam.size, 2)
            assert unit.t.shape == (1, tab.cos.size, tab.lam.size, 1)
            assert unit.rho.tolist() == [[[1.0]]] and unit.unit is None
            assert unit.tables[2].base is tab.lam
            rz = (1.0 + tab.lam**2) ** -0.25
            assert rel_gap(unit.z[0, ..., 0], tab.cos[:, None] * rz) <= 1e-15
            assert rel_gap(unit.z[0, ..., 1], tab.sin[:, None] * rz) <= 1e-15
            assert rel_gap(unit.t[0, 0, :, 0], tab.lam / np.sqrt(1.0 + tab.lam**2)) <= 1e-15
            for arr in (unit.z, unit.t, unit.rho, *unit.tables):
                assert not arr.flags.writeable
        # one slice per angle and slope rule, whatever the sigma window
        wider = chunks(replace(quad, sigma_range=(0.1, 3.0), n_sigma=40))
        assert {id(n.unit) for n in wider} == {id(n.unit) for n in records}
        assert len({id(n.unit) for n in records}) == 2
    # built once per (n_angle, lam_rule)
    quadrature._unit_slice.cache_clear()
    quad = QUADS["graded psi"]
    for lo in (0.1, 0.2, 0.3):
        chunks(replace(quad, sigma_range=(lo, 1.8)))
    info = quadrature._unit_slice.cache_info()
    assert info.misses == 2 and info.currsize == 2


@pytest.mark.parametrize("norm", [koranyi(H1), cc(H1)], ids=lambda n: n.kind)
def test_checks_build_z_d_once_per_slope_table(norm):
    spec = ZFieldSpec(H1, norm, 3.0, 1.0)
    u = _seeded_bump()
    hand_built = testfuncs.TestFunction("full-circle bump", {}, u.value, u.hgrad, u.euler,
                                        u.jet, support=u.support)
    quad = QuadratureSpec(sigma_range=u.support, n_angle=8, psi_nodes=6)
    real = checks.z_field_components
    rows = []

    def recording(spec, z, t, d=None, g=None):
        rows.append(np.shape(z)[:-1])
        return real(spec, z, t, d, g)

    runs = [lambda: check_ibp_identity(spec, u, quad),
            lambda: check_ibp_identity(spec, hand_built, quad),
            lambda: hardy_quotient(spec, u, quad),
            lambda: hardy_quotient(spec, hand_built, quad)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "z_field_components", recording)
        for run in runs:
            run()
    # one call per grid (the fine one and its coarse companion are one chunk
    # each), on the unit slice of one circle node (declared
    # rotation-invariant) or of the full circle: n_angle x n_lam rows per
    # call, never k x n_angle x n_lam
    slices = {(1, a, chart_tables(replace(quad, n_angle=a), coarse).lam.size)
              for a, coarse in ((1, False), (1, True), (8, False), (4, True))}
    assert len(rows) == 2 * len(runs) and set(rows) == slices


def integrals(run, withhold: bool) -> np.ndarray:
    """Every integral a check computes, with its chart tables or without."""
    seen = []
    real = checks.integrate_many

    def recording(group, fs, quad):
        if withhold:
            fs = [lambda n, f=f: f(Nodes(n.z, n.t)) for f in fs]
        out = real(group, fs, quad)
        seen.extend(r.value for r in out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        for module in (checks, oracles):
            mp.setattr(module, "integrate_many", recording)
        run()
    return np.array(seen)


def _small(u):
    return QuadratureSpec(sigma_range=u.support, n_angle=4, psi_nodes=6)


def _checks():
    u = radial_bump(H1, PROFILE, modulation=0.3, modulation2=0.2)
    rng = np.random.default_rng(5)
    v, w = random_bump(H1, rng), random_bump(H1, rng)
    cases = {}
    for norm in (koranyi(H1), cc(H1)):
        spec = ZFieldSpec(H1, norm, 3.0, 1.0)
        cases[f"ibp {norm.kind}"] = lambda spec=spec: check_ibp_identity(spec, u, _small(u))
        for projected in (True, False):
            cases[f"quotient {norm.kind} projected={projected}"] = (
                lambda spec=spec, pr=projected: hardy_quotient(spec, u, _small(u), pr))
        cases[f"sharpness {norm.kind}"] = lambda spec=spec: sharpness_sequence(
            spec, [1e-2, 1e-3], QuadratureSpec(n_sigma=32, n_angle=4, log_nodes=8))
    spec = ZFieldSpec(H1, cc(H1), 2.0, 1.0)
    cases["quotient cc default grid"] = lambda: hardy_quotient(spec, u)
    cases["euler adjoint"] = lambda: euler_adjoint_defect(
        H1, v, w, QuadratureSpec(sigma_range=(min(v.support[0], w.support[0]),
                                              max(v.support[1], w.support[1])),
                                 n_angle=4, psi_nodes=6))
    for which in ("i", "ii"):
        cases[f"weak divergence {which}"] = lambda which=which: weak_divergence_defect(
            koranyi(H1), 2.0, u, which, _small(u))
    return cases


@pytest.mark.parametrize("name", list(_checks()))
def test_integrals_with_and_without_chart_tables(name):
    run = _checks()[name]
    with_tables = integrals(run, withhold=False)
    without = integrals(run, withhold=True)
    assert with_tables.size >= 2
    assert np.all(np.abs(with_tables - without) <= 1e-13 * np.abs(without)), name


def test_product_monte_carlo_is_unchanged():
    # no chart tables on the Monte Carlo branch: its sums are pinned bit for
    # bit
    rep = product_check(1, 2, 2.0, 1.0, samples_log2=10, mc_samples=200_000, seed=11)
    assert rep.values["identity_lhs"] == -792.2280007286432
    assert rep.values["identity_rhs"] == -787.8029823692283
    # its sums of squares are NumPy pairwise sums too, whatever the BLAS
    # thread count
    assert rep.diagnostics["mc_stderr"] == 9.686867994679307


# ---------------------------------------------------------------------------
# rotation-invariant integrands on one circle node
# ---------------------------------------------------------------------------

def _seeded_bump():
    rng = np.random.default_rng(23)
    return radial_bump(H1, PROFILE, modulation=rng.uniform(-0.5, 0.5),
                       modulation2=rng.uniform(-0.3, 0.3))


INVARIANT_QUADS = {
    "bump": QuadratureSpec(sigma_range=PROFILE_SUPPORT, n_angle=16, psi_nodes=6),
    "cut-off": QuadratureSpec(sigma_range=PROFILE_SUPPORT, n_angle=16, log_nodes=8,
                              lambda_range=(1e-2, 1e2)),
}


def _invariant_integrands(norm):
    """Every integrand the three one-node checks build, by name, with the grid
    it lives on."""
    spec = ZFieldSpec(H1, norm, 3.0, 1.0)
    u = _seeded_bump()
    cutoff = sharpness_function(H1, spec.p, 1e-2, PROFILE)
    return {"ibp": (checks._ibp_integrands(spec, u), "bump"),
            "projected quotient": (checks._quotient_integrands(spec, u, True), "bump"),
            "full quotient": (checks._quotient_integrands(spec, u, False), "bump"),
            "sharpness": (checks._quotient_integrands(spec, cutoff, True), "cut-off")}


@pytest.mark.parametrize("norm", [koranyi(H1), cc(H1)], ids=lambda n: n.kind)
def test_check_integrands_are_rotation_invariant(norm):
    for name, (f, grid) in _invariant_integrands(norm).items():
        quad = INVARIANT_QUADS[grid]
        nodes = chunks(quad)[0]
        k, n_lam = slabs(nodes), slopes(nodes)
        assert nodes.z.shape[:-1] == (k, 16, n_lam)
        rows = np.asarray(f(nodes))
        for row in rows.reshape(len(rows), k, 16, n_lam):
            assert np.max(np.abs(row)) > 0.0, name
            spread = np.max(np.abs(row - row[:, :1, :]))
            assert spread <= 1e-13 * np.max(np.abs(row)), (name, spread)


def _runs(norm):
    spec = ZFieldSpec(H1, norm, 3.0, 1.0)
    u = _seeded_bump()
    quad = INVARIANT_QUADS["bump"]
    return {"ibp": lambda: check_ibp_identity(spec, u, quad),
            "projected quotient": lambda: hardy_quotient(spec, u, quad, True),
            "full quotient": lambda: hardy_quotient(spec, u, quad, False),
            "sharpness": lambda: sharpness_sequence(
                spec, [1e-2, 1e-3], QuadratureSpec(n_sigma=32, n_angle=16, log_nodes=8))}


@pytest.mark.parametrize("norm", [koranyi(H1), cc(H1)], ids=lambda n: n.kind)
def test_checks_integrate_invariant_integrands_on_one_circle_node(norm):
    real = checks.integrate_many
    for name, run in _runs(norm).items():
        pairs = []

        def recording(group, fs, quad):
            out = real(group, fs, quad)
            pairs.append((quad.n_angle, out, real(group, fs, replace(quad, n_angle=16))))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "integrate_many", recording)
            run()
        assert pairs, name
        for n_angle, one, full in pairs:
            assert n_angle == 1, name
            for a, b in zip(one, full):
                assert a.n_evals * 16 == b.n_evals, name
                assert abs(a.value - b.value) <= 1e-13 * abs(b.value), name
                # the coarse grid has one node too: the grid error is unchanged
                assert abs(a.error - b.error) <= 1e-13 * abs(b.value), name


def test_integrate_keeps_the_full_circle():
    # z_1^2 averages to |z|^2 / 2 over the circle; one node at angle 0 would
    # give the whole of it
    u = _seeded_bump()
    quad = QuadratureSpec(sigma_range=PROFILE_SUPPORT)

    def weighted(nodes, i):
        z2 = nodes.z[..., i] ** 2 if i is not None else np.sum(nodes.z**2, axis=-1)
        return u.jet(nodes, derivs=False)[0] * z2

    first, whole = (r.value for r in integrate_many(
        H1, [lambda n: weighted(n, 0), lambda n: weighted(n, None)], quad))
    assert abs(first - whole / 2) <= 1e-12 * whole
    one = replace(quad, n_angle=1)
    (on_node,) = integrate_many(H1, [lambda n: weighted(n, 0)], one)
    assert on_node.value == pytest.approx(whole, rel=1e-12)


def test_undeclared_test_functions_keep_the_full_circle():
    u = _seeded_bump()
    seen = []

    def jet(nodes, derivs=True):
        seen.append(nodes.z[..., 0].size // (slabs(nodes) * slopes(nodes)))
        return u.jet(nodes, derivs)

    hand_built = testfuncs.TestFunction("recorded bump", {}, u.value, u.hgrad, u.euler, jet,
                              support=u.support)
    assert not hand_built.rotation_invariant and u.rotation_invariant
    spec = ZFieldSpec(H1, koranyi(H1), 3.0, 1.0)
    quad = QuadratureSpec(sigma_range=u.support, n_angle=16, psi_nodes=6)
    full = check_ibp_identity(spec, hand_built, quad)
    # the fine grid and its coarse companion
    assert seen[0] == quad.n_angle and set(seen) == {16, 8}
    n_lam = chart_tables(quad).lam.size
    assert full.diagnostics["n_evals"] == quad.n_sigma * 16 * n_lam
    seen.clear()
    one = check_ibp_identity(spec, replace(hand_built, rotation_invariant=True), quad)
    assert set(seen) == {1}
    assert one.diagnostics["n_evals"] == quad.n_sigma * n_lam
    for key in ("I1", "I2", "I3"):
        assert one.values[key] == pytest.approx(full.values[key], rel=1e-13)
