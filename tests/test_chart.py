"""The phi chart's tables: integrands evaluated on the distinct radii and
slopes of a chunk must give what the same evaluators give on its flat nodes."""

import numpy as np
import pytest

from carnot_hardy import ZFieldSpec, cc, heisenberg, koranyi
from carnot_hardy.verify import (BumpProfile, Nodes, QuadratureSpec, check_ibp_identity,
                                 euler_adjoint_defect, hardy_quotient, integrate_many,
                                 product_check, radial_bump, random_bump,
                                 sharpness_function, sharpness_sequence,
                                 weak_divergence_defect)
from carnot_hardy.verify import checks

H1 = heisenberg(1)
PROFILE = BumpProfile(0.3, 0.6, 1.3, 1.8)
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
        return np.zeros(nodes.z.shape[0])

    integrate_many(H1, [record], quad)
    return seen


def rel_gap(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_chunks_are_whole_sigma_slabs_with_tables():
    quad = QuadratureSpec(sigma_range=(0.3, 1.8), n_angle=4, psi_nodes=6, chunk=2000)
    records = chunks(quad)
    fine = [n for n in records if n.sigma.size <= 3]
    slab = 4 * fine[0].lam.size
    assert all(n.z.shape[0] == n.sigma.size * slab <= quad.chunk for n in fine)
    assert sum(n.sigma.size for n in fine) == quad.n_sigma
    for n in records:
        rho = koranyi(H1).value(n.z, n.t)
        assert rel_gap(n.spread(n.radii), rho) <= 1e-15
        slope = n.t[:, 0] / np.sum(n.z * n.z, axis=-1)
        assert np.max(np.abs(n.spread(n.lam) - slope) / np.abs(slope)) <= 1e-15
    # a slab larger than a chunk is cut into plain chunks
    plain = chunks(QuadratureSpec(sigma_range=(0.3, 1.8), n_angle=4, psi_nodes=6, chunk=100))
    assert all(n.sigma is None and n.z.shape[0] <= 100 for n in plain)


@pytest.mark.parametrize("chart", list(QUADS))
def test_chart_jets_match_coordinate_jets(chart):
    records = chunks(QUADS[chart])
    if chart == "graded psi":
        assert max(np.max(np.abs(n.lam)) for n in records) > 7e4
    bumps = [radial_bump(H1, PROFILE, modulation=a, modulation2=b)
             for a, b in ((0.0, 0.0), (0.3, 0.0), (-0.4, 0.25))]
    cutoff = sharpness_function(H1, 2.0, 1e-2, PROFILE)
    for nodes in records:
        plain = Nodes(nodes.z, nodes.t)
        for u in bumps + [cutoff]:
            for got, want in zip(u.jet(nodes), u.jet(plain)):
                assert rel_gap(got, want) <= 1e-13, u.params
            assert rel_gap(u.jet(nodes, derivs=False)[0], u.jet(plain)[0]) <= 1e-13
        for norm in (koranyi(H1), cc(H1)):
            for got, want in zip(norm.jet(nodes), norm.jet(plain)):
                assert rel_gap(got, want) <= 1e-13, norm.kind
            d, g = norm.jet(nodes, derivs=False)
            assert g is None and rel_gap(d, norm.value(nodes.z, nodes.t)) <= 1e-13


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
        mp.setattr(checks, "integrate_many", recording)
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
    # no chart tables on the Monte Carlo branch: the values computed before
    # the tensor-grid integrands moved onto them, bit for bit
    rep = product_check(1, 2, 2.0, 1.0, samples_log2=10, mc_samples=200_000, seed=11)
    assert rep.values["identity_lhs"] == -777.6926080047855
    assert rep.values["identity_rhs"] == -768.5298664532655
    # the standard error sums squares through BLAS, whose thread count may
    # move its last bits
    assert rep.diagnostics["mc_stderr"] == pytest.approx(10.598635319379762, rel=1e-12)
