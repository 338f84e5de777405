"""The four workloads.

Each workload draws its inputs from the benchmark seed when it is built and
computes the closed references for them (refs.py) before anything is timed.
A pass runs a fixed list of operations; every operation builds its program
objects inside the pass, calls the program through module attributes (so
that a traced pass sees its own wrappers) and checks what comes back.  An
operation fails by raising; the runner counts it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import refs
from carnot_hardy import cli, groups, norms, zfield
from carnot_hardy.verify import checks, testfuncs
from carnot_hardy.verify.quadrature import QuadratureSpec
from carnot_hardy.verify.testfuncs import BumpProfile
from carnot_hardy.zfield import ZFieldSpec

H1 = groups.heisenberg(1)

# a tensor-grid integral must match its closed reference to this relative
# gap; today's worst over many seeded bumps is about 1.4e-6, and the checks'
# own tolerance is 2e-3
REF_TOL = 1e-4
# a Monte Carlo integral must match its closed reference within this many
# of its own standard errors
MC_SIGMAS = 5.0
# the fixed bump that ref_rel_error is taken on, and its modulation
PANEL_RADII = (0.3, 0.6, 1.3, 1.8)
PANEL_MODULATION = (0.3, 0.2)


class CheckFailed(AssertionError):
    """An output of the program does not meet its reference or property."""


def expect(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def rel_gap(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def h1_quad(support) -> QuadratureSpec:
    """The phi-chart grid at the program's radial resolution.

    Every integrand of these workloads is invariant under rotations of the
    horizontal plane and smooth in the vertical angle, so four circle nodes
    and six nodes per vertical panel give the same integrals as the default
    16 and 12 at a sixth of the cost (measured on 120 seeded mass integrals:
    equal to 1e-15 relative).
    """
    return QuadratureSpec(sigma_range=support, n_angle=4, psi_nodes=6)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], None]
    known_fault: str = ""


class Workload:
    """Inputs, references and the operation list of one workload."""

    name = ""
    index = 0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, self.index])
        self.cli_seed = int(self.rng.integers(0, 2**31 - 1))
        self.gaps: dict[str, float] = {}
        self._cli_first: dict[tuple, str] = {}
        self.ops: list[Op] = []

    def ref_rel_error(self) -> float:
        return max(self.gaps.values())

    def cli(self, *argv: str):
        """Run a CLI command in-process; its output must repeat byte for byte."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        first = self._cli_first.setdefault(argv, text)
        expect(text == first, f"`{' '.join(argv)}` output differs from its first run")
        return code, text

    def cli_json(self, *argv: str) -> dict:
        code, text = self.cli(*argv)
        expect(code in (0, 1), f"`{' '.join(argv)}` exited with {code}")
        return json.loads(text)


def _draw_bump(rng, modulated2: bool):
    """Annulus radii and vertical modulation, as in the acceptance suite."""
    if modulated2:      # criterion 05: two modulation terms
        r2 = rng.uniform(0.2, 0.4)
        r1 = r2 + rng.uniform(0.2, 0.4)
        R1 = r1 + rng.uniform(0.4, 0.9)
        R2 = R1 + rng.uniform(0.3, 0.8)
        return (r2, r1, R1, R2), rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)
    r2 = rng.uniform(0.2, 0.5)   # criterion 06: random_bump's distribution
    r1 = r2 + rng.uniform(0.2, 0.5)
    R1 = r1 + rng.uniform(0.3, 1.0)
    R2 = R1 + rng.uniform(0.3, 1.0)
    return (r2, r1, R1, R2), rng.uniform(-0.5, 0.5), 0.0


def _bump(radii, a=0.0, b=0.0):
    return testfuncs.radial_bump(H1, BumpProfile(*radii), modulation=a, modulation2=b)


# ---------------------------------------------------------------------------

class IbpKoranyi(Workload):
    """Criterion 05 (three-way integration by parts) and criterion 07."""

    name = "ibp_koranyi"
    index = 0
    CONFIGS = [(p, th) for p in (2.0, 3.0) for th in (0.0, 1.0, 2.0)]
    PANEL_CONFIGS = [(2.0, 1.0), (3.0, 2.0)]

    def __init__(self, seed: int):
        super().__init__(seed)
        radii, a, b = _draw_bump(self.rng, modulated2=True)
        for p, th in self.CONFIGS:
            mass = refs.h1_mass(radii, a, b, p, th)
            self.ops.append(Op(f"ibp seeded bump p={p:g} theta={th:g}",
                               partial(self.ibp, radii, a, b, p, th, mass, None)))
        for p, th in self.PANEL_CONFIGS:
            mass = refs.h1_mass(PANEL_RADII, *PANEL_MODULATION, p, th)
            key = f"panel p={p:g} theta={th:g}"
            self.ops.append(Op(f"ibp {key}", partial(self.ibp, PANEL_RADII,
                                                     *PANEL_MODULATION, p, th, mass, key)))
        s = str(self.cli_seed)
        self.ops.append(Op("cli verify identity", partial(
            self.cli_identity, "verify", "identity", "--norm", "koranyi", "--p", "2",
            "--theta", "1", "--nodes", "40", "--seed", s)))
        self.ops.append(Op("cli verify sharpness", partial(
            self.cli_sharpness, "verify", "sharpness", "--eps", "1e-2,1e-3,1e-4",
            "--nodes", "16", "--seed", s)))

    @staticmethod
    def _agree(I1, I2, I3, mass, Q, p, th, tol):
        """The three integrals agree as the identity requires."""
        pt = p * th
        expect(rel_gap(I3, -(Q - pt) / p * mass) <= 1e-12 if pt != Q else I3 == 0.0,
               "I3 is not -((Q - p theta)/p) times the mass")
        if abs(Q - pt) > 1e-12:
            defect = max(abs(I1 - I3), abs(I2 - I3), abs(I1 - I2)) / abs(I3)
        else:
            defect = max(abs(I1), abs(I2)) / max(1.0, mass)
        expect(defect <= tol, f"I1, I2, I3 differ by {defect:.3e} > {tol:g}")

    def ibp(self, radii, a, b, p, th, mass_ref, panel_key):
        u = _bump(radii, a, b)
        spec = ZFieldSpec(H1, norms.koranyi(H1), p, th)
        rep = checks.check_ibp_identity(spec, u, h1_quad(u.support))
        expect(rep.passed, f"ibp_identity reports failure: {rep.values}")
        v = rep.values
        mass = rep.diagnostics["mass"]
        self._agree(v["I1"], v["I2"], v["I3"], mass, 4.0, p, th, rep.tol)
        gap = rel_gap(mass, mass_ref)
        expect(gap <= REF_TOL, f"mass {mass!r} vs closed {mass_ref!r}: gap {gap:.3e}")
        if panel_key:
            self.gaps[panel_key] = gap

    def cli_identity(self, *argv):
        res = self.cli_json(*argv)["results"][0]
        expect(res["passed"], f"verify identity reports failure: {res['values']}")
        v = res["values"]
        self._agree(v["I1"], v["I2"], v["I3"], res["diagnostics"]["mass"], 4.0,
                    v["p"], v["theta"], res["tol"])

    def cli_sharpness(self, *argv):
        res = self.cli_json(*argv)["results"][0]
        expect(res["passed"], f"verify sharpness reports failure: {res['values']}")
        quotients = [q for _, q in res["values"]["quotients"]]
        denominators = res["values"]["denominators"]
        target = refs.hardy_target(4.0, 2.0, 1.0)
        expect(all(q >= target - 1e-9 for q in quotients),
               f"sharpness quotient below {target}: {quotients}")
        expect(all(b < a for a, b in zip(quotients, quotients[1:])),
               f"sharpness quotients do not decrease: {quotients}")
        expect(all(b > a for a, b in zip(denominators, denominators[1:])),
               f"sharpness denominators do not grow: {denominators}")


# ---------------------------------------------------------------------------

class HardyQuotients(Workload):
    """Criterion 06: projected and full Hardy quotients, Koranyi and cc."""

    name = "hardy_quotients"
    index = 1
    BUMPS = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        target = refs.hardy_target(4.0, 2.0, 1.0)
        bound = refs.koranyi_bound(4.0, 2.0, 1.0)
        for i in range(self.BUMPS):
            radii, a, _ = _draw_bump(self.rng, modulated2=False)
            for kind in ("koranyi", "cc"):
                self.ops.append(Op(f"quotients seeded bump {i} {kind}", partial(
                    self.quotients, radii, a, kind, target, bound)))
        seeded_radii, _, _ = _draw_bump(self.rng, modulated2=False)
        for key, radii in (("panel", PANEL_RADII), (None, seeded_radii)):
            mass = refs.h1_mass(radii, 0.0, 0.0, 2.0, 1.0)
            full = refs.h1_full_numerator(radii, 2.0, 1.0) / mass
            proj = refs.h1_projected_numerator(radii, 2.0, 1.0) / mass
            self.ops.append(Op(f"radial bump quotients {key or 'seeded'}", partial(
                self.radial, radii, full, proj, key)))
        self.ops.append(Op("cc gauge near the pole", self.cc_pole, known_fault=(
            "cc gauge at z = (1e-7, 0), t = 1 raises ConvergenceError: Newton's "
            "method is ill-conditioned at the pole nu -> 2 pi")))
        self.ops.append(Op("cli verify hardy", partial(
            self.cli_hardy, "verify", "hardy", "--norm", "cc", "--bumps", "1",
            "--nodes", "24", "--seed", str(self.cli_seed))))

    @staticmethod
    def _quotient(kind, u, projected):
        spec = ZFieldSpec(H1, norms.make_norm(kind, H1), 2.0, 1.0)
        return checks.hardy_quotient(spec, u, h1_quad(u.support), projected=projected)

    def quotients(self, radii, a, kind, target, bound):
        u = _bump(radii, a)
        proj = self._quotient(kind, u, True)
        full = self._quotient(kind, u, False)
        expect(proj >= target - 1e-3, f"projected quotient {proj!r} < {target} - 1e-3")
        expect(full >= bound - 1e-3, f"full quotient {full!r} < {bound} - 1e-3")

    def radial(self, radii, full_ref, proj_ref, panel_key):
        u = _bump(radii)
        gaps = [rel_gap(self._quotient("koranyi", u, True), proj_ref),
                rel_gap(self._quotient("koranyi", u, False), full_ref)]
        expect(max(gaps) <= REF_TOL, f"radial quotients vs closed: gaps {gaps}")
        if panel_key:
            self.gaps[panel_key] = max(gaps)

    def cc_pole(self):
        d = float(norms.cc(H1).value(np.array([[1e-7, 0.0]]), np.array([[1.0]]))[0])
        expect(abs(d - math.sqrt(math.pi)) <= 1e-6, f"cc(1e-7, 0, 1) = {d!r}")

    def cli_hardy(self, *argv):
        res = self.cli_json(*argv)["results"][0]
        v = res["values"]
        expect(res["passed"] and v["worst_quotient"] >= v["target"] - 1e-3,
               f"verify hardy: {v}")
        expect(v["target"] == refs.hardy_target(4.0, 2.0, 1.0), f"target {v['target']}")


# ---------------------------------------------------------------------------

class SupScans(Workload):
    """The bounds tables, the counterexample scan and the sampled suprema."""

    name = "sup_scans"
    index = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        # the program's Sobol draw ignores its seed, so the seed picks the
        # scanned configurations instead
        p_grid = float(rng.choice([2.0, 2.5, 3.0]))
        n_grid = int(rng.choice([1, 2]))
        theta_second = float(rng.choice([5.0, 7.0, 8.0]))
        lambdas = [(1.0, 3.0), (2.0, 3.0), (1.0, 4.0)][int(rng.integers(3))]
        theta_bt = float(rng.choice([0.5, 1.0, 2.0]))
        ms_configs = [(float(rng.choice([2.0, 3.0])), float(rng.choice([0.5, 1.0, 1.5]))),
                      (2.0, float(rng.choice([5.0, 6.0, 7.0])))]
        prod_config = (float(rng.choice([2.0, 3.0])), float(rng.choice([0.5, 1.0, 2.0])))
        fmt = "{:g}".format
        bounds = ("bounds", "--group")
        add = self.ops.append
        add(Op("bounds heisenberg readme", partial(
            self.heisenberg, *bounds, "heisenberg", "--n", "1", "--norm", "all",
            "--p", "2", "--theta", "1")))
        add(Op("bounds heisenberg theta grid", partial(
            self.heisenberg, *bounds, "heisenberg", "--n", str(n_grid), "--norm", "all",
            "--p", fmt(p_grid))))
        add(Op("bounds heisenberg second branch", partial(
            self.heisenberg, *bounds, "heisenberg", "--n", "1", "--norm", "koranyi",
            "--p", "2", "--theta", f"6,{fmt(theta_second)}")))
        for lam in ((1.0, 2.0), lambdas):
            add(Op(f"bounds nonisotropic {lam}", partial(
                self.koranyi_b, lam, *bounds, "nonisotropic", "--lambdas",
                ",".join(map(fmt, lam)), "--norm", "koranyi_b", "--p", "2", "--theta", "1")))
        product = (*bounds, "product", "--n", "1", "--N", "2", "--p", "2", "--theta", "1")
        add(Op("bounds product", partial(self.product_values, *product)))
        add(Op("bounds product norm label", partial(self.product_label, *product),
               known_fault=("bounds --group product labels its rows norm "
                            "'koranyi_b'; the Koranyi gauge is the one used")))
        add(Op("bounds balogh_tyson multistart", partial(
            self.generic, *bounds, "nonisotropic", "--lambdas", "0.5,1", "--norm",
            "balogh_tyson", "--p", "2", "--theta", fmt(theta_bt))))
        add(Op("bounds balogh_tyson on heisenberg", partial(
            self.clean_error, *bounds, "heisenberg", "--norm", "balogh_tyson"),
            known_fault=("bounds --group heisenberg --norm balogh_tyson ends in a "
                         "ValueError traceback instead of a usage error, exit code 2")))
        add(Op("cli verify counterexample", partial(
            self.counterexample, "verify", "counterexample", "--samples-log2", "12",
            "--seed", str(self.cli_seed))))
        for p, th in ms_configs:
            add(Op(f"koranyi multistart p={p:g} theta={th:g}", partial(self.multistart, p, th)))
        add(Op("product scan (H^1)^3", partial(self.product_scan, *prod_config)))
        add(Op("supz koranyi profile", partial(
            self.supz_koranyi, "supz", "--norm", "koranyi", "--Q", "4", "--p", "2",
            "--theta", "6")))
        add(Op("supz cc profile readme", partial(
            self.supz_cc, "supz", "--norm", "cc", "--Q", "4", "--p", "2", "--theta", "1",
            "--format", "csv")))

    def _sup_gap(self, key, got, ref):
        gap = rel_gap(got, ref)
        self.gaps[key] = max(self.gaps.get(key, 0.0), gap)
        return gap

    def heisenberg(self, *argv):
        rows = self.cli_json(*argv)["results"]
        expect(rows, "no rows")
        for row in rows:
            Q, p, th = row["Q"], row["p"], row["theta"]
            if row["norm"] == "koranyi":
                sup, bound = refs.koranyi_sup(Q, p, th), refs.koranyi_bound(Q, p, th)
            else:
                expect(row["norm"] == "cc", f"unexpected norm {row['norm']}")
                sup, bound = refs.cc_sup(Q, p, th), refs.cc_bound(Q, p, th)
            gap = self._sup_gap("bounds sup", row["sup_value"], sup)
            expect(gap <= 1e-8, f"{row['norm']} sup {row['sup_value']!r} vs {sup!r}")
            expect(abs(row["bound"] - bound) <= 1e-9 * max(1.0, bound),
                   f"{row['norm']} p={p} theta={th}: bound {row['bound']!r} vs {bound!r}")
            if (Q, p, th) == (4.0, 2.0, 1.0):
                expect(row["bound"] == 0.25 and abs(row["sup_value"] - 2.0) <= 1e-9,
                       f"H^1 p=2 theta=1 row: {row}")
            if (Q, p, th, row["norm"]) == (4.0, 2.0, 6.0, "koranyi"):
                expect(abs(row["bound"] - 2.25) <= 1e-12, f"second branch row: {row}")

    def koranyi_b(self, lam, *argv):
        (row,) = self.cli_json(*argv)["results"]
        bound = refs.koranyi_b_bound(lam, 2.0, 1.0)
        expect(abs(row["bound"] - bound) <= 1e-12, f"koranyi_b bound {row['bound']!r}")
        if lam == (1.0, 2.0):
            expect(abs(row["bound"] - 4.0 / 9.0) <= 1e-12, f"4/9 row: {row}")
        sup = 2.0 / math.sqrt(min(lam)) * refs.koranyi_sup(row["Q"], 2.0, 1.0)
        expect(self._sup_gap("bounds sup", row["sup_value"], sup) <= 1e-12,
               f"koranyi_b sup {row['sup_value']!r} vs {sup!r}")

    def product_values(self, *argv):
        (row,) = self.cli_json(*argv)["results"]
        expect(abs(row["bound"] - refs.product_bound(1, 2, 2.0, 1.0)) <= 1e-12
               and abs(row["bound"] - 2.25) <= 1e-12, f"product bound {row['bound']!r}")
        expect(self._sup_gap("bounds sup", row["sup_value"], 2.0) <= 1e-12,
               f"product sup {row['sup_value']!r}")

    def product_label(self, *argv):
        (row,) = self.cli_json(*argv)["results"]
        expect(row["norm"] == "koranyi", f"product row labelled {row['norm']!r}")

    def generic(self, *argv):
        (row,) = self.cli_json(*argv)["results"]
        sup = row["sup_value"]
        expect(row["sup_method"] == "multistart" and 0.0 < sup < math.inf, f"row {row}")
        bound = refs.hardy_target(row["Q"], row["p"], row["theta"]) / sup ** row["p"]
        expect(rel_gap(row["bound"], bound) <= 1e-12, f"generic bound {row['bound']!r}")

    def clean_error(self, *argv):
        code, _ = self.cli(*argv)
        expect(code == 2, f"`{' '.join(argv)}` exited with {code}, not a usage error")

    def counterexample(self, *argv):
        scan, control = self.cli_json(*argv)["results"]
        expect(scan["passed"] and scan["values"]["max_excess"] > 1e-6,
               f"non-isotropic excess {scan['values']['max_excess']!r}")
        expect(control["passed"] and control["values"]["max_excess"] <= 1e-6,
               f"isotropic control excess {control['values']['max_excess']!r}")

    def multistart(self, p, th):
        spec = ZFieldSpec(H1, norms.koranyi(H1), p, th)
        res = zfield.multistart_sup(spec, m=10)
        sup = refs.koranyi_sup(4.0, p, th)
        expect(res.sup_value <= sup * (1.0 + 1e-12),
               f"sampled sup {res.sup_value!r} exceeds closed {sup!r}")
        expect(self._sup_gap("multistart", res.sup_value, sup) <= 1e-9,
               f"sampled sup {res.sup_value!r} vs closed {sup!r}")

    def product_scan(self, p, th):
        rep = checks.product_check(1, 3, p, th, samples_log2=10, seed=self.cli_seed)
        v = rep.values
        expect(rep.passed and v["hypothesis_holds"], f"product scan: {v}")
        expect(self._sup_gap("product scan", v["sampled_sup"], 2.0) <= 1e-9
               and v["sampled_sup"] <= 2.0 + 1e-9, f"(H^1)^3 sup {v['sampled_sup']!r}")
        expect(v["argmax_t_norm"] <= 1e-4, f"argmax off t = 0: {v['argmax_t_norm']!r}")

    def supz_koranyi(self, *argv):
        (res,) = self.cli_json(*argv)["results"]
        sup_sq = refs.koranyi_sup(4.0, 2.0, 6.0) ** 2
        expect(abs(sup_sq - 192.0 / 27.0) <= 1e-12, "closed profile maximum")
        expect(abs(res["sup"]["sup_sq"] - sup_sq) <= 1e-12 * sup_sq,
               f"profile sup {res['sup']['sup_sq']!r} vs {sup_sq!r}")
        # the tabulated maximum is the profile on a grid, never above its sup
        expect(res["max"] <= sup_sq * (1.0 + 1e-12), "tabulated max above the sup")
        expect(self._sup_gap("profile table", res["max"], sup_sq) <= 1e-5,
               f"tabulated max {res['max']!r} vs {sup_sq!r}")

    def supz_cc(self, *argv):
        code, text = self.cli(*argv)
        expect(code == 0, f"supz exited with {code}")
        header = dict(kv.split("=") for kv in text.splitlines()[0][2:].split())
        expect(abs(float(header["sup_sq"]) - refs.cc_sup(4.0, 2.0, 1.0) ** 2) <= 1e-7,
               f"cc profile header {header}")


# ---------------------------------------------------------------------------

class ProductMC(Workload):
    """Criterion 10: the (H^1)^2 scan and the seeded Monte Carlo identity."""

    name = "product_mc"
    index = 3
    MC_SAMPLES = 300_000
    CLI_SAMPLES = 100_000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.mc_seed = int(self.rng.integers(0, 2**31 - 1))
        bump = BumpProfile()     # product_check integrates the default radial bump
        lhs = refs.product_identity_lhs((bump.r2, bump.r1, bump.R1, bump.R2), 2.0, 1.0)
        self.ops.append(Op("product scan and identity", partial(self.check, lhs)))
        self.ops.append(Op("cli verify product", partial(
            self.cli_product, lhs, "verify", "product", "--n", "1", "--N", "2",
            "--samples", str(self.CLI_SAMPLES), "--seed", str(self.cli_seed))))

    @staticmethod
    def _identity(values, sigma, ref):
        for side in ("identity_lhs", "identity_rhs"):
            expect(abs(values[side] - ref) <= MC_SIGMAS * sigma,
                   f"{side} {values[side]!r} vs closed {ref!r}, stderr {sigma!r}")

    def check(self, ref):
        rep = checks.product_check(1, 2, 2.0, 1.0, samples_log2=10, seed=self.mc_seed,
                                   mc_samples=self.MC_SAMPLES)
        v = rep.values
        expect(v["hypothesis_holds"] and v["sampled_sup"] <= 2.0 + 1e-9
               and rel_gap(v["sampled_sup"], 2.0) <= 1e-9, f"(H^1)^2 sup {v}")
        expect(v["argmax_t_norm"] <= 1e-4, f"argmax off t = 0: {v['argmax_t_norm']!r}")
        sigma = rep.diagnostics["mc_stderr"]
        self._identity(v, sigma, ref)
        # the gap itself is a draw of this size, so its expected size is reported
        self.gaps["mc stderr"] = sigma / abs(ref)

    def cli_product(self, ref, *argv):
        res = self.cli_json(*argv)["results"][0]
        self._identity(res["values"], res["diagnostics"]["mc_stderr"], ref)


WORKLOADS = {cls.name: cls for cls in (IbpKoranyi, HardyQuotients, SupScans, ProductMC)}
