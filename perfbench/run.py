"""Benchmark for carnot-hardy: one workload per invocation.

    python3 perfbench/run.py --workload ibp_koranyi --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, wall_s, peak_rss_mb, ref_rel_error); with
--trace 1 it holds the per-layer metrics of a traced run instead.  See
perfbench/README.md for what each workload and metric measures.
"""

from __future__ import annotations

import os

# one BLAS thread: the program's work is element-wise NumPy, and a pinned
# thread count keeps the timings steady; children inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_IMPORT = "import carnot_hardy, carnot_hardy.verify, carnot_hardy.cli"
MIN_PASSES = 3          # timed passes in an untraced run, whatever --seconds says
MIN_TRACED_PAIRS = 2    # untraced/traced pass pairs in a traced run


def measure_setup(importtime: bool):
    """One fresh interpreter importing the package: its wall time and, with
    importtime, the self time of scipy's and of the package's module bodies."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_IMPORT]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up import failed:\n{proc.stderr}")
    own = {"scipy": 0.0, "carnot_hardy": 0.0}
    for line in proc.stderr.splitlines() if importtime else ():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in own and self_us.strip().isdigit():
            own[top] += int(self_us) * 1e-6
    return wall, own["scipy"], own["carnot_hardy"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, str] = {}
        self.known: dict[str, str] = {}


def run_pass(workload, tally: Tally, tracer=None):
    for op in workload.ops:
        tally.attempted += 1
        try:
            if tracer is None:
                op.run()
            else:
                tracer.call("bench.op", op.run, (), {})
        except Exception as exc:  # every failure is counted and reported, none is fatal
            tally.failed += 1
            if op.known_fault:
                tally.known.setdefault(op.name, f"{op.known_fault} ({type(exc).__name__})")
            else:
                tally.unexpected.setdefault(op.name, f"{type(exc).__name__}: {exc}")


def timed_pass(workload, tally, tracer=None):
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        run_pass(workload, tally)
    else:
        with instrument(tracer):
            run_pass(workload, tally, tracer)
    return time.perf_counter() - t0


def layer_metrics(tr, wall: float) -> dict:
    """Per-layer figures of one traced pass: self times of the layers,
    inclusive times of the stages, and the counts taken at their boundaries."""
    s, inc, c = tr.self_s, tr.inclusive_s, tr.counts
    ss_points = c.get("smoothstep_points", 0)
    evals = c.get("integrand_evals", 0)
    attributed = sum(s.values())
    return {
        "testfuncs.smoothstep_s": (s.get("testfuncs.smoothstep", 0.0), "s"),
        "testfuncs.smoothstep_points": (ss_points, "count"),
        "testfuncs.smoothstep_interior_ratio": (
            c.get("smoothstep_interior", 0) / ss_points if ss_points else 0.0, "1"),
        "testfuncs.bump_s": (s.get("testfuncs.bump", 0.0), "s"),
        "testfuncs.bump_calls": (c.get("bump_calls", 0), "count"),
        "norms.value_s": (s.get("norms.value", 0.0), "s"),
        "norms.value_points": (c.get("value_points", 0), "count"),
        "norms.hgrad_s": (s.get("norms.hgrad", 0.0), "s"),
        "norms.hgrad_points": (c.get("hgrad_points", 0), "count"),
        "norms.value_points_per_node": (
            c.get("value_points", 0) / evals if evals else 0.0, "1"),
        "norms.mu_inverse_s": (s.get("norms.mu_inverse", 0.0), "s"),
        "norms.mu_inverse_points": (c.get("mu_inverse_points", 0), "count"),
        "zfield.components_s": (s.get("zfield.components", 0.0), "s"),
        "zfield.components_calls": (c.get("components_calls", 0), "count"),
        "zfield.components_points": (c.get("components_points", 0), "count"),
        "zfield.golden_s": (s.get("zfield.golden", 0.0), "s"),
        "zfield.golden_calls": (c.get("golden_calls", 0), "count"),
        "zfield.multistart_s": (inc.get("zfield.multistart", 0.0), "s"),
        "quadrature.nodes_s": (s.get("quadrature.nodes", 0.0), "s"),
        "quadrature.nodes": (c.get("nodes", 0), "count"),
        "quadrature.node_mb": (c.get("node_bytes", 0) / 1e6, "MB"),
        "quadrature.integrate_s": (inc.get("quadrature.integrate", 0.0), "s"),
        "quadrature.integrate_self_s": (s.get("quadrature.integrate", 0.0), "s"),
        "quadrature.integrand_evals": (evals, "count"),
        "checks.ibp_s": (inc.get("checks.ibp", 0.0), "s"),
        "checks.hardy_s": (inc.get("checks.hardy", 0.0), "s"),
        "checks.sharpness_s": (inc.get("checks.sharpness", 0.0), "s"),
        "checks.counterexample_s": (inc.get("checks.counterexample", 0.0), "s"),
        "checks.product_s": (inc.get("checks.product", 0.0), "s"),
        "cli.bounds_s": (inc.get("cli.bounds", 0.0), "s"),
        "bounds.sup_z_norm_s": (inc.get("bounds.sup_z_norm", 0.0), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.coverage": (attributed / wall, "1"),
        "trace.spans": (tr.span_count, "count"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import carnot_hardy
    if Path(carnot_hardy.__file__).resolve().parent != SRC / "carnot_hardy":
        print(f"error: carnot_hardy imported from {carnot_hardy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed)
    tally = Tally()

    timed_pass(workload, tally)                 # warm pass: caches and first outputs
    # each round is a timed pass (and a traced one) followed by one set-up
    # sample, so that set-up is sampled across the whole measuring window;
    # this process has imported the package, so the byte code is written
    start = time.perf_counter()
    plain, traced, tracers, setup = [], [], [], []
    while True:
        plain.append(timed_pass(workload, tally))
        if trace:
            tracers.append(Tracer())
            traced.append(timed_pass(workload, tally, tracers[-1]))
        setup.append(measure_setup(importtime=trace))
        done = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_PASSES
        round_s = (median(plain) + (median(traced) if trace else 0.0)
                   + median(s[0] for s in setup))
        if done and time.perf_counter() - start + round_s > seconds:
            break
    walls, scipy_s, package_s = zip(*setup)

    if trace:
        rows = [layer_metrics(tr, wall) for tr, wall in zip(tracers, traced)]
        metrics = {key: {"value": median([r[key][0] for r in rows])
                         if rows[0][key][1] in ("s", "1") else rows[-1][key][0],
                         "unit": unit}
                   for key, (_, unit) in rows[0].items()}
        metrics["trace.overhead_s"] = {"value": median(traced) - median(plain), "unit": "s"}
        metrics["setup.import_scipy_s"] = {"value": median(scipy_s), "unit": "s"}
        metrics["setup.import_package_s"] = {"value": median(package_s), "unit": "s"}
        path = OUT / f"trace-{name}-seed{seed}.npz"
        tracers[-1].save(path)
        print(f"{name}: spans of the last traced pass written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": median(walls), "unit": "s"},
            "wall_s": {"value": median(plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "ref_rel_error": {"value": workload.ref_rel_error(), "unit": "1"},
        }

    print(f"{name}: seed {seed}, untraced passes (s): "
          + " ".join(f"{t:.3f}" for t in plain))
    print(f"{name}: set-up interpreters (s): " + " ".join(f"{t:.3f}" for t in walls))
    if trace:
        print(f"{name}: traced passes (s): " + " ".join(f"{t:.3f}" for t in traced))
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    print(f"  operations attempted {tally.attempted}, failed {tally.failed}")
    for op, why in tally.known.items():
        print(f"  known fault: {op}: {why}")
    for op, why in tally.unexpected.items():
        print(f"  INCORRECT: {op}: {why}", file=sys.stderr)
    correct = not tally.unexpected
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("ibp_koranyi", "hardy_quotients", "sup_scans", "product_mc", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "carnot_hardy" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
