"""Layered benchmark for ptg, measured end to end and per module from outside.

    python3 perfbench/run.py --workload blobs-default --seed 0 --seconds 30 --trace 0

A pass is one held-out domain of a training workload, or one round of the
verify checks; a cycle is one pass per held-out domain (four on moons-l1o,
one elsewhere).  --trace 0 runs as many cycles untraced as fill about
--seconds, a number fixed by the workload's nominal pass time so that a seed
always gives the same work, and reports the end-to-end metrics of
BENCHMARK.json; wall_s is the median pass.  --trace 1 runs one cycle
untraced and one with every function in tracer.TARGETS wrapped, and reports
the per-layer metrics: calls and self time per function, the closed-form
call-count check, and the tracing overhead.  --full runs the unnarrowed
config (for example the 33-run default benchmark) as a single pass.

Every run checks its outputs: the results fingerprint (the cycle's
results.csv without wall_ms) must repeat across cycles and between the
traced and untraced cycle, and must equal the pinned reference where
reference.json has one for the seed.  The last stdout line is the JSON
result; a full report, with the environment and every sample, goes to
perfbench/out/.  Exit code 1 means a
check failed, 2 that the package could not be found.
"""
from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 21


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "ptg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_rev": git_rev(),
        "src_sha256": src.hexdigest(),
    }


def timing(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (absent below twenty samples)."""
    out = {"median": statistics.median(samples), "n": len(samples), "samples": samples}
    pct = int(100 * (1 - 10 / len(samples)))
    if pct >= 50:
        out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


def setup_seconds(code: str) -> list[float]:
    """Fresh interpreter to ``import ptg`` done and the config loaded."""
    prog = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ptg; {code}"
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", prog], check=True, env=dict(os.environ))
        out.append(perf_counter() - t0)
    return out


def pinned_problems(reference: dict, workload: str, mode: str, seed: int, p) -> list[str]:
    ref = reference.get(workload, {}).get(mode, {}).get(str(seed), {})
    problems = []
    if "fingerprint" in ref and p.fingerprint != ref["fingerprint"]:
        problems.append(f"fingerprint {p.fingerprint} differs from pinned {ref['fingerprint']}")
    if "acc" in ref:
        got = {a: round(v, 4) for a, v in p.acc.items()}
        if got != ref["acc"]:
            problems.append(f"table {got} differs from the pinned table {ref['acc']}")
    return problems


def run_cycle(wl, args, scratch):
    return wl.cycle(args.seed, args.full, wl.run_passes(args.seed, args.full, scratch), scratch)


def untraced_run(wl, args, scratch, reference) -> tuple[dict, dict]:
    setup = setup_seconds(wl.setup_code)
    mode = "full" if args.full else "pass"
    # a fixed number of cycles per run, so a seed always gives the same work
    per_cycle = len(wl.slices(args.seed, args.full)) * wl.pass_s
    n_cycles = 1 if args.full else max(1, round(args.seconds / per_cycle))
    cycles = [run_cycle(wl, args, scratch) for _ in range(n_cycles)]
    passes = [p for c in cycles for p in c.passes]
    problems = [msg for c in cycles for msg in c.problems]
    if len({c.fingerprint for c in cycles}) != 1:
        problems.append(f"cycles disagree: {[c.fingerprint for c in cycles]}")
    problems += pinned_problems(reference, wl.name, mode, args.seed, cycles[0])
    walls = [p.wall_s for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "wall_s": timing(walls),
        "setup_s": timing(setup),
        "run_ms": {a: timing(xs) for a, xs in run_ms(passes).items()},
        "acc": cycles[0].acc,
        "grad_max_rel_err": cycles[0].grad_max_rel_err,
        "fingerprint": cycles[0].fingerprint,
        "attempted": sum(c.attempted for c in cycles),
        "failed": sum(c.failed for c in cycles),
        "problems": problems,
        "report": cycles[0].report,
    }
    return metrics, detail


def run_ms(passes) -> dict[str, list[int]]:
    """ResultRow.wall_ms of every training run, by algorithm."""
    pooled: dict[str, list[int]] = {}
    for p in passes:
        for r in p.rows:
            pooled.setdefault(r.algorithm, []).append(r.wall_ms)
    return pooled


def traced_run(wl, args, scratch, reference) -> tuple[dict, dict]:
    from tracer import TARGETS, Tracer
    from workloads import ALGORITHMS, LayerChecks

    mode = "full" if args.full else "pass"
    base = run_cycle(wl, args, scratch)
    checks = LayerChecks()
    tracer = Tracer(checks.hooks())
    with tracer:
        traced_passes = wl.run_passes(args.seed, args.full, scratch)
    traced = wl.cycle(args.seed, args.full, traced_passes, scratch)
    config = wl.make_config(args.seed, args.full) if wl.make_config else None
    checks.check_cycle(wl.name, config, traced, tracer.calls)

    problems = base.problems + traced.problems + checks.problems
    if traced.fingerprint != base.fingerprint:
        problems.append(f"traced fingerprint {traced.fingerprint} != untraced {base.fingerprint}")
    problems += pinned_problems(reference, wl.name, mode, args.seed, base)

    metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0)
        metrics[f"{name}.self_ms"] = 1000.0 * tracer.self_s.get(name, 0.0)
    rows = traced.attempted if wl.make_config else 0
    metrics["aggregate.kept_frac"] = checks.kept / checks.aggregated if checks.aggregated else 0.0
    metrics["harness.trains_per_row"] = (
        tracer.calls.get("training.train_algorithm", 0) / rows if rows else 0.0
    )
    base_wall = sum(p.wall_s for p in base.passes)
    traced_wall = sum(p.wall_s for p in traced.passes)
    metrics["trace.overhead_s"] = traced_wall - base_wall
    base_ms = run_ms(base.passes)
    for a in ALGORITHMS:
        xs = base_ms.get(a)
        metrics[f"run_ms.{a}"] = float(statistics.median(xs)) if xs else 0.0
        metrics[f"acc.{a}"] = base.acc.get(a, 0.0)
    metrics["failed_frac"] = base.failed / base.attempted
    metrics["grad_max_rel_err"] = base.grad_max_rel_err or 0.0
    detail = {
        "wall_s": {"untraced": base_wall, "traced": traced_wall},
        "fingerprint": base.fingerprint,
        "attempted": base.attempted + traced.attempted,
        "failed": base.failed + traced.failed,
        "problems": problems,
        "report": base.report,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true", help="run the whole config, not a pass")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "ptg" / "__init__.py").is_file():
        print(f"error: no ptg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        run = traced_run if args.trace else untraced_run
        metrics, detail = run(wl, args, Path(scratch), reference)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    report = {"workload": wl.name, "trace": args.trace, "full": args.full, "env": env,
              "result": result, "detail": detail}
    mode = "-full" if args.full else ""
    report_path = out_dir / f"{wl.name}{mode}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    print(detail["report"])
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
