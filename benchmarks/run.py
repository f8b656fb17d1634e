"""Benchmark of bellpure: four workloads, each in its own process.

    python3 benchmarks/run.py --workload exact --seed 1 --seconds 15 --trace 0

Runs whole rounds of the workload's operations for --seconds, checks every
output against the references in `reference.py`, prints a report and, as the
last line, one JSON object with `correct`, `attempted`, `failed` and the
metrics BENCHMARK.json names: the end-to-end ones with --trace 0, the
per-layer ones (from a separate traced run) with --trace 1. `--workload all`
runs the four workloads one after the other. The program is imported from
`src/` next to this directory; nothing is installed. A record of each run
goes to `benchmarks/out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("cli", "exact", "montecarlo", "breeding")
#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DISTILL_THREADS", None)  # the library default: one worker
    return env


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k, "unset") for k in
               ("DISTILL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        **threads,
    }


def setup_probe(name: str, ctx):
    """A function timing one fresh process that does the workload's set-up:
    the imports and the warm-up calls (for cli, `import bellpure.cli`).
    It returns the raw wall time and the time normalized like a round's."""
    from workloads import spawn_yardstick

    yardstick = spawn_yardstick(ctx)
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
            f"import workloads; workloads.warm_up({name!r})")

    def probe() -> tuple[float, float]:
        before = yardstick.time()
        t0 = time.perf_counter()
        # captured output makes run() wait on the pipes, which close when the
        # child exits; a bare timed wait() would poll in steps of up to 50 ms
        subprocess.run([ctx.python, "-c", code], env=ctx.env, check=True, timeout=150,
                       capture_output=True)
        wall = time.perf_counter() - t0
        return wall, wall * yardstick.ref_s / ((before + yardstick.time()) / 2)

    return probe


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seconds: float, probe):
    """Whole rounds for `seconds`, with the set-up probes spread between
    them so that they sample the host as the rounds do."""
    rounds, setups = [], []
    end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < end:
        if len(setups) < SETUP_PROBES:
            setups.append(probe())
        rounds.append(wl.run_round())
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    return rounds, setups


def measure_traced(wl, seconds: float, spans_path: Path):
    """Per-layer values of each traced round; the last round's spans are
    written to spans_path."""
    from tracing import Tracer

    tracer = Tracer()
    rounds, layers = [], []
    end = time.perf_counter() + seconds
    while not layers or time.perf_counter() < end:
        done, untraced_s, traced_s = wl.trace_round(tracer)
        rounds += done
        layer = tracer.reduce()
        layer["cli.self_s"] = layer["cli.main.self_s"]
        layer["trace.overhead_s"] = traced_s - untraced_s
        for cmd, wall in done[0].walls.items():
            layer[f"cli.{cmd}.wall_s"] = wall
        layers.append(layer)
        if time.perf_counter() >= end:
            tracer.save(spans_path)
        tracer.reset()
    return rounds, layers


def run_all(args) -> int:
    worst = 0
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellpure" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'bellpure'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("DISTILL_THREADS", None)
    sys.path.insert(0, str(SRC))
    import bellpure

    if not Path(bellpure.__file__).resolve().is_relative_to(SRC):
        print(f"error: bellpure imported from {bellpure.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from reference import CheckError

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    try:
        ctx = workloads.Context(sys.executable, child_env(), work)
        wl = workloads.WORKLOADS[args.workload](args.seed, ctx)
        correct = True
        values = {}
        try:
            if args.trace:
                wl.warm_up()
                spans = out_dir / f"{args.workload}-seed{args.seed}-spans.npz"
                rounds, layers = measure_traced(wl, args.seconds, spans)
                # median_low keeps a measured value, and counts whole
                values = {m["name"]: statistics.median_low(layer.get(m["name"], 0) for layer in layers)
                          for m in wanted}
                record["spans"] = spans.name
            else:
                wl.warm_up()
                rounds, setups = measure(wl, args.seconds, setup_probe(args.workload, ctx))
                values = {
                    "setup_s": statistics.median(norm for _, norm in setups),
                    "peak_rss_mb": peak_rss_mb(args.workload),
                    "round_s": statistics.median(r.norm_s for r in rounds),
                }
                figures = [wl.figure_values(r) for r in rounds]
                record["figures"] = {f: statistics.median(v[f] for v in figures) for f in wl.figures}
                record["figures"]["setup_wall_s"] = statistics.median(wall for wall, _ in setups)
                record["figures"]["round_wall_s"] = statistics.median(r.program_s for r in rounds)
                record["rounds"] = [{"wall_s": r.program_s, "norm_s": r.norm_s} for r in rounds]
                record["setups"] = setups
        except CheckError as exc:
            print(f"error: wrong output: {exc}", file=sys.stderr)
            correct, rounds = False, []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    record.update(correct=correct, attempted=attempted, failed=failed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}"
          f"  attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {}
    if correct:
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
        for name, value in record.get("figures", {}).items():
            print(f"  {name:<44} {value:.6g} {wl.figures.get(name, 's')}")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in record["environment"].items()))
    record["metrics"] = metrics
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
