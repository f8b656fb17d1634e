"""Reference figures for the benchmark README; not metrics, nothing gates them.

    python3 benchmarks/figures.py

Times each path of the ROADMAP's baseline table (median of 3 runs, in this
process or in fresh `python -m bellpure` processes), then runs the
`breeding` workload's trials with DISTILL_THREADS=2 and checks that the
trial results equal the one-worker run. Prints a markdown table.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

from run import SRC, child_env

sys.path.insert(0, str(SRC))

from bellpure import bell, measures, protocols, twirl  # noqa: E402

REPEATS = 3


def median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli(*argv, threads: str | None = None):
    env = child_env()
    if threads is not None:
        env["DISTILL_THREADS"] = threads
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=True).stdout


def with_threads(value: str, fn):
    os.environ["DISTILL_THREADS"] = value
    try:
        return fn()
    finally:
        os.environ.pop("DISTILL_THREADS", None)


def main() -> None:
    os.environ.pop("DISTILL_THREADS", None)
    w95 = measures.werner(0.95)
    rho = bell.to_density(measures.werner(0.8))
    rows = [
        ("`breeding_mc` n=16", lambda: protocols.breeding_mc(w95, 16, seed=1)),
        ("`breeding_mc` n=20", lambda: protocols.breeding_mc(w95, 20, seed=1)),
        ("`breeding_trials` n=16 x500", lambda: protocols.breeding_trials(w95, 16, 500, seed=1)),
        ("`recurrence_mc` 1e6 pairs, 1 step", lambda: protocols.recurrence_mc(0.8, 10**6, 1, 1)),
        ("`recurrence_mc` 1e7 pairs, 5 steps", lambda: protocols.recurrence_mc(0.8, 10**7, 5, 1)),
        ("`variable_block_mc` 1e6", lambda: protocols.variable_block_mc(0.9, 10**6, 1)),
        ("`sampled_twirl` 1e5", lambda: twirl.sampled_twirl(rho, 10**5, 1)),
        ("`sampled_twirl` 1e6", lambda: twirl.sampled_twirl(rho, 10**6, 1)),
        ("CLI `curves`", lambda: cli("-m", "bellpure", "curves")),
        ("CLI `selftest`", lambda: cli("-m", "bellpure", "selftest")),
        ("`import bellpure.cli`", lambda: cli("-c", "import bellpure.cli")),
    ]
    print("| path | median of 3 |\n| --- | --- |")
    for name, fn in rows:
        print(f"| {name} | {median_time(fn):.3g} s |")

    breed = ("-m", "bellpure", "breed", "--werner", "0.95", "--pairs", "18", "--trials", "200")
    outs = {}
    for threads in ("1", "2"):
        t = median_time(lambda: outs.__setitem__(threads, cli(*breed, threads=threads)))
        print(f"| `breed --pairs 18 --trials 200`, `DISTILL_THREADS={threads}` | {t:.3g} s |")
    print(f"| same, outputs byte-identical | {outs['1'] == outs['2']} |")

    runs = ((20, 20), (12, 600))  # the breeding workload's trials per round
    results = {}
    for threads in ("1", "2"):
        def work():
            results[threads] = [protocols.breeding_trials(w95, n, k, seed=7) for n, k in runs]

        t = with_threads(threads, lambda: median_time(work))
        print(f"| `breeding` workload trials, `DISTILL_THREADS={threads}` | {t:.3g} s |")
    print(f"| same, trial results equal | {results['1'] == results['2']} |")


if __name__ == "__main__":
    main()
