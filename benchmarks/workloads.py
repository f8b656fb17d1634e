"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed once, then runs
whole rounds of the same operations. A round times only the calls into the
program (for `cli`, the whole child process) and checks every output against
`reference` outside the timed region. An operation that raises, crashes or
exits with the wrong code counts as failed; an output that disagrees with
its reference raises CheckError.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from bellpure import bell, cli, measures, protocols, qstate, twirl
from reference import close, expect

#: Sampling checks allow this many standard errors: a false alarm is a
#: ~1e-9 event per check, so no seed trips one.
SIGMAS = 6.0


@dataclass
class Context:
    """Where the benchmark runs the program: the environment and working
    directory of child processes."""

    python: str
    env: dict
    work: Path


def big_array_work() -> None:
    """Fixed in-process work that touches no bellpure code: interpreter-bound
    Python, a memory-bound sort and small-matrix products, in about the mix
    of `montecarlo` and `breeding`."""
    table, acc = {}, 0
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    a = np.random.default_rng(0).random(300_000)
    a.sort()
    np.searchsorted(a, a[::5])
    m = np.eye(4, dtype=complex)
    for _ in range(1500):
        m = m @ m


def small_array_work() -> None:
    """Like big_array_work, with many calls on 4-element and 4x4 arrays in
    place of the sort, in about the mix of `exact`."""
    table, acc = {}, 0
    for i in range(30_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    a = np.eye(4, dtype=complex)
    for i in range(800):
        v = np.array([0.1, 0.2, 0.3, 0.4]) * (1 + i % 3)
        v = np.clip(v / v.sum(), 0.0, 1.0)
        a[i % 4, (i >> 2) % 4] = v.max() + abs(a[1, 2])
        a = (a + a.conj().T) / 2.0
    m = np.eye(4, dtype=complex)
    for _ in range(800):
        m = m @ m


@dataclass(frozen=True)
class Yardstick:
    """Fixed work timed next to the program, to factor out the host's
    speed. `ref_s` is its time at the reference speed (this 2-core host,
    quiet); normalized times are seconds at that speed."""

    work: Callable[[], object]
    ref_s: float

    def time(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


#: For work inside the workload process.
BIG_ARRAYS = Yardstick(big_array_work, 0.022)
SMALL_ARRAYS = Yardstick(small_array_work, 0.02)


def spawn_yardstick(ctx: Context) -> Yardstick:
    """For work in child processes: an interpreter that imports numpy, the
    bulk of a bellpure process's start."""
    argv = [ctx.python, "-c", "import numpy"]
    return Yardstick(lambda: subprocess.run(argv, env=ctx.env, capture_output=True,
                                            check=True, timeout=150), 0.2)


@dataclass
class Round:
    """One round's tallies. `program_s` is the time spent in the program.
    `norm_s` is the same time with each stretch between two measurements of
    the yardstick divided by the mean of their times and multiplied by its
    `ref_s`, so that a slower or faster host cancels out. A round calibrates
    before each group of operations and once after the last."""

    yardstick: Yardstick = BIG_ARRAYS
    program_s: float = 0.0
    norm_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    work: dict = field(default_factory=dict)  # figure -> [units, seconds]
    walls: dict = field(default_factory=dict)  # cli command -> wall seconds
    cal_s: float = math.nan
    pending_s: float = 0.0

    def calibrate(self) -> None:
        cal = self.yardstick.time()
        if self.pending_s:
            self.norm_s += self.pending_s * self.yardstick.ref_s / ((self.cal_s + cal) / 2)
        self.cal_s, self.pending_s = cal, 0.0

    def add_time(self, seconds: float) -> None:
        self.program_s += seconds
        self.pending_s += seconds

    def call(self, figure: str, units: float, fn, *args, **kwargs):
        """Time one program call; None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - t0
        self.add_time(dt)
        acc = self.work.setdefault(figure, [0.0, 0.0])
        acc[0] += units
        acc[1] += dt
        return out


class Workload:
    name = ""
    yardstick = BIG_ARRAYS
    #: Figures the workload prints by name, with their units.
    figures: dict[str, str] = {}

    @staticmethod
    def warm_up() -> None:
        """First calls of every operation, so that rounds time steady state."""

    def run_round(self) -> Round:
        raise NotImplementedError

    def trace_round(self, tracer) -> tuple[list[Round], float, float]:
        """One untraced and one traced round: (rounds, untraced_s, traced_s)."""
        plain = self.run_round()
        with tracer.installed():
            traced = self.run_round()
        return [plain, traced], plain.program_s, traced.program_s

    def figure_values(self, rnd: Round) -> dict[str, float]:
        return {name: units / secs for name, (units, secs) in rnd.work.items()}


# --- exact ----------------------------------------------------------------


class Exact(Workload):
    """Two-pair steps by label enumeration and by density-matrix replay,
    4x4 state evaluations, and closed-form curve points."""

    name = "exact"
    yardstick = SMALL_ARRAYS
    figures = {
        "exact_steps_per_s": "steps/s",
        "state_evals_per_s": "states/s",
        "curve_points_per_s": "points/s",
    }
    N_WERNER_SAME, N_WERNER_PAIRS, N_ARBITRARY = 60, 60, 180
    N_STATES = 150
    N_POINTS = 5000

    def __init__(self, seed: int, ctx: Context):
        rng = np.random.default_rng([seed, 1])
        self.pairs = []
        for f in rng.uniform(0.5, 1.0, self.N_WERNER_SAME):
            w = measures.werner(float(f))
            self.pairs.append((w, w, float(f)))
        for f1, f2 in rng.uniform(0.5, 1.0, (self.N_WERNER_PAIRS, 2)):
            self.pairs.append((measures.werner(float(f1)), measures.werner(float(f2)), None))
        for p1, p2 in rng.dirichlet(np.ones(4), (self.N_ARBITRARY, 2)):
            self.pairs.append((bell.BellDiagonal(p1), bell.BellDiagonal(p2), None))
        self.states = [ref.random_state(rng, 1 + i % 4) for i in range(self.N_STATES)]
        offset = 0.05 + 0.9 * rng.random()
        self.points = [0.5 + 0.5 * (i + offset) / self.N_POINTS for i in range(self.N_POINTS)]

    @staticmethod
    def warm_up() -> None:
        w = measures.werner(0.8)
        _step(w, w)
        _state_eval(bell.to_density(w).mat)
        _curve_point(0.8)

    def run_round(self) -> Round:
        rnd = Round(self.yardstick)
        rnd.calibrate()
        steps = [rnd.call("exact_steps_per_s", 1, _step, m1, m2) for m1, m2, _ in self.pairs]
        rnd.calibrate()
        states = [rnd.call("state_evals_per_s", 1, _state_eval, rho) for rho in self.states]
        rnd.calibrate()
        points = [rnd.call("curve_points_per_s", 1, _curve_point, f) for f in self.points]
        rnd.calibrate()
        for (m1, m2, same_f), out in zip(self.pairs, steps):
            if out is not None:
                _check_step(m1, m2, same_f, *out)
        for rho, out in zip(self.states, states):
            if out is not None:
                _check_state(rho, *out)
        for f, out in zip(self.points, points):
            if out is not None:
                _check_point(f, *out)
        return rnd


def _step(m1, m2):
    return protocols.recurrence_step_exact(m1, m2), protocols.density_matrix_oracle_step(m1, m2)


def _check_step(m1, m2, same_f, label, oracle) -> None:
    close(label.p_success, oracle.p_success, 1e-10, "label vs density-matrix p_success")
    expect(np.abs(label.post_state.p - oracle.post_state.p).max() <= 1e-10,
           "label vs density-matrix post state")
    post, keep = ref.step_bits(m1.p, m2.p)
    close(label.p_success, keep, 1e-12, "p_success vs the two-bit reference")
    for got, want in zip(label.post_state.p, post):
        close(got, want, 1e-12, "post state vs the two-bit reference")
    if same_f is not None:
        f, p = ref.werner_map(Fraction(same_f))
        close(label.post_state.fidelity, f, 1e-12, "Werner step vs the paper's map")
        close(label.p_success, p, 1e-12, "Werner p_success vs the paper's map")


def _state_eval(rho):
    d = qstate.DensityMatrix(rho)
    w = twirl.exact_twirl(d)
    return (d, qstate.eig_hermitian(d), qstate.von_neumann_entropy(d), w,
            twirl.trace_distance(d, bell.to_density(w)))


def _check_state(rho, d, eigs, entropy, w, dist) -> None:
    expect(np.abs(d.mat - rho).max() <= 1e-12, "DensityMatrix altered the state")
    expect(np.abs(eigs - ref.spectrum(rho)).max() <= 1e-10, "eig_hermitian vs eigvalsh")
    close(entropy, ref.entropy(rho), 1e-10, "von Neumann entropy")
    f = ref.singlet_fidelity(rho)
    close(w.fidelity, f, 1e-12, "exact twirl fidelity")
    close(dist, ref.trace_distance(rho, ref.werner_matrix(f)), 1e-10, "trace distance")


def _curve_point(f: float):
    return measures.d0(f), measures.dr_curve(f), measures.e_formation_werner(f)


def _check_point(f: float, d0, dr, e) -> None:
    want_d0, want_e = ref.curve_point(f)
    close(d0, want_d0, 1e-12, f"D0 at F={f!r}")
    close(e, want_e, 1e-12, f"E at F={f!r}")
    expect(e + 1e-12 >= dr >= max(0.0, d0) - 1e-12, f"E >= DR >= max(0, D0) fails at F={f!r}")


# --- montecarlo -----------------------------------------------------------


class MonteCarlo(Workload):
    """Recurrence and blocked recurrence on label ensembles, and the sampled
    rotation average of a non-Werner state."""

    name = "montecarlo"
    figures = {
        "recurrence_mc_pairs_per_s": "pairs/s",
        "block_mc_pairs_per_s": "pairs/s",
        "twirl_rotations_per_s": "rotations/s",
    }
    REC_PAIRS, REC_STEPS = 10_000_000, 4
    BLOCK_PAIRS = 1_000_000
    #: One fidelity range per block size k = 2, 3, 4, away from the edges
    #: where round(1/sqrt(1-F)) changes.
    BLOCK_RANGES = ((0.70, 0.80), (0.86, 0.90), (0.925, 0.945))
    ROTATIONS = 1_000_000

    def __init__(self, seed: int, ctx: Context):
        rng = np.random.default_rng([seed, 2])
        seeds = [int(s) for s in rng.integers(0, 2**63, 5)]
        self.rec = (float(rng.uniform(0.7, 0.85)), seeds[0])
        self.blocks = [(float(rng.uniform(lo, hi)), s) for (lo, hi), s in zip(self.BLOCK_RANGES, seeds[1:4])]
        self.rho = ref.random_state(rng, 4)
        self.state = qstate.DensityMatrix(self.rho)
        self.twirl_seed = seeds[4]

    @staticmethod
    def warm_up() -> None:
        protocols.recurrence_mc(0.8, 1000, 2, 0)
        protocols.variable_block_mc(0.9, 1000, 0)
        twirl.sampled_twirl(bell.to_density(measures.werner(0.8)), 100, 0)

    def run_round(self) -> Round:
        rnd = Round(self.yardstick)
        f0, seed = self.rec
        rnd.calibrate()
        rec = rnd.call("recurrence_mc_pairs_per_s", 0, protocols.recurrence_mc,
                       f0, self.REC_PAIRS, self.REC_STEPS, seed)
        if rec is not None:
            rnd.work["recurrence_mc_pairs_per_s"][0] += sum(st.n_input for st in rec.steps)
        rnd.calibrate()
        blocks = [rnd.call("block_mc_pairs_per_s", self.BLOCK_PAIRS, protocols.variable_block_mc,
                           f, self.BLOCK_PAIRS, s) for f, s in self.blocks]
        rnd.calibrate()
        tw = rnd.call("twirl_rotations_per_s", self.ROTATIONS, twirl.sampled_twirl,
                      self.state, self.ROTATIONS, self.twirl_seed)
        rnd.calibrate()
        if rec is not None:
            self._check_recurrence(f0, rec)
        for (f, _), st in zip(self.blocks, blocks):
            if st is not None:
                self._check_block(f, st)
        if tw is not None:
            self._check_twirl(*tw)
        return rnd

    def _check_recurrence(self, f0, trace) -> None:
        expect(not trace.truncated and len(trace.steps) == self.REC_STEPS, "recurrence_mc truncated")
        left = self.REC_PAIRS
        for st, (f, p, _) in zip(trace.steps, ref.werner_trajectory(f0, self.REC_STEPS)):
            close(st.fidelity_formula, f, 1e-12, "recurrence_mc closed-form fidelity")
            close(st.p_success_formula, p, 1e-12, "recurrence_mc closed-form p_success")
            expect(st.n_input == 2 * (left // 2), "recurrence_mc consumed the wrong pair count")
            expect(st.survival == st.n_kept / st.n_input, "recurrence_mc survival is not kept/input")
            close(st.fidelity, f, SIGMAS * st.fidelity_err, f"recurrence_mc step {st.step} fidelity")
            close(st.survival, p / 2, SIGMAS * st.survival_err, f"recurrence_mc step {st.step} survival")
            left = st.n_kept

    def _check_block(self, f, st) -> None:
        k = ref.block_size(f)
        n_blocks = self.BLOCK_PAIRS // (k + 1)
        expect(st.k == k and st.n_blocks == n_blocks and st.n_pairs == n_blocks * (k + 1),
               f"variable_block_mc block layout at F={f!r}")
        expect(st.target_fraction == n_blocks / st.n_pairs, "variable_block_mc target fraction")
        close(1.0 - st.discard_fraction, ref.block_keep(f, k), SIGMAS * st.discard_err,
              f"variable_block_mc keep rate at F={f!r}, k={k}")
        kept_blocks = round((1.0 - st.discard_fraction) * n_blocks)
        expect(st.n_kept_pairs == kept_blocks * k, "variable_block_mc kept-pair count")

    def _check_twirl(self, avg, report) -> None:
        f = ref.singlet_fidelity(self.rho)
        expect(report.n_samples == self.ROTATIONS, "sampled_twirl sample count")
        close(report.fidelity_in, f, 1e-12, "sampled_twirl input fidelity")
        close(report.fidelity_out, f, 1e-10, "bilateral rotations must keep the singlet fidelity")
        close(report.trace_distance_to_werner, ref.trace_distance(avg.mat, ref.werner_matrix(f)),
              1e-10, "sampled_twirl trace distance")
        # the average converges as ~0.5/sqrt(n); 5/sqrt(n) is far in the tail
        expect(report.trace_distance_to_werner <= 5.0 / math.sqrt(self.ROTATIONS),
               "sampled_twirl did not converge to the Werner form")


# --- breeding -------------------------------------------------------------


class Breeding(Workload):
    """Breeding trials on werner(0.95): few at the decoder cap n=20, where the
    2^n scan dominates, and many at n=12, where per-test work dominates."""

    name = "breeding"
    figures = {"breed_n20_trials_per_s": "trials/s", "breed_n12_trials_per_s": "trials/s"}
    FIDELITY, R_MARGIN, DELTA = 0.95, 2.0, 0.05
    RUNS = (("breed_n20_trials_per_s", 20, 20), ("breed_n12_trials_per_s", 12, 600))
    #: n=12 trials per round whose round-1 tie flag is checked by brute force.
    TIE_SAMPLE = 100

    def __init__(self, seed: int, ctx: Context):
        rng = np.random.default_rng([seed, 3])
        self.w = measures.werner(self.FIDELITY)
        self.seeds = [int(s) for s in rng.integers(0, 2**63, len(self.RUNS))]

    @staticmethod
    def warm_up() -> None:
        w = measures.werner(0.95)
        protocols.breeding_trials(w, 12, 2)
        protocols.breeding_trials(w, 20, 1)

    def run_round(self) -> Round:
        rnd = Round(self.yardstick)
        outs = []
        for (figure, n, trials), seed in zip(self.RUNS, self.seeds):
            rnd.calibrate()
            out = rnd.call(figure, trials, protocols.breeding_trials, self.w, n, trials,
                           delta=self.DELTA, r_margin=self.R_MARGIN, seed=seed)
            rnd.attempted += trials - 1  # one operation per trial
            if out is None:
                rnd.failed += trials - 1
            outs.append(out)
        rnd.calibrate()
        for (_, n, trials), out in zip(self.RUNS, outs):
            if out is not None:
                self._check(n, trials, *out)
        return rnd

    def _check(self, n, trials, summary, results) -> None:
        r1, r2 = ref.breeding_targets(self.w.p, n, self.R_MARGIN)
        provisioned = math.ceil(n * (ref.shannon(self.w.p) + self.DELTA))
        expect(summary.trials == trials == len(results), "breeding trial count")
        close(summary.mean_targets_per_pair, (r1 + r2) / n, 1e-12, "targets per pair")
        close(summary.predicted_net_yield, 1.0 - ref.shannon(self.w.p), 1e-12, "predicted yield")
        close(summary.decode_failure_rate, np.mean([r.decode_failed for r in results]), 0.0,
              "decode failure rate")
        for i, r in enumerate(results):
            expect(r.n == n and r.targets_consumed == r1 + r2, "parity tests per trial")
            tests = r.parity_tests
            expect([t.target_consumed for t in tests] == list(range(r1 + r2)), "target bookkeeping")
            expect(all(list(t.subset) == sorted(set(t.subset)) and set(t.subset) <= set(range(n))
                       and t.parity_observed in (0, 1) for t in tests), "malformed parity test")
            expect(r.provisioned_targets == provisioned, "provisioned targets")
            expect(r.budget_exceeded == (r1 + r2 > provisioned), "budget flag")
            close(r.net_yield, (n - r.residual_error_pairs - r1 - r2) / n, 1e-15, "net yield")
            if r.decode_correct_round1 and r.decode_correct_round2:
                expect(r.residual_error_pairs == 0, "correct decodes left residual errors")
            if n == 12 and i < self.TIE_SAMPLE:
                p_psi = float(self.w.p[2] + self.w.p[3])
                tie = ref.min_weight_tie(n, [(t.subset, t.parity_observed) for t in tests[:r1]], p_psi)
                expect(tie == r.tie_round1, f"round-1 tie flag of trial {i} vs brute force")


# --- cli ------------------------------------------------------------------


@dataclass
class Command:
    name: str
    argv: list
    #: None for an invalid input, which must exit 2 with one error line.
    check: object = None


class Cli(Workload):
    """Fresh `python -m bellpure` processes, one at a time, over a fixed
    command list, with invalid inputs that must exit 2."""

    name = "cli"
    figures = {"cli_wall_s": "s"}
    MC_PAIRS, MC_STEPS = 1_000_000, 3
    SAMPLES = 100_000
    BREED = ("--werner", "0.95", "--pairs", "8", "--trials", "40")

    def __init__(self, seed: int, ctx: Context):
        self.ctx = ctx
        self.yardstick = spawn_yardstick(ctx)
        rng = np.random.default_rng([seed, 4])
        u = [float(v) for v in rng.random(5)]
        mc_seed, breed_seed = (str(int(s)) for s in rng.integers(0, 2**63, 2))
        f_min, f_max = 0.505 + 0.05 * u[0], 0.95 + 0.045 * u[1]
        f_target, f_mc, f_twirl = 0.6 + 0.3 * u[2], 0.65 + 0.2 * u[3], 0.55 + 0.4 * u[4]
        nan_file = ctx.work / "nan_matrix.json"
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        rows[0][0][0] = float("nan")
        nan_file.write_text(json.dumps(rows))
        curves = ["curves", "--f-min", repr(f_min), "--f-max", repr(f_max)]
        self.commands = [
            Command("curves_csv", curves, lambda out: self._check_curves(out, f_min, f_max)),
            Command("curves_json", curves + ["--format", "json"], lambda out: None),
            Command("recurrence_target", ["recurrence", repr(f_target), "--target", "0.99"],
                    lambda out: self._check_recurrence(out, f_target, 0.99)),
            Command("recurrence_mc", ["recurrence", repr(f_mc), "--steps", str(self.MC_STEPS),
                                      "--mc", str(self.MC_PAIRS), "--seed", mc_seed],
                    lambda out: self._check_recurrence(out, f_mc, None)),
            Command("twirl_werner", ["twirl", "--werner", repr(f_twirl)],
                    lambda out: self._check_twirl(out, f_twirl, [0])),
            Command("twirl_samples", ["twirl", "--werner", repr(f_twirl), "--samples",
                                      str(self.SAMPLES), "--seed", mc_seed],
                    lambda out: self._check_twirl(out, f_twirl, [0, 100, 1000, 10_000, 100_000])),
            Command("breed", ["breed", *self.BREED, "--seed", breed_seed], self._check_breed),
            Command("breed_rerun", ["breed", *self.BREED, "--seed", breed_seed], lambda out: None),
            Command("selftest", ["selftest"], self._check_selftest),
            Command("invalid_fidelity", ["recurrence", "0.4", "--steps", "2"]),
            Command("invalid_points", ["curves", "--points", "1"]),
            Command("invalid_pairs", ["breed", "--werner", "0.95", "--pairs", "21", "--trials", "1"]),
            Command("invalid_usage", ["recurrence", "0.7"]),
            # DensityMatrix lets NaN through to the eigensolver, which raises
            # RuntimeError; this operation fails until that is mended
            Command("invalid_nan_matrix", ["twirl", "--input", str(nan_file)]),
        ]
        self.first: dict[str, str] | None = None
        self.reported: set[str] = set()

    def run_round(self) -> Round:
        rnd = Round(self.yardstick)
        outs = {}
        for i, cmd in enumerate(self.commands):
            if i % 2 == 0:
                rnd.calibrate()
            t0 = time.perf_counter()
            proc = subprocess.run([self.ctx.python, "-m", "bellpure", *cmd.argv], cwd=self.ctx.work,
                                  env=self.ctx.env, capture_output=True, text=True, timeout=150)
            wall = time.perf_counter() - t0
            rnd.walls[cmd.name] = wall
            outs[cmd.name] = self._settle(rnd, cmd, proc.returncode, proc.stdout, proc.stderr, wall)
        rnd.calibrate()
        self._check_round(outs)
        return rnd

    def figure_values(self, rnd: Round) -> dict[str, float]:
        return {"cli_wall_s": rnd.program_s}

    def _settle(self, rnd, cmd, code, out, err, seconds):
        """Count one invocation; its stdout when it behaved, else None."""
        rnd.attempted += 1
        rnd.add_time(seconds)
        if cmd.check is None:
            errors = [ln for ln in err.splitlines() if "error:" in ln]
            ok = code == 2 and len(errors) == 1 and "Traceback" not in err and out == ""
        else:
            ok = code == 0 and "Traceback" not in err
        if not ok:
            rnd.failed += 1
            if cmd.name not in self.reported:
                self.reported.add(cmd.name)
                last = err.strip().splitlines()[-1:] or [""]
                print(f"cli: {cmd.name} failed: exit {code}, {last[0]}", file=sys.stderr)
            return None
        return out

    def _check_round(self, outs) -> None:
        for cmd in self.commands:
            if cmd.check is not None and outs[cmd.name] is not None:
                cmd.check(outs[cmd.name])
        if outs["curves_csv"] is not None and outs["curves_json"] is not None:
            ref.same_table(outs["curves_csv"], outs["curves_json"])
        if outs["breed"] is not None and outs["breed_rerun"] is not None:
            expect(outs["breed"] == outs["breed_rerun"], "rerunning breed changed its bytes")
        if self.first is None:
            self.first = outs
        for name, out in outs.items():
            if out is not None and self.first[name] is not None:
                expect(out == self.first[name], f"{name} output differs between rounds")

    def trace_round(self, tracer) -> tuple[list[Round], float, float]:
        plain = self.run_round()
        untraced = self._in_process()
        with tracer.installed():
            traced = self._in_process()
        return [plain, untraced, traced], untraced.program_s, traced.program_s

    def _in_process(self) -> Round:
        """The command list through cli.main in this process; each stdout must
        equal the child process's."""
        rnd = Round()
        for cmd in self.commands:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(cmd.argv)
            except Exception:
                code = 1
                err.write(traceback.format_exc())
            got = self._settle(rnd, cmd, code, out.getvalue(), err.getvalue(),
                               time.perf_counter() - t0)
            if got is not None and self.first is not None and self.first[cmd.name] is not None:
                expect(got == self.first[cmd.name], f"{cmd.name}: cli.main output differs from the process's")
        return rnd

    @staticmethod
    def _check_curves(out, f_min, f_max) -> None:
        config, columns, rows = ref.parse_csv(out)
        expect(columns == ["F", "F_minus_half", "D0", "DR", "E"], "curves columns")
        expect(config["f_min"] == f_min and config["f_max"] == f_max, "curves config")
        expect(len(rows) == config["points"], "curves row count")
        fs = [float(r[0]) for r in rows]
        expect(fs[0] == f_min and fs[-1] == f_max and fs == sorted(fs), "curves fidelity grid")
        for row in rows:
            f, half, d0, dr, e = map(float, row)
            want_d0, want_e = ref.curve_point(f)
            expect(half == f - 0.5, "curves F_minus_half")
            close(d0, max(0.0, want_d0), 1e-12, "curves D0")
            close(e, want_e, 1e-12, "curves E")
            expect(e + 1e-12 >= dr >= d0 - 1e-12, f"curves E >= DR >= D0 fails at F={f!r}")

    @staticmethod
    def _check_recurrence(out, f0, target) -> None:
        _, columns, rows = ref.parse_csv(out)
        steps = len(rows) - 1
        expect(rows[0][:4] == ["0", repr(f0), "1.0", "1.0"], "recurrence step 0")
        for i, (row, (f, p, acc)) in enumerate(zip(rows[1:], ref.werner_trajectory(f0, steps)), 1):
            expect(row[0] == str(i), "recurrence step numbers")
            close(float(row[1]), f, 1e-12, f"recurrence step {i} fidelity")
            close(float(row[2]), p, 1e-12, f"recurrence step {i} p_success")
            close(float(row[3]), acc, 1e-12 * float(acc), f"recurrence step {i} yield")
            if "mc_fidelity" in columns:
                fid, fid_err, surv, surv_err = map(float, row[4:8])
                close(fid, f, SIGMAS * fid_err, f"recurrence --mc step {i} fidelity")
                close(surv, p / 2, SIGMAS * surv_err, f"recurrence --mc step {i} survival")
        if target is not None:
            fids = [float(r[1]) for r in rows]
            expect(fids[-1] >= target and all(v < target for v in fids[:-1]),
                   "recurrence --target stopped at the wrong step")
        else:
            expect(steps == Cli.MC_STEPS and rows[0][4:] == ["", "", "", ""], "recurrence --mc layout")

    @staticmethod
    def _check_twirl(out, f, samples) -> None:
        _, columns, rows = ref.parse_csv(out)
        expect([int(r[0]) for r in rows] == samples, "twirl sample checkpoints")
        for row in rows:
            vals = dict(zip(columns, map(float, row)))
            close(vals["fidelity_in"], f, 1e-12, "twirl fidelity_in")
            close(vals["fidelity_out"], f, 1e-10, "twirl fidelity_out")
            expect(vals["trace_distance_to_werner"] <= 1e-9, "a Werner state is its own twirl")
            for col, want in zip(["werner_phi_plus", "werner_phi_minus", "werner_psi_plus",
                                  "werner_psi_minus"], ref.werner_vector(f)):
                close(vals[col], want, 1e-12, f"twirl {col}")

    def _check_breed(self, out) -> None:
        _, columns, rows = ref.parse_csv(out)
        vals = dict(zip(columns, map(float, rows[0])))
        w = ref.werner_vector(0.95)
        n = int(self.BREED[3])
        r1, r2 = ref.breeding_targets(w, n, 2.0)
        provisioned = math.ceil(n * (ref.shannon(w) + 0.05))
        close(vals["mean_targets_per_pair"], (r1 + r2) / n, 1e-12, "breed targets per pair")
        close(vals["predicted_net_yield"], 1.0 - ref.shannon(w), 1e-12, "breed predicted yield")
        close(vals["budget_exceeded_rate"], float(r1 + r2 > provisioned), 0.0, "breed budget rate")
        expect(all(0.0 <= vals[c] <= 1.0 for c in ("decode_failure_rate", "residual_error_rate")),
               "breed rates outside [0, 1]")

    @staticmethod
    def _check_selftest(out) -> None:
        lines = out.splitlines()
        expect(lines[-1].startswith("self-test passed") and not any(
            ln.startswith("FAIL") for ln in lines), "selftest did not pass")


WORKLOADS = {w.name: w for w in (Cli, Exact, MonteCarlo, Breeding)}


def warm_up(name: str) -> None:
    """Set-up a workload process does before its first timed operation."""
    if name == "cli":
        import bellpure.cli  # noqa: F401  (a fresh CLI start is the set-up)
    else:
        WORKLOADS[name].warm_up()
