"""The Monte Carlo kernels' and the exact layer's output bytes, pinned by
sha256 digest.

Every Monte Carlo digest (sample_labels, random_axis_parallel_prob,
twirl_labels, recurrence_mc, variable_block_mc, purify_round and
sampled_twirl) was recorded when the kernels began to draw each piece at its
own Philox position: piece j of stage s of stream (seed, stream_id) at
counter words (0, j, s, 0), the stages as the ensemble module lists them.
Before that, a threaded draw had to give the bytes of a serial one. Those
values were checked against the closed forms before they were recorded, and
the digests hold at every DRAW_THREADS, which the suite checks. Any later
rewrite of the kernels' inner loops must keep every draw, its position and
every summation order. Sizes sit on either side of the piece boundaries, of
CHUNK // 2 uniforms (sampler), CHUNK // 8 blocks (purification round,
PIECE) and TWIRL_PIECE rotations (sampled twirl), and of the CHUNK boundary
at which twirl_labels splits its draw. The random_axis_parallel_prob digest
covers a run at MAX_AXIS_TRIALS, whose labels span two pieces. The
twirl_labels digests end with the next draw of its generator, which pins
how many indices it drew.

The exact layer's digest was recorded before its checks were cut to one per
value. The oracle_step digest covers density_matrix_oracle_step over the
exact layer's pairs, the zero-success pair among them; it was recorded before
the state constructors, to_density and the oracle's products were rewritten
for speed, so those rewrites keep every bit of p_success, post_state.p and
post_state_raw.p. The oracle_step-random digest covers the oracle over 2500
seeded pairs, 100 of each (source kind, target kind) among Dirichlet draws,
sparse Dirichlet draws at alpha 0.05, draws with one zero weight, point
masses and Werner states, where a slip in a zero's sign or a tiny weight
would show; it was recorded while the oracle still ran its dense 16x16
products. Both oracle digests were kept through the rewrite that replaced
those products by index gathers and to_density by the unchecked matrix over
its trace.

The breeding digests cover breeding_trials' summary, every named field of
each BreedingResult and each derived ParityTest's (subset, parity_observed,
target_consumed); they were recorded before the runs stopped building a
ParityTest per test and began to keep each test as the decoder's integer
mask. The [0.6, 0, 0.2, 0.2] run at zero margin reaches the round whose every
parity-consistent string has zero prior (49 of its 300 trials). The
two_groups-n14 and werner-n20-margin100 digests, over every result field, were
recorded before breeding_trials began to run its trials in chunks. The
rank0-n20 digest, whose runs have no tests at all so that every round decodes
over all 2^20 strings, was recorded before the decoder began to solve and
score a chunk's trials together. The werner-n12-600 digest, over every result
field, was recorded while its 600 trials ran in five chunks of at most 143,
before a chunk grew to 2^16 test bits; its summary means run over more than
128 trials, where np.mean sums in pairwise blocks. Breeding draws on its
trials' own streams, at stage 0, so the keyed pieces left these digests as
they were.
"""
import hashlib

import numpy as np
import pytest

from bellpure import bell, measures, protocols, qstate, twirl
from bellpure.bell import BellDiagonal, BellLabel
from bellpure.ensemble import CHUNK, MAX_AXIS_TRIALS, _sample_labels, random_axis_parallel_prob, stream
from bellpure.twirl import TWIRL_PIECE


def _digest(*parts) -> str:
    """sha256 over the parts: arrays by their raw bytes, anything else by its
    repr, which spells every float exactly."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


SAMPLER_INPUTS = {
    "werner": measures.werner(0.7),
    # a zero weight, and a cdf whose last entry rounds to 1 - 2^-53
    "skewed": BellDiagonal([0.822, 0.028, 0.073, 0.077]),
    "point_mass": BellDiagonal([0.0, 0.0, 1.0, 0.0]),
}
SAMPLER_SIZES = (
    CHUNK // 2 - 1, CHUNK // 2 + 1, CHUNK - 1, CHUNK + 1, CHUNK + CHUNK // 2 + 3, 3 * CHUNK + 5,
)

# the sampled twirl's input: a fixed state with complex coherences, far from
# Werner form
_G = np.arange(16.0).reshape(4, 4) + 1j * np.array(
    [[1, -2, 0, 3], [0, 1, 5, -1], [2, 2, -3, 0], [-1, 0, 4, 1]]
)
TWIRL_STATE = qstate.DensityMatrix(_G @ _G.conj().T / np.trace(_G @ _G.conj().T).real)
TWIRL_SIZES = (
    1, TWIRL_PIECE - 1, TWIRL_PIECE + 1, 4 * TWIRL_PIECE - 1, 4 * TWIRL_PIECE, 4 * TWIRL_PIECE + 1,
    5 * TWIRL_PIECE + 1, 1_234_567,
)

#: Blocked recurrence inputs with block sizes k = 2, 3 and 4.
BLOCK_FIDELITIES = {2: 0.75, 3: 0.9, 4: 0.94}


def _sampler(name, n):
    return _digest(_sample_labels(SAMPLER_INPUTS[name], n, 21, n, 1))


def _axis_parallel():
    # its axes and outcomes on the stream itself, its labels at stage 1; at
    # the cap they span more than one piece
    return _digest(random_axis_parallel_prob(SAMPLER_INPUTS["skewed"], MAX_AXIS_TRIALS, 26))


def _twirl_labels(n):
    labels = _sample_labels(SAMPLER_INPUTS["skewed"], n, 22, n, 1)
    rng = stream(22, n)
    # the next draw pins how many twirl indices twirl_labels drew
    return _digest(twirl.twirl_labels(labels, rng), rng.random(1))


def _sampled_twirl(n):
    avg, report = twirl.sampled_twirl(TWIRL_STATE, n, seed=23, stream_id=n % 7)
    return _digest(avg.mat, report)


def _variable_block(k):
    stats = protocols.variable_block_mc(BLOCK_FIDELITIES[k], 10**6, seed=24 + k)
    assert stats.k == k
    return _digest(stats)


#: The purification round's piece: the blocks that one thread handles at a time.
PIECE = CHUNK // 8


def _purify_round(n_blocks, k):
    labels = _sample_labels(SAMPLER_INPUTS["skewed"], n_blocks * (k + 1), 27, n_blocks, 1)
    n_kept, s1, s2 = protocols._purify_round(labels, n_blocks, k, 27, n_blocks, 2)
    return _digest(labels[: n_kept * k], (n_kept, s1, s2))


def _exact_states():
    """Werner states and seeded Dirichlet draws, three in four of the draws
    with one to three weights set to zero."""
    rng = np.random.default_rng(25)
    states = [measures.werner(f) for f in (0.0, 0.25, 0.5, 0.7, 0.93, 1.0)]
    for i in range(200):
        p = rng.dirichlet(np.ones(4))
        p[rng.permutation(4)[: i % 4]] = 0.0
        states.append(BellDiagonal(p / p.sum()))
    return states


def _exact_pairs():
    states = _exact_states()
    pairs = [(d, d) for d in states[:6]] + list(zip(states, states[1:] + states[:1]))
    # the singlet as source of a Phi+ target: the target never reads parallel
    pairs.append((BellDiagonal([0, 0, 0, 1]), BellDiagonal([1, 0, 0, 0])))
    return states, pairs


def _step_parts(step, pairs):
    """p_success, post_state.p and post_state_raw.p of step over the pairs."""
    parts, successes = [], []
    for m1, m2 in pairs:
        out = step(m1, m2)
        successes.append(out.p_success)
        parts += [out.p_success] + [
            None if d is None else d.p for d in (out.post_state, out.post_state_raw)
        ]
    assert min(successes) == 0.0 < max(successes)
    return parts


def _exact_layer():
    states, pairs = _exact_pairs()
    parts = [bell.to_density(d).mat for d in states]
    parts += [bell.label_projector(l).mat for l in BellLabel]
    return _digest(*parts, *_step_parts(protocols.recurrence_step_exact, pairs))


def _oracle_step():
    return _digest(*_step_parts(protocols.density_matrix_oracle_step, _exact_pairs()[1]))


def _random_state(kind, rng):
    """One seeded state of a kind: a Dirichlet draw at alpha 1, a sparse one at
    alpha 0.05 (weights down to 1e-69, and exact zeros), a draw with one weight
    set to zero, a point mass or a Werner state."""
    if kind == "point_mass":
        return BellDiagonal(np.eye(4)[rng.integers(4)])
    if kind == "werner":
        return measures.werner(rng.random())
    p = rng.dirichlet(np.full(4, 0.05 if kind == "sparse" else 1.0))
    if kind == "one_zero":
        p[rng.integers(4)] = 0.0
    return BellDiagonal(p / p.sum())


RANDOM_KINDS = ("dirichlet", "sparse", "one_zero", "point_mass", "werner")


def _oracle_step_random():
    """100 seeded pairs of each (source kind, target kind): 2500 pairs, the
    zero-success point-mass pairs among them."""
    rng = np.random.default_rng(31)
    pairs = [
        (_random_state(k1, rng), _random_state(k2, rng))
        for k1 in RANDOM_KINDS
        for k2 in RANDOM_KINDS
        for _ in range(100)
    ]
    return _digest(*_step_parts(protocols.density_matrix_oracle_step, pairs))


BREEDING_RUNS = {
    "werner-n12": (measures.werner(0.95), 12, 200, 2.0, 0),
    "werner-n20": (measures.werner(0.95), 20, 10, 2.0, 0),
    "zero_prior-n8": (BellDiagonal([0.6, 0.0, 0.2, 0.2]), 8, 300, 0.0, 5),
}
SUMMARY_FIELDS = (
    "trials", "n", "delta", "r_margin", "mean_targets_per_pair", "decode_failure_rate",
    "residual_error_rate", "mean_net_yield", "predicted_net_yield", "budget_exceeded_rate",
)
RESULT_FIELDS = (
    "n", "targets_consumed", "decode_correct_round1", "decode_correct_round2", "tie_round1",
    "tie_round2", "residual_error_pairs", "net_yield", "provisioned_targets",
    "budget_exceeded", "coset_dim_round1", "coset_dim_round2",
)


#: Runs pinned over every result field, the zero-prior flags and the raw
#: masks and parities included. The first scores two round-2 groups
#: (sign_given_phi 1/3, sign_given_psi 3/17), ranked exactly together; in the
#: second one trial's test bits alone (903 tests of 20 bits) fill more than a
#: chunk of trials may hold; the third runs no test, so each round scores the
#: whole space of 2^20 strings; the fourth spans several chunks of trials.
FULL_BREEDING_RUNS = {
    "two_groups-n14": (BellDiagonal([0.1, 0.05, 0.15, 0.7]), 14, 400, 2.0, 11),
    "werner-n20-margin100": (measures.werner(0.95), 20, 3, 100.0, 12),
    "rank0-n20": (BellDiagonal([1, 0, 0, 0]), 20, 3, 0.0, 13),
    "werner-n12-600": (measures.werner(0.95), 12, 600, 2.0, 14),
}
FULL_RESULT_FIELDS = RESULT_FIELDS + (
    "zero_prior_round1", "zero_prior_round2", "subset_masks", "parities",
)


def _breeding(name):
    """Fields named one by one, so that a field added later leaves the digest
    alone."""
    full = name in FULL_BREEDING_RUNS
    w, n, trials, r_margin, seed = (FULL_BREEDING_RUNS if full else BREEDING_RUNS)[name]
    summary, results = protocols.breeding_trials(w, n, trials, r_margin=r_margin, seed=seed)
    parts = [getattr(summary, f) for f in SUMMARY_FIELDS]
    for r in results:
        parts += [getattr(r, f) for f in (FULL_RESULT_FIELDS if full else RESULT_FIELDS)]
        if not full:
            parts += [(t.subset, t.parity_observed, t.target_consumed) for t in r.parity_tests]
    return _digest(*parts)


CASES = {
    **{
        f"sample_labels-{name}-{n}": (lambda name=name, n=n: _sampler(name, n))
        for name in SAMPLER_INPUTS
        for n in SAMPLER_SIZES
    },
    "random_axis_parallel_prob": _axis_parallel,
    **{f"twirl_labels-{n}": (lambda n=n: _twirl_labels(n)) for n in (7, 3 * CHUNK + 5)},
    "recurrence_mc-0.8-1e7-4": lambda: _digest(protocols.recurrence_mc(0.8, 10**7, 4, seed=5)),
    **{f"variable_block_mc-k{k}": (lambda k=k: _variable_block(k)) for k in BLOCK_FIDELITIES},
    **{
        f"recurrence_mc-0.8-{2 * n}-3": (lambda n=n: _digest(protocols.recurrence_mc(0.8, 2 * n, 3, seed=28)))
        for n in (PIECE - 1, PIECE + 1, 2 * PIECE - 1, 2 * PIECE + 1)
    },
    **{
        f"variable_block_mc-k2-{n}": (lambda n=n: _digest(protocols.variable_block_mc(0.75, 3 * n, seed=29)))
        for n in (PIECE - 1, PIECE + 1)
    },
    **{f"purify_round-k{k}": (lambda k=k: _purify_round(2 * PIECE + 5, k)) for k in (1, 3)},
    **{f"sampled_twirl-{n}": (lambda n=n: _sampled_twirl(n)) for n in TWIRL_SIZES},
    "exact_layer": _exact_layer,
    "oracle_step": _oracle_step,
    "oracle_step-random": _oracle_step_random,
    **{
        f"breeding-{name}": (lambda name=name: _breeding(name))
        for name in (*BREEDING_RUNS, *FULL_BREEDING_RUNS)
    },
}

DIGESTS = {
    "sample_labels-werner-524287": "ab7528bc713691711ded5892c94fc35b51cac27b312f361e567b821c506046ed",
    "sample_labels-werner-524289": "3ccbff0d484db406491a2674b611122ad93f6d9fb639adb49ab0678b966d513a",
    "sample_labels-werner-1048575": "6b58089d9dd469d5d65ff1d580cf112cdedc7c4aa48a0960fe57279cb5c9c8f1",
    "sample_labels-werner-1048577": "08d24f7c2603d4a6b45f6906733aad4d316691639ba053b21fc489b9e642c4ed",
    "sample_labels-werner-1572867": "50f5fe18ee367250d5657fb617ddb31e6544be1d6e7a79cae7843466595c8ffd",
    "sample_labels-werner-3145733": "d26ad498fe997abb0f976c97c6d589b27b7df9d109d18bd5667ccd5bb62ab244",
    "sample_labels-skewed-524287": "b1e981ff73c500bc85d18cc0415264c49238e694e2d641515397f9996b3cf098",
    "sample_labels-skewed-524289": "0f21a772167114ffaf0872a2bc08e99aa90e3b948da05482d222692f414ea337",
    "sample_labels-skewed-1048575": "13126c19c288333c55aa2610174bbfeea7218c51557e175d2b9d6399bfea7e41",
    "sample_labels-skewed-1048577": "f3f73b3f0db9154880ed5c25a0724ad8b540cd078937e79a33b3a0dc9aba3759",
    "sample_labels-skewed-1572867": "c4577c3596c6ab8dd9ef5dd503385054f9fc04729c950fb561699d3d58cd67f1",
    "sample_labels-skewed-3145733": "f74b116c08ef2c3883365c30c9888b429fc051faf0aa823debcf56c8a33fc909",
    "sample_labels-point_mass-524287": "5ed8ac835795664cbd9cce0e22351774e97e38a1d0d6487e343d5e86a5438ead",
    "sample_labels-point_mass-524289": "8041d10f5f57f20a6ca1d856095a409338375fc9ce3c655477a2f79d27783272",
    "sample_labels-point_mass-1048575": "14ba1bb475037067f20428a8c721285433d47945f1a65d90df5ae21d9afb32c0",
    "sample_labels-point_mass-1048577": "45e08fe543bdeab96063da6454335d975f2b03bf33a889a7b0c3dc20d71d99ef",
    "sample_labels-point_mass-1572867": "5799510580d25bd0b008e097c8801f0849f51ccd130a62c5a6cb959eb21dbfaa",
    "sample_labels-point_mass-3145733": "0a77a6d744c7b61424619bb4d653797ac6eaa32e6f27b0a64eea41906a41c891",
    "random_axis_parallel_prob": "5c25b0ec04f0cc7d28202e75e03f29eec4c4dd9fd0620eb4cb8c39f7582fd7cf",
    "twirl_labels-7": "4e1bfa18b8b5e7f1dfab5eb4284affb41286c1688fa930e6e96fd55961e0d9c4",
    "twirl_labels-3145733": "53124c7fc6bef27897ca760e6f6df9e55391e82908947454a73b800bb60972d1",
    "recurrence_mc-0.8-1e7-4": "dff5efb80003c17ca021f3f758d9b7cc5d008c2513dcf57fb99eba8022346821",
    "variable_block_mc-k2": "793c44469cec1c306bcaac5dc7357b671a752670144c7fc69b1c1361921b0eba",
    "variable_block_mc-k3": "1f9760c750d9e912af83ef3843b731b8105eed11e7d32ab68de9e54b708293d5",
    "variable_block_mc-k4": "5e3d1d74e286bc6350185e52542851d51ca7aae7b4340726de2109f98e378106",
    "recurrence_mc-0.8-262142-3": "fe595e2eebe3a7975fd86e7f566bbb63f6c46354d8954bac423a16add6ae8ce0",
    "recurrence_mc-0.8-262146-3": "79a681fea29f18f926e61d6b31ceaa1b823ee4a0b4afc095d990367777b607b1",
    "recurrence_mc-0.8-524286-3": "9501fd086e407f2ddb9a42ce07d52dc0c6c4be443581ea74f4261ecf99c9d33d",
    "recurrence_mc-0.8-524290-3": "65eb409f11b6458961e3ac2a49cdbb38daacc076bf34ae96701481556a5942bf",
    "variable_block_mc-k2-131071": "f66d1edd48b92bc4ef74ad79b203e2cc2c287343576212c63abb0a545826c178",
    "variable_block_mc-k2-131073": "196a93f2f871ee38f3bc81a7843f7941ab53305c97f3c2951e6215fa88ea81cc",
    "purify_round-k1": "155608220cf67ee4f3d5b6cda1882d12103234fccaf8345ab68d7cb409fe551f",
    "purify_round-k3": "eef7a859022ffd0f257fe734dd5abe5a18f3e005ddad09ebc33e914842c284cc",
    "sampled_twirl-1": "3925fd4570cc9d9bbffb0b30b8f9af15ff46b06524a023af7604609418e39834",
    "sampled_twirl-49999": "4de9b09fd74b83801e0388f5c68e5a9e2a42bd936093a4701a8d517f9355b814",
    "sampled_twirl-50001": "8ac840d8393e2070a559a2c1b76e4fab419cc28a1c29ac025eb709728e118b97",
    "sampled_twirl-199999": "4be0ba980ba41e38968e92804868d32fa40bac6d10850a3aa5bde7ca3227e50e",
    "sampled_twirl-200000": "42b3775e6e38e140edae7c329c5a00b9ac4b19efbaef001d868b96aef9607730",
    "sampled_twirl-200001": "1e4388b1d14ab614a41fc0a2d827ae3addffdd3d1559e75fa8ac5a71ca9f3386",
    "sampled_twirl-250001": "ac3df09fbfcdbf1d49b715f035363f332038ba597faff9c32a7837532b8c9f48",
    "sampled_twirl-1234567": "0a506a14ecc3170622bd28d8b6e7e165fcfe1b0106efcc1ee40b53d81ac3efdd",
    "exact_layer": "4104a26ea3bde4766556fecf8b1f75b50f73650e0de5998c3be2d41e00d625d8",
    "oracle_step": "c79d0e99fa78ed7b8c32a78076170d40d0042baa51fe49e7f6e2ecbf29507be9",
    "oracle_step-random": "f40af9217a1ba5ffd6525aa5f404e1c3c50629e5e5d98be1096d7b7a70044d8e",
    "breeding-werner-n12": "35e69871a1c704ece8d167cf7a49ca691b01eed7c4b3f37c0d0c0a605a01e7e9",
    "breeding-werner-n20": "9f30dd8b2520ea9007d277d2ed5cbc098929b9e97f9128c5d0d0f289913f086b",
    "breeding-zero_prior-n8": "31b0b792bf5af1a0b66a6fcb4a11ee50ad434e1f5fac31d9fed0f806897238e2",
    "breeding-two_groups-n14": "449cf7b4a3b620b5d5dea5328cebd7404eb3cda648b8e2fecfe78fab03936412",
    "breeding-rank0-n20": "9295149aabec29608d0b692870050069b28afda0164bbb894e347c1ca63e2337",
    "breeding-werner-n20-margin100": "fdbe68bd5a462aed228ad3240a6418caeb99ece3e97e5cf424820e8c62c7ed1b",
    "breeding-werner-n12-600": "5ef0b25aadb015fa5a3d3e3ff7bea1dd04e6e65c47fed01c902b37c6317af0c4",
}


@pytest.mark.parametrize("case", list(CASES))
def test_output_bytes_match_recorded_digest(case):
    assert CASES[case]() == DIGESTS[case]
