"""The Monte Carlo kernels' and the exact layer's output bytes, pinned by
sha256 digest.

The digests were recorded before the kernels' inner loops were last rewritten
for speed, so any rewrite must keep every draw, its order and every summation
order. Sizes sit on either side of the chunk (ensemble.CHUNK) and batch
(twirl.TWIRL_BATCH) boundaries, where a reordering would first show. The
exact layer's digest was recorded before its checks were cut to one per value.
The oracle_step digest covers density_matrix_oracle_step over the exact
layer's pairs, the zero-success pair among them; it was recorded before the
state constructors, to_density and the oracle's products were rewritten for
speed, so those rewrites keep every bit of p_success, post_state.p and
post_state_raw.p.

The sampled_twirl digests were kept through the rewrite that sums the Gram
of the 10 distinct quaternion products, not of all 16, and draws each batch
into the kernel's one buffer; so were the recurrence_mc and variable_block_mc
digests through the purification round's single compaction per chunk.

The variable_block_mc-k2 and -k4 digests were recorded again when the blocked
round began to run in chunks of blocks. Its fidelity_err is now formed from
the integer block moments sum(s_b) and sum(s_b**2) instead of a float64 sum of
squared residuals over every block, which moved the last bit of fidelity_err
(each new value is the nearer to the exact one) and no other field. The k3
digest, whose fidelity_err held, was left as it was.

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
128 trials, where np.mean sums in pairwise blocks.

The sample_labels digests at CHUNK // 2 - 1, CHUNK // 2 + 1 and
CHUNK + CHUNK // 2 + 3, and the random_axis_parallel_prob digest, whose label
draw starts mid-block after the ziggurat normals, were recorded while the
sampler drew its uniforms serially in pieces of CHUNK, before it began to
draw pieces of CHUNK // 2 on two threads.

The recurrence_mc digests at 2 * PIECE +- 2 and 4 * PIECE +- 2 pairs (one and
two pieces of two-pair tests, a test short and a test over), the
variable_block_mc-k2 digests at PIECE +- 1 blocks and the purify_round
digests, whose next draw pins how many twirl indices the round took, were
recorded before the purification round began to run as a two-stage pipeline
over pieces of PIECE = CHUNK // 8 blocks, while it ran serially in chunks.
"""
import hashlib

import numpy as np
import pytest

from bellpure import bell, measures, protocols, qstate, twirl
from bellpure.bell import BellDiagonal, BellLabel
from bellpure.ensemble import CHUNK, MAX_AXIS_TRIALS, _sample_labels, random_axis_parallel_prob, stream
from bellpure.twirl import TWIRL_BATCH


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
TWIRL_SIZES = (1, TWIRL_BATCH - 1, TWIRL_BATCH, TWIRL_BATCH + 1, 1_234_567)

#: Blocked recurrence inputs with block sizes k = 2, 3 and 4.
BLOCK_FIDELITIES = {2: 0.75, 3: 0.9, 4: 0.94}


def _sampler(name, n):
    rng = stream(21, n)
    labels = _sample_labels(rng, SAMPLER_INPUTS[name], n)
    # the next draw pins how many uniforms the sampler consumed
    return _digest(labels, rng.random(1))


def _axis_parallel():
    # the one sampler call in the library that starts mid-block, after the
    # ziggurat normals of the axes; at the cap it spans more than one piece
    return _digest(random_axis_parallel_prob(SAMPLER_INPUTS["skewed"], MAX_AXIS_TRIALS, 26))


def _twirl_labels(n):
    rng = stream(22, n)
    labels = _sample_labels(rng, SAMPLER_INPUTS["skewed"], n)
    return _digest(twirl.twirl_labels(labels, rng), rng.random(1))


def _sampled_twirl(n):
    avg, report = twirl.sampled_twirl(TWIRL_STATE, n, seed=23, stream_id=n % 7)
    return _digest(avg.mat, report)


def _variable_block(k):
    stats = protocols.variable_block_mc(BLOCK_FIDELITIES[k], 10**6, seed=24 + k)
    assert stats.k == k
    return _digest(stats)


#: The purification round's piece: the blocks that one of its stages handles at
#: a time.
PIECE = CHUNK // 8


def _purify_round(n_blocks, k):
    rng = stream(27, n_blocks)
    labels = _sample_labels(rng, SAMPLER_INPUTS["skewed"], n_blocks * (k + 1))
    n_kept, s1, s2 = protocols._purify_round(labels, n_blocks, k, rng)
    # the next draw pins how many twirl indices the round drew
    return _digest(labels[: n_kept * k], (n_kept, s1, s2), rng.random(1))


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
    **{
        f"breeding-{name}": (lambda name=name: _breeding(name))
        for name in (*BREEDING_RUNS, *FULL_BREEDING_RUNS)
    },
}

DIGESTS = {
    "sample_labels-werner-524287": "71b49b1b8ed6f974a03e1bdd8f08a00d05902c110b6f28294f3b3cf267b4e157",
    "sample_labels-werner-524289": "8a0261ac13fa7e56d5895a63d6b29ebba47069b5be0d1abda520624e80f374f2",
    "sample_labels-werner-1048575": "c5398241d0db0eb21c9a937db1fcc9cfb8007168220c2f3c6719df9cbbbbd3d9",
    "sample_labels-werner-1048577": "eb662c91de06fe1737a226b68be98a9285ad3d7553f41e958345c50d1f2cf9b9",
    "sample_labels-werner-1572867": "042e8ea29315dfd4ca657a4fe08eea5e12b72f1d47d1182c872d7d398d0b8a5e",
    "sample_labels-werner-3145733": "54d85039e395c56f4b2f53b316d03de2b4d0aa7414d347ceec8dae4c29eff9c3",
    "sample_labels-skewed-524287": "6742b7915f02b8c0570d6c249f6c74dc90183acbfeaa9645ec8ff0c734140f25",
    "sample_labels-skewed-524289": "d02361915f820985ea71ed96edb630e8f26266217e094b2b85127fa73c789802",
    "sample_labels-skewed-1048575": "2c6ce1aca422b0f4ca6dd8304549c2d28fd8a2a675ca1ab9c0c17c6589adaa5e",
    "sample_labels-skewed-1048577": "7986b43626c6c758db108c7bf631634993bf4d36af1cf9176a34171ac8d99ac8",
    "sample_labels-skewed-1572867": "9688c732ec8227ce77834392c9bc11f28db8c9e5661ea8c764bb8bea5b01b009",
    "sample_labels-skewed-3145733": "d408fd894a43749e2aadc1e038c4e47efe3aa862725c140c5f8e5ad8cbd6879b",
    "sample_labels-point_mass-524287": "8fc3c692f504865a3c9098541afeb58ea5f2b3ef80f7921503b6f775301e847a",
    "sample_labels-point_mass-524289": "c2b594501cb39e09b25458a1a77e8a4e6213d97f24575417ed9fb2e8bdafb007",
    "sample_labels-point_mass-1048575": "0530e94fbd35be07a5634e010bec1c09556772a350a6b1154579ad480c443563",
    "sample_labels-point_mass-1048577": "98989f9fb542b63f8d0d0be2801f33d1fea2a5dc000636efd3468f3b3e12548e",
    "sample_labels-point_mass-1572867": "788c2e6163c01fd4a37c88d3694539234a1422a48b0e8a7defe473d38bb29401",
    "sample_labels-point_mass-3145733": "55029ed68eefa9333356496d7913875dcf29de1161169fbef116ae3576434c10",
    "random_axis_parallel_prob": "b51625541bafd118c2369909088249049c1d3ab5c7523395c2efc62b2dbdf5f5",
    "twirl_labels-7": "8069fb90fa6775e6344dc855393e6002a470283f053707901478278a28e51e4d",
    "twirl_labels-3145733": "bfc6d5e657525f927e164237372a791e5f298a9405666da7022cd5e3d4a42b3e",
    "recurrence_mc-0.8-1e7-4": "8ee8909574abb956ef2a895a12855bd19d54f25318cc080202f5e24d3967bf6f",
    "variable_block_mc-k2": "0f4429436abfa0690641a000097e881a7f53480494206dad91bc7e2cee95e846",
    "variable_block_mc-k3": "a9c3a6bf5460c9dcdc98a67cac6b380c03189365e87d7676e08efed8e75cd641",
    "variable_block_mc-k4": "2d8ce97185264bf056a9e132d3014081a7ee612c5176600160a18a9f43785e93",
    "recurrence_mc-0.8-262142-3": "ac30e943095987ee5a6572f8e49c8b3c711098fcd09ecd9fbdcb47f124cb9fd7",
    "recurrence_mc-0.8-262146-3": "4ff3cb30b38544f91b9a5d0af6add74558ce0dd5305647fa7588dce318b32a91",
    "recurrence_mc-0.8-524286-3": "fd8e170a432c99635af11756e7bdd71d9526a964c82f84e63a618195163034a6",
    "recurrence_mc-0.8-524290-3": "e94c09cb449b8a15afca71003eeed86f89eaef009d4870baf6e0b0ce497b6a48",
    "variable_block_mc-k2-131071": "c5a3625ac6ad4194a48c6b288b431ec869ad8c0a7561617025eccf6f22fce57c",
    "variable_block_mc-k2-131073": "256ea8dd79c8c18e5c3687eab76c1d547f9b6f9618765cbf7f2d625b6273a4e7",
    "purify_round-k1": "2b738cc28959b3fe14391fcce1407b09b22b78cc1d57287336038dc73170abd1",
    "purify_round-k3": "07fd2e02ad4ca068675066e97070f839b97f01491733e2e9db952046f1ab4274",
    "sampled_twirl-1": "fe4362221932104b82de4c8d4e81c3847b65bde547cb3628e35b6f9a09b55db1",
    "sampled_twirl-199999": "b0f908fa8e1cad9aed5bbfb2fd7c87b2edc8a2b269504859c3c8fafbc989aced",
    "sampled_twirl-200000": "0f71a4be48c9a16ff3a8bfe8cc8c2c878dd7b9d39dc07f2268b87a8b423943da",
    "sampled_twirl-200001": "e4c5cd73afd68c8183c5887641f15383999d04f5e3b1642e4d3042871c137ff7",
    "sampled_twirl-1234567": "9a10311e73056aaf76e983dee233c65f2f933e8e3984cc501c880e158a04a2b0",
    "exact_layer": "4104a26ea3bde4766556fecf8b1f75b50f73650e0de5998c3be2d41e00d625d8",
    "oracle_step": "c79d0e99fa78ed7b8c32a78076170d40d0042baa51fe49e7f6e2ecbf29507be9",
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
