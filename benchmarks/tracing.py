"""Spans around the program's public functions, installed from outside.

`Tracer.installed()` replaces each function named in TRACED with a wrapper in
its module's namespace (DensityMatrix through its __init__), so calls made
through that namespace, including a module's calls to its own globals, are
timed. Calls that bypass the namespace, such as `protocols._ml_decode`,
`protocols._bxor_parity`, `ensemble._sample_labels` or a `BellDiagonal`
bound by `from ... import`, are not wrapped: their time lands in the self time
of the wrapped caller.

Each span records its name, start, end and parent. Spans stay in memory and
are reduced per round to calls and self time (duration minus the time its
child spans cover).
"""
from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from bellpure import bell, cli, ensemble, measures, protocols, qstate, twirl

TRACED = {
    cli: ["main"],
    qstate: ["eig_hermitian", "von_neumann_entropy"],
    bell: ["to_density", "map_distribution", "bxor", "bxor_unitary"],
    measures: ["d0", "dr_curve", "e_formation_werner"],
    twirl: ["sampled_twirl", "twirl_labels", "discrete_twirl", "exact_twirl", "trace_distance"],
    protocols: [
        "breeding_trials",
        "breeding_mc",
        "recurrence_step_exact",
        "density_matrix_oracle_step",
        "recurrence_mc",
        "variable_block_mc",
    ],
    ensemble: ["stream", "subset_mask", "run_sharded"],
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _count_rotations(args, kwargs, result, counts) -> None:
    n = kwargs["n"] if "n" in kwargs else args[1]
    counts["twirl.sampled_twirl.rotations"] += int(n)


def _count_breeding(args, kwargs, result, counts) -> None:
    counts["protocols.parity_tests"] += len(result.parity_tests)
    counts["protocols.decode_ties"] += int(result.tie_round1) + int(result.tie_round2)
    counts["protocols.decode_failures"] += int(result.decode_failed)


#: Counts read off arguments or results, keyed by traced span name.
COUNTERS = {
    "twirl.sampled_twirl": _count_rotations,
    "protocols.breeding_mc": _count_breeding,
}
COUNT_NAMES = [
    "twirl.sampled_twirl.rotations",
    "protocols.parity_tests",
    "protocols.decode_ties",
    "protocols.decode_failures",
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._index: dict[str, int] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        ident = self._index.setdefault(name, len(self._index))
        if ident == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [ident, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result, self.counts)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, names in TRACED.items():
                for attr in names:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{_layer(module)}.{attr}", fn))
            init = qstate.DensityMatrix.__init__
            saved.append((qstate.DensityMatrix, "__init__", init))
            qstate.DensityMatrix.__init__ = self._wrap("qstate.DensityMatrix", init)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def reduce(self) -> dict[str, float]:
        """Calls and self time per span name, plus the counters, over the
        spans recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for ident, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (ident, start, end, _), covered in zip(self.spans, child):
            name = self.names[ident]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - covered
        out.update(self.counts)
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counts.update(dict.fromkeys(COUNT_NAMES, 0))

    def save(self, path) -> None:
        """Write the recorded spans: `names`, and `spans` rows of (name
        index, start, end, parent span index or -1), times in seconds."""
        np.savez_compressed(path, names=np.array(self.names), spans=np.array(self.spans, dtype=float))
