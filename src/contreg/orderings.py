"""Task orderings with deterministic, splittable seeding.

An ordering tau_1..tau_k is a plain read-only int64 array of 1-based task
indices in [1..M]; the runners in ``schemes`` take any index sequence and
check its range against the collection.

All randomness in this package flows through :func:`stream` (or, in
:func:`sample_orderings`, the same construction), a Philox4x64 counter-based
bit generator keyed by
``numpy.random.SeedSequence(seed, spawn_key=path)``.  Philox streams are fixed
by the algorithm (not by platform state), and SeedSequence hashing is stable
across platforms and numpy releases, so any ``(seed, path)`` pair reproduces
the same draws everywhere.  Parallel Monte Carlo trials use disjoint paths,
e.g. ``stream(base_seed, k, trial)``.
"""

from __future__ import annotations

import numpy as np

WITH_REPLACEMENT = "with-replacement"
WITHOUT_REPLACEMENT = "without-replacement"


def _seed_sequence(seed, path):
    return np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))


def _generator(seq):
    return np.random.Generator(np.random.Philox(seq))


def _fingerprint(seq):
    return int(seq.generate_state(1, np.uint64)[0])


def stream(seed, *path):
    """Independent generator for (seed, path); same inputs, same stream."""
    return _generator(_seed_sequence(seed, path))


def derived_seed(seed, *path):
    """Stable 64-bit fingerprint of the (seed, path) stream, for logging."""
    return _fingerprint(_seed_sequence(seed, path))


def _checked_sizes(kind, M, k):
    if kind not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        raise ValueError(f"unknown ordering kind: {kind!r}")
    M = int(M)
    k = int(k)
    if M < 1:
        raise ValueError("M must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if kind == WITHOUT_REPLACEMENT and k > M:
        raise ValueError(f"without-replacement needs k <= M, got k={k}, M={M}")
    return M, k


def _draw(rng, kind, M, k):
    if kind == WITH_REPLACEMENT:
        return rng.integers(1, M + 1, size=k)
    return rng.permutation(M)[:k] + 1


def sample_ordering(kind, M, k, seed, path=()):
    """Sample a uniform task ordering of length k over tasks 1..M, as a
    read-only int64 array.

    ``path`` selects an independent sub-stream of ``seed`` (one per trial),
    so concurrent trials never share generator state.
    """
    M, k = _checked_sizes(kind, M, k)
    idx = np.asarray(_draw(stream(seed, *path), kind, M, k), dtype=np.int64)
    idx.flags.writeable = False
    return idx


def sample_orderings(kind, M, k, trials, base_seed, *, with_seeds=False):
    """Orderings of trials 0..trials-1 of one k-cell, as (trials, k) task indices.

    Row i is ``sample_ordering(kind, M, k, base_seed, path=(k, i))``.
    With ``with_seeds``, returns ``(indices, seeds)``, where ``seeds`` lists
    each trial's ``derived_seed(base_seed, k, i)``, taken from the same
    SeedSequence as its stream.  The indices are a view of a step-major
    array, the layout ``schemes.run_batch`` steps through, so no copy is made
    there.
    """
    M, k = _checked_sizes(kind, M, k)
    idx = np.empty((k, trials), np.int64)
    seeds = []
    for i in range(trials):
        seq = _seed_sequence(base_seed, (k, i))
        idx[:, i] = _draw(_generator(seq), kind, M, k)
        if with_seeds:
            seeds.append(_fingerprint(seq))
    return (idx.T, seeds) if with_seeds else idx.T

