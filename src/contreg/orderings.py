"""Task orderings with deterministic, splittable seeding.

An ordering tau_1..tau_k is a plain read-only int64 array of 1-based task
indices in [1..M]; the runners in ``schemes`` take any index sequence, and
:func:`check_indices` is the one check of that range, for the runners and
the metrics alike.

All randomness in this package flows through :func:`stream`, a Philox4x64
counter-based bit generator keyed by
``numpy.random.SeedSequence(seed, spawn_key=path)``.  Philox streams are fixed
by the algorithm (not by platform state), and SeedSequence hashing is stable
across platforms and numpy releases, so any ``(seed, path)`` pair reproduces
the same draws everywhere.  Parallel Monte Carlo trials use disjoint paths,
e.g. ``stream(base_seed, k, trial)``.

:func:`sample_orderings` draws all trials of one k-cell without building a
``SeedSequence`` or a generator per trial.  It hashes every trial's
``SeedSequence(seed, spawn_key=(k, i))`` at once with array arithmetic over
the trial axis, from numpy's own pool for ``(seed, spawn_key=(k,))``, which
gives each trial's Philox key and its fingerprint, the first uint64 word of
``SeedSequence(seed, spawn_key=(k, i)).generate_state``.  One numpy Philox
is then keyed for each trial in turn: with replacement, its raw words go
through ``Generator.integers``' 32-bit Lemire step vectorized over a block
of trials, and a trial Lemire would reject (or any trial when M > 2**32)
calls ``Generator.integers`` on it; without replacement, it shuffles one
buffer of 1..M, as ``permutation`` does.  :func:`sample_ordering`
stays on numpy's ``SeedSequence`` and ``Generator``; it is the oracle the
vectorized pass is tested against, so a numpy release that changed
``Generator.integers`` or ``permutation`` would fail that test rather than
silently move CSV bytes.

Nothing here keeps a value between calls: a cell is a pure function of
``(kind, M, k, trials, base_seed)``, and ``harness`` keeps the cells its runs
share.
"""

from __future__ import annotations

import numpy as np

WITH_REPLACEMENT = "with-replacement"
WITHOUT_REPLACEMENT = "without-replacement"
# The most trials of one cell: every trial index then hashes as one uint32 word.
MAX_TRIALS = 2 ** 32


def stream(seed, *path):
    """Independent generator for (seed, path); same inputs, same stream."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))))


def check_indices(idx, M):
    """Reject an index array with an entry outside [1..M] (an empty one passes)."""
    if idx.size and (idx.min() < 1 or idx.max() > M):
        raise ValueError(f"ordering entries must lie in [1..{M}]")


def _checked_sizes(kind, M, k, trials=1):
    if kind not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        raise ValueError(f"unknown ordering kind: {kind!r}")
    M = int(M)
    k = int(k)
    if M < 1:
        raise ValueError("M must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be >= 0 and <= 2**32, got {trials}")
    if kind == WITHOUT_REPLACEMENT and k > M:
        raise ValueError(f"without-replacement needs k <= M, got k={k}, M={M}")
    return M, k


def sample_ordering(kind, M, k, seed, path=()):
    """Sample a uniform task ordering of length k over tasks 1..M, as a
    read-only int64 array.

    ``path`` selects an independent sub-stream of ``seed`` (one per trial),
    so concurrent trials never share generator state.
    """
    M, k = _checked_sizes(kind, M, k)
    rng = stream(seed, *path)
    idx = np.asarray(rng.integers(1, M + 1, size=k) if kind == WITH_REPLACEMENT
                     else rng.permutation(M)[:k] + 1, dtype=np.int64)
    idx.flags.writeable = False
    return idx


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, xor, mult):
    """SeedSequence's hash of a uint32 array: xor with the running constant,
    then multiply by its successor."""
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _words(n):
    """How many uint32 words SeedSequence makes of a non-negative int."""
    return max(1, -(-n.bit_length() // 32))


def _trial_keys(seed, k, trials):
    """Philox keys of ``SeedSequence(seed, spawn_key=(k, i))`` for every
    trial i, as a (2, trials) uint64 array.  The first row is also each
    trial's fingerprint: ``generate_state(1)`` is the first word of
    ``generate_state(2)``.

    Trial i's entropy is that of ``SeedSequence(seed, spawn_key=(k,))`` with
    one more word, i, so that sequence's pool is the pool before i is mixed
    in.  Its entropy is the seed's words, padded to the pool size of 4, then
    k's; the mix takes 4 hashes per word before i.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(k,))  # rejects negative seeds
    n_words = max(4, _words(seed)) + _words(k)
    xor = _INIT_A * pow(_MULT_A, 4 * n_words, 2 ** 32) & _MASK32
    # One word: sample_orderings takes at most MAX_TRIALS trials.
    i = np.arange(trials, dtype=np.uint32)
    pool = []
    for word in seq.pool.tolist():  # SeedSequence's mix of each pool word with i
        mult = xor * _MULT_A & _MASK32
        mixed = (_MIX_MULT_L * word & _MASK32) - _MIX_MULT_R * _hashmix(i, xor, mult)
        pool.append(mixed ^ (mixed >> 16))
        xor = mult
    state, xor = [], _INIT_B
    for word in pool:
        mult = xor * _MULT_B & _MASK32
        state.append(_hashmix(word, xor, mult).astype(np.uint64))
        xor = mult
    return np.stack((state[0] | state[1] << 32, state[2] | state[3] << 32))


# Trials per block of the with-replacement pass: enough that each block holds
# about this many draws, as ``metrics._BLOCK_ELEMS`` does for the metric pass.
# A block's raw words and Lemire products take about 0.35 MiB.
_BLOCK_DRAWS = 1 << 14


def _keyed_generator():
    """A cell's one ``Generator`` and ``rekey(key)``, which puts its Philox in
    the state ``Philox(key=key)`` starts in and returns the Philox: the key
    (two Python ints), a zero counter and an empty output buffer.  Keyed by
    a trial's column of :func:`_trial_keys`, it draws as the trial's own
    :func:`stream` does.  The state is a dict of Python ints, which numpy
    sets about twice as fast as one of numpy arrays."""
    bitgen = np.random.Philox(key=0)
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(key):
        state["state"]["key"] = key
        bitgen.state = state
        return bitgen
    return np.random.Generator(bitgen), rekey


def _bounded(words, M, k):
    """``Generator.integers(1, M + 1, size=k)`` for M <= 2**32 from each
    trial's first raw Philox words, a (trials, ceil(k / 2)) uint64 array, as
    a (k, trials) uint64 array, and a (trials,) mask of the trials whose
    draws Lemire's method would have rejected (those rows are wrong)."""
    # numpy splits each word into two 32-bit outputs, low half first: an
    # explicit little-endian view keeps that order on any host.
    u32 = words.astype("<u8", copy=False).view("<u4")[:, :k]
    # Lemire: m = u32 * M gives 1 + (m >> 32), unless m's low word falls
    # below the threshold, where numpy draws again.
    draws = u32 * np.uint64(M)
    rejected = ((draws & _MASK32) < (2 ** 32 - M) % M).any(axis=1)
    draws >>= 32
    draws += np.uint64(1)
    return draws.T, rejected


def sample_orderings(kind, M, k, trials, base_seed):
    """Orderings of trials 0..trials-1 of one k-cell, as ``(indices, seeds)``.

    ``indices`` is a (trials, k) array of task indices whose row i is
    ``sample_ordering(kind, M, k, base_seed, path=(k, i))``; ``seeds`` is a
    (trials,) uint64 array of each trial's fingerprint, the first uint64 word
    of ``SeedSequence(base_seed, spawn_key=(k, i)).generate_state``.
    Both arrays are read-only, and each call draws its own.  The indices are
    a view of a step-major array, the layout ``schemes.run_batch`` steps
    through, so no copy is made there.  ``trials`` may be at most
    ``MAX_TRIALS``.  With replacement, trials are drawn in blocks of about
    ``_BLOCK_DRAWS`` draws, so the temporaries stay small next to the result.
    """
    M, k = _checked_sizes(kind, M, k, trials)
    keys = _trial_keys(int(base_seed), k, trials)
    rng, rekey = _keyed_generator()
    idx = np.empty((k, trials), np.int64)
    if kind == WITHOUT_REPLACEMENT:
        # permutation(M) is shuffle(arange(M)), with the same draws.
        start, perm = np.arange(1, M + 1), np.empty(M, np.int64)
        for i in range(trials):
            rekey(keys[:, i].tolist())
            perm[:] = start
            rng.shuffle(perm)
            idx[:, i] = perm[:k]
    else:
        # Above 2**32 numpy draws 64-bit words, so every trial goes to integers.
        redo = range(trials)
        if M <= 2 ** 32:
            block, n_words = max(1, _BLOCK_DRAWS // max(k, 1)), -(-k // 2)
            words = np.empty((min(block, trials), n_words), np.uint64)
            redo = []
            for a in range(0, trials, block):
                b = min(a + block, trials)
                for j, key in enumerate(keys[:, a:b].T.tolist()):
                    words[j] = rekey(key).random_raw(n_words)
                idx[:, a:b], rejected = _bounded(words[:b - a], M, k)
                redo.extend(a + np.flatnonzero(rejected))
        for i in redo:
            rekey(keys[:, i].tolist())
            idx[:, i] = rng.integers(1, M + 1, size=k)
    idx.flags.writeable = keys.flags.writeable = False
    return idx.T, keys[0]
