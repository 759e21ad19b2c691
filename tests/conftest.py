"""Helpers shared by the test modules."""

import numpy as np
import pytest

from contreg import harness, orderings


@pytest.fixture(autouse=True)
def no_kept_cells_or_collection():
    """Every test starts with no ordering cells and no generated collection
    kept from an earlier test, so that none passes or fails on what another
    left behind."""
    harness._cells.clear()
    harness._collections.clear()


@pytest.fixture
def collection_builds(monkeypatch):
    """The generator name of every collection ``harness.build_collection``
    builds from a generator spec while the test runs (a kept collection it
    returns is not a build)."""
    builds = []
    for name, gen in harness.GENERATORS.items():
        def counting(*args, build=gen.build, name=name, **kwargs):
            builds.append(name)
            return build(*args, **kwargs)

        monkeypatch.setitem(harness.GENERATORS, name, gen._replace(build=counting))
    return builds


@pytest.fixture
def cell_builds(monkeypatch):
    """The (seed, k, trials) of every ordering cell ``sample_orderings``
    draws while the test runs, for ``harness.kept_orderings`` or any other
    caller: it hashes one cell's trial keys per draw."""
    builds = []
    trial_keys = orderings._trial_keys

    def counting(seed, k, trials):
        builds.append((seed, k, trials))
        return trial_keys(seed, k, trials)

    monkeypatch.setattr(orderings, "_trial_keys", counting)
    return builds


def loss_scale(col, rho):
    """0.5 * (R * rho + max_m ||y_m||)^2: the size of the terms a task's
    residual is formed from, for iterates of norm at most ``rho`` on the
    collection ``col``.  A loss at the rounding floor of its residual moves by
    more than any relative tolerance when the order of a sum changes, so
    losses computed in different orders are compared relative to the loss or
    to this scale."""
    y_max = max(float(np.linalg.norm(t.y)) for t in col.tasks)
    return 0.5 * (col.radius * rho + y_max) ** 2


def derived_seed(seed, *path):
    """The fingerprint ``sample_orderings`` reports for the (seed, path)
    stream: the first uint64 word of ``SeedSequence(seed,
    spawn_key=path).generate_state``, as a Python int."""
    sequence = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(sequence.generate_state(1, np.uint64)[0])
