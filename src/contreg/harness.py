"""Experiment harness: configs, Monte Carlo sweeps, CSV output, rate fits and
the lower-bound scenario runners.  The verification suites are in ``verify``.

Every run here steps on ``schemes.run_batch``, and so does the adversary's
probe of a learner unless its start already solves the probe's tasks, as
``scheme_runner`` says; the literal update rules run only in ``verify`` and
the tests.  Each scenario runner states the claim it checks (threshold,
floor).

A sweep is fully determined by its config: trial (k, i) draws its ordering
from the stream ``(base_seed, k, i)``, the trials of all k-cells are stepped
together by one ``schemes.run_batch`` call (a trial's values do not depend on
the others in its batch), rows are emitted sorted by (k, trial), and floats
are serialized with 17 significant digits, so identical configs produce
byte-identical CSV files.

A sweep's results travel as one ``ResultTable``, from ``run_experiment``
through ``write_csv`` and ``read_csv`` to ``aggregate``: the run key is held
once and every per-row field is a numpy column, so no per-row Python object
is built between the metric pass and the CSV line.

This is the one module that keeps values between runs, each by ``_keep``
for its latest group only: the ordering cells of the latest base seed
(``kept_orderings``), which the five schemes of a sweep and both lower-bound
scenarios at one k share, and in ``_collections`` either the collection of
the latest generator spec (``build_collection``), which a sweep's schemes
share with its row bases, stacked rows and reference solution, or the
lower-bound scenarios' collections, as one group that a generator spec
evicts and that evicts it: the seen-task collection and its read-only start
by k, the any-algorithm collection by k and the adversary's sign, and the
probe's one-task collection.  All are pure functions of their keys, so what
a run writes does not depend on what an earlier run left kept.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import secrets
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .adversarial import (any_alg_collection, any_alg_probe_collection, any_alg_sign,
                          seen_task_lb_collection)
from .metrics import summarize_batch
from .orderings import MAX_TRIALS, WITH_REPLACEMENT, WITHOUT_REPLACEMENT, sample_orderings
from .schedules import KINDS, build_schedule
# run_continual is not called here: the benchmark's tracer reads harness.run_continual.
from .schemes import READS, run_batch, run_continual
from .tasks import (collection_from_dict, generate_aligned_pairs, generate_realizable,
                    json_numbers, TaskCollection)


class ConfigError(ValueError):
    """Raised for malformed experiment configs (strict parsing)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config, with its collection and one schedule per k built."""

    collection: TaskCollection
    scheme: str
    kind: str  # the schedule kind, the CSV's ``schedule`` label
    schedules: tuple
    ordering: str
    k_grid: tuple
    trials: int
    base_seed: int


# Typed config fields, wherever they appear: JSON type(s) and how to name them.
_INT, _REAL = ((int,), "an integer"), ((int, float), "a finite number")
_FIELD_TYPES = {**dict.fromkeys(("d", "M", "n", "pairs", "seed", "n_choice", "trials",
                                 "base_seed"), _INT),
                **dict.fromkeys(("radius", "angle", "gamma"), _REAL),
                "path": ((str,), "a string")}


def _check_types(fields, where, skip=()):
    """Reject a typed field of the wrong JSON type (bools are not numbers)."""
    for name, value in fields.items():
        if name not in _FIELD_TYPES or name in skip:
            continue
        types, what = _FIELD_TYPES[name]
        try:
            ok = type(value) in types and (float not in types or math.isfinite(value))
        except OverflowError:  # an int too large for a float
            ok = False
        if not ok:
            raise ConfigError(f"{where} field {name!r} must be {what}, got {value!r:.40}")


def _require_keys(d, required, optional, where):
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing {where} fields: {sorted(missing)}")


def _check_scheme(scheme):
    if not isinstance(scheme, str) or scheme not in READS:
        raise ConfigError(f"unknown scheme kind: {scheme!r}")


def _check_trials(trials):
    if not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be an integer >= 1 and <= 2**32, got {trials}")


def _check_schedule(sch, scheme):
    """Check a schedule dict against its ``schedules.KINDS`` entry and ``schemes.READS``."""
    _check_scheme(scheme)
    if not isinstance(sch, dict) or "kind" not in sch:
        raise ConfigError("schedule must be an object with a 'kind' field")
    kind = sch["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"unknown schedule kind: {kind!r}")
    entry = KINDS[kind]
    allowed = {"kind", *entry.required, *entry.optional}
    unknown = set(sch) - allowed
    if unknown:
        raise ConfigError(f"unknown schedule fields for {kind!r} with scheme {scheme!r}: "
                          f"{sorted(unknown)} (fields must be among {sorted(allowed)})")
    for name in entry.required:
        if name not in sch:
            raise ConfigError(f"{kind} schedule needs {name!r}")
    sets = sorted(set(sch) & {"lam", "gamma", "n_steps"} if entry.strengths is None
                  else entry.strengths)
    if sets != sorted(READS[scheme]):
        raise ConfigError(f"scheme {scheme!r} cannot run a {kind!r} schedule: the strengths "
                          f"it sets must be those the scheme reads, {list(READS[scheme])}, "
                          f"got {sets}")
    # A custom schedule's gamma is a per-step array, checked when it is built.
    _check_types(sch, "schedule", skip=("gamma",) if entry.strengths is None else ())


# A config's collection generator: fields are its config fields ('generator'
# aside), and build(**fields) makes its collection from them; its float64 task
# stack takes stack_bytes times the product of the stack fields.
Generator = namedtuple("Generator", "fields build stack stack_bytes")

GENERATORS = {
    "gaussian": Generator(("d", "M", "n", "radius", "seed"), generate_realizable,
                          ("M", "n", "d"), 8),
    "aligned-pairs": Generator(("d", "pairs", "angle", "radius", "seed"),
                               generate_aligned_pairs, ("pairs", "d"), 16),
}


@functools.cache
def _physical_memory():
    """The machine's physical memory in bytes, read once, or None where it
    cannot be read (``os.sysconf`` is Unix-only)."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def check_fits(nbytes, what):
    """Reject an array of ``nbytes`` bytes that the machine's physical memory
    cannot hold, by a ConfigError that starts with ``what``, before numpy
    fails on it in its own words.  Where the memory cannot be read, nothing
    is checked, and an impossible size fails in numpy's MemoryError."""
    memory = _physical_memory()
    if memory is not None and nbytes > memory:
        raise ConfigError(f"{what} must be at most the machine's memory, {memory} bytes, "
                          f"not {nbytes}")


def check_out(path):
    """Reject an output path that cannot be written, before any work starts:
    one that is empty, an existing directory, or in a missing directory.
    None (no path given) passes."""
    if path is None:
        return
    if not path:
        raise ConfigError(f"output path {path!r} is empty")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"output path {path!r}: directory {parent!r} does not exist")


def parse_config(data):
    """Check a raw config mapping (unknown fields are errors; the schedule as
    ``_check_schedule`` says) and build what it names: the collection, by
    ``build_collection`` (so a generated one may be the object an earlier
    config of this process built), and one schedule per k.  So every config
    error is a ConfigError raised here, before any trial is sampled.  A size
    whose largest array the machine's memory cannot hold is one of them: the
    task stack or a k's ordering array, raised before anything is built, or
    the iterates of all trials of all k, raised once the collection's d is
    known."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(data, ["collection", "scheme", "schedule", "ordering",
                         "k_grid", "trials", "base_seed"], [], "config")

    col = data["collection"]
    if not isinstance(col, dict):
        raise ConfigError("collection must be an object")
    if "path" in col:
        _require_keys(col, ["path"], [], "collection")
    else:
        gen = col.get("generator", "gaussian")
        if not isinstance(gen, str) or gen not in GENERATORS:
            raise ConfigError(f"unknown collection generator: {gen!r}")
        _require_keys(col, GENERATORS[gen].fields, ["generator"], "collection")
    _check_types(col, "collection")
    if "radius" in col and not col["radius"] > 0:
        raise ConfigError(f"collection field 'radius' must be > 0, got {col['radius']!r}")
    if "seed" in col and col["seed"] < 0:
        raise ConfigError(f"collection field 'seed' must be >= 0, got {col['seed']!r}")
    if "path" not in col:
        names = GENERATORS[gen].stack
        sizes = [col[name] for name in names]
        if min(sizes) >= 1:  # the generator rejects smaller sizes itself
            check_fits(GENERATORS[gen].stack_bytes * math.prod(sizes),
                       f"collection fields {', '.join(names)} = {sizes}: the float64 "
                       f"task stack")

    scheme, sch = data["scheme"], data["schedule"]
    _check_schedule(sch, scheme)

    if data["ordering"] not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        raise ConfigError(f"unknown ordering kind: {data['ordering']!r}")

    try:
        k_grid = json_numbers(data["k_grid"], 1, "k_grid", integral=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not len(k_grid) or k_grid[0] < 1 or (k_grid[1:] <= k_grid[:-1]).any():
        raise ConfigError("k_grid must be a nonempty strictly increasing list "
                          "of positive integers")
    k_grid = k_grid.tolist()

    _check_types(data, "config")
    trials = data["trials"]
    _check_trials(trials)
    base_seed = data["base_seed"]
    if base_seed < 0:
        raise ConfigError("base_seed must be a nonnegative integer")
    # An entry's largest array is its (k, trials) int64 ordering array (its
    # per-step arrays hold k floats).
    check_fits(8 * k_grid[-1] * trials, f"k_grid entry {k_grid[-1]} is too large for "
                                        f"trials={trials}: its (k, trials) int64 ordering array")

    try:
        collection = build_collection(col)
    except ValueError as exc:  # the generator's or the collection file's own check
        raise ConfigError(str(exc)) from None
    # A CSV row's R must be > 0 for read_csv, whatever the scheme and schedule.
    if not collection.radius > 0:
        raise ConfigError(f"collection R must be > 0, got {collection.radius}: "
                          f"every task is zero")
    # run_batch steps every trial of every k together, in one float64 array.
    check_fits(8 * trials * len(k_grid) * collection.d,
               f"trials={trials}, len(k_grid)={len(k_grid)} and d={collection.d}: the "
               f"(trials * len(k_grid), d) float64 iterates")
    if data["ordering"] == WITHOUT_REPLACEMENT and k_grid[-1] > collection.M:
        raise ConfigError(f"without-replacement needs k <= M, got k={k_grid[-1]}, "
                          f"M={collection.M}")
    try:
        schedules = tuple(build_schedule(sch, collection.radius, k) for k in k_grid)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{sch['kind']} schedule: {exc}") from None
    return ExperimentConfig(
        collection=collection, scheme=scheme, kind=sch["kind"], schedules=schedules,
        ordering=data["ordering"], k_grid=tuple(k_grid), trials=trials, base_seed=base_seed)


def _unique_keys(pairs):
    """A JSON object's dict, or ValueError for a key it repeats (``json``
    would keep the key's last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_json(path):
    """The JSON document in the file ``path``; a file that is not JSON, or
    that repeats a key within an object, is a ConfigError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path}: {exc}") from None


# What the process keeps between runs, as {group: {key: value}} for the
# latest group: ordering cells by base seed, and a collection by its spec, or
# the lower-bound scenarios' collections in the one group _SCENARIOS.
_cells = {}
_collections = {}
_SCENARIOS = "scenarios"


def _keep(store, group, make, key=None):
    """``make()``, made once for ``key`` while ``group`` is the latest group
    of ``store``: a call of another group drops what ``store`` kept first."""
    if group not in store:
        store.clear()
    values = store.setdefault(group, {})
    if key not in values:
        values[key] = make()
    return values[key]


def build_collection(spec):
    """The collection a checked config's collection spec names.

    A generated collection is a pure function of its spec, so it is built
    once: the process keeps the collection of the latest generator spec,
    keyed by the generator's name (named or defaulted) and each field's type
    and value, and returns that same object to every later call naming the
    spec.  Its arrays are read-only and its row bases, stacked rows, tasks
    and reference solution are built on first use, so every run on the spec
    shares them too.  A ``{"path": ...}`` spec is read and built on every
    call, since the file can change between calls.
    """
    if "path" in spec:
        return collection_from_dict(load_json(spec["path"]))
    name = spec.get("generator", "gaussian")
    gen = GENERATORS[name]
    key = (name, *((type(spec[field]), spec[field]) for field in gen.fields))
    return _keep(_collections, key,
                 lambda: gen.build(**{field: spec[field] for field in gen.fields}))


def kept_orderings(kind, M, k, trials, base_seed):
    """``sample_orderings(kind, M, k, trials, base_seed)``, drawn once per
    base seed: every run of a cell of the latest base seed gets the read-only
    arrays its first run drew."""
    return _keep(_cells, base_seed, lambda: sample_orderings(kind, M, k, trials, base_seed),
                 key=(kind, M, k, trials))


CSV_FIELDS = ("scheme", "schedule", "ordering", "M", "d", "R", "k", "trial",
              "seed", "avg_loss", "seen_loss", "degradation", "dist_to_wstar")
METRIC_NAMES = CSV_FIELDS[-4:]
RUN_KEY_FIELDS = CSV_FIELDS[:6]
ROW_FIELDS = CSV_FIELDS[6:]


@dataclass(frozen=True, eq=False)
class ResultTable:
    """A sweep's results, one row per (k, trial), as columns.

    The run key (``RUN_KEY_FIELDS``) is held once; ``k`` and ``trial``
    (int64), ``seed`` (uint64) and the four ``METRIC_NAMES`` (float64) are
    equal-length columns.  ``len(table)`` is the row count.
    """

    scheme: str
    schedule: str
    ordering: str
    M: int
    d: int
    R: float
    k: np.ndarray
    trial: np.ndarray
    seed: np.ndarray
    avg_loss: np.ndarray
    seen_loss: np.ndarray
    degradation: np.ndarray
    dist_to_wstar: np.ndarray

    def __len__(self):
        return len(self.k)


_I63, _I64 = 2 ** 63, 2 ** 64
# A sweep row's integer columns and their ranges [low, high).
_INT_RANGES = (("k", 1, _I63), ("trial", 0, _I63), ("seed", 0, _I64))


def _first_bad_row(columns):
    """``(i, why)`` for the first row out of range in a sweep's ``ROW_FIELDS``
    columns, or None; ``why`` names the row's first bad field.  k, trial and
    seed must lie in ``_INT_RANGES``, the metrics that are losses or a norm
    must be finite and >= 0, and the degradation finite.  The integer columns
    may be object arrays of Python ints of any size."""
    checks = []  # (bad rows, field, rule, column), in the order a row is checked
    for (name, low, high), c in zip(_INT_RANGES, columns):
        checks.append(((c < low) | (c >= high), name,
                       f"must be >= {low} and < 2**{high.bit_length() - 1}", c))
    for name, c in zip(METRIC_NAMES, columns[3:]):
        if name == "degradation":
            checks.append((~np.isfinite(c), name, "must be finite", c))
        else:
            checks.append((~((c >= 0) & (c < math.inf)), name, "must be finite and >= 0", c))
    bad = np.logical_or.reduce([mask for mask, *_ in checks])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    _, name, rule, c = next(check for check in checks if check[0][i])
    return i, f"{name} {rule}, got {(float if name in METRIC_NAMES else int)(c[i])}"


def run_experiment(cfg):
    """Sample, step and score a parsed config's sweep: a ResultTable with one
    row per (k, trial), sorted by (k, trial).  ``run_batch`` checks the
    strengths that depend on the tasks drawn for every cell before any trial
    steps."""
    col = cfg.collection
    drawn = [kept_orderings(cfg.ordering, col.M, k, cfg.trials, cfg.base_seed)
             for k in cfg.k_grid]
    # Overflow shows up as a non-finite result, reported below by trial.
    with np.errstate(over="ignore", invalid="ignore"):
        runs = run_batch(col, [(idx, spec) for (idx, _), spec in zip(drawn, cfg.schedules)],
                         cfg.scheme)
        recs = [summarize_batch(run, col) for run in runs]
    table = ResultTable(
        scheme=cfg.scheme, schedule=cfg.kind, ordering=cfg.ordering,
        M=col.M, d=col.d, R=col.radius,
        k=np.repeat(np.asarray(cfg.k_grid, np.int64), cfg.trials),
        trial=np.tile(np.arange(cfg.trials, dtype=np.int64), len(cfg.k_grid)),
        seed=np.concatenate([seeds for _, seeds in drawn]),
        **{name: np.concatenate([getattr(rec, name) for rec in recs])
           for name in METRIC_NAMES})
    bad = _first_bad_row([getattr(table, name) for name in ROW_FIELDS])
    if bad is not None:
        i = bad[0]
        values = [float(getattr(table, name)[i]) for name in METRIC_NAMES]
        raise ValueError(
            f"non-finite result at k={table.k[i]}, trial={table.trial[i]}, seed={table.seed[i]}: "
            + ", ".join(f"{name}={v}" for name, v in zip(METRIC_NAMES, values)))
    return table


# One CSV row after its run key; "%.17g" % v is format(v, ".17g").
_ROW_FORMAT = ",%d,%d,%d,%.17g,%.17g,%.17g,%.17g\n"
# Rows formatted per write, so that a large sweep is not built as one string.
_WRITE_ROWS = 1 << 12


@contextlib.contextmanager
def atomic_open(path):
    """Open ``path`` for writing text, atomically: the ``with`` block writes
    to a temporary file in the target's directory, which is renamed onto
    ``path`` when the block ends.  A failure, in the block or in the rename,
    leaves any earlier file intact and removes the temporary file; an error
    opening the temporary file names ``path``."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".",
                       f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, "x", newline="")
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_csv(table, path):
    """Write a ResultTable to ``path`` by ``atomic_open``.

    The run key is formatted once, by ``csv.writer`` as a ``\\r\\n`` line so
    that a carriage return is quoted as a newline is, and each row is then
    one ``_ROW_FORMAT`` line.
    """
    key = io.StringIO()
    csv.writer(key, lineterminator="\r\n").writerow(
        [table.scheme, table.schedule, table.ordering, table.M, table.d,
         format(table.R, ".17g")])
    row_format = key.getvalue()[:-2].replace("%", "%%") + _ROW_FORMAT
    columns = [getattr(table, name) for name in ROW_FIELDS]
    with atomic_open(path) as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for a in range(0, len(table), _WRITE_ROWS):
            rows = zip(*[c[a:a + _WRITE_ROWS].tolist() for c in columns])
            fh.write("".join([row_format % row for row in rows]))


def _parse_run_key(fields):
    """(scheme, schedule, ordering, M, d, R) from a row's first six fields."""
    scheme, schedule, ordering = fields[:3]
    M, d, R = int(fields[3]), int(fields[4]), float(fields[5])
    for name, v in (("M", M), ("d", d)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    if not 0 < R < math.inf:
        raise ValueError(f"R must be finite and > 0, got {R}")
    return scheme, schedule, ordering, M, d, R


def read_csv(path):
    """A ``write_csv`` file as a ResultTable.

    A malformed file raises ValueError naming the file and, for a bad row,
    its line: a header or field count not of the schema, a field that does
    not parse, a value out of range (k >= 1; trial, seed >= 0; M, d >= 1; R
    finite and > 0; the metrics as ``run_experiment`` checks them), rows of
    more than one sweep, or a repeated (k, trial).  A line that ``csv``
    cannot split (a field past its size limit) does not parse.  A byte that
    is not UTF-8 is reported at once, by its line and its offset in the file:
    every line is decoded before any is parsed.  Of the rows that do not parse or are
    out of range, the first in the file is reported.  The sweep check comes
    before the repeat check, since rows of two sweeps share (k, trial) pairs.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # Split where ``csv`` splits a file's lines ("\r\n", "\r" or "\n"), so
    # its line numbers hold; each line is decoded once.
    decoded, offset = [], 0
    for raw in data.splitlines(keepends=True):
        try:
            decoded.append(raw.decode())
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}, line {len(decoded) + 1}: byte {raw[exc.start]:#04x} at "
                             f"offset {offset + exc.start} is not UTF-8") from None
        offset += len(raw)
    reader = csv.reader(decoded)
    keys = {}  # a run key's fields as read -> the run key
    rows, lines = [], []
    first_line = {}  # (k, trial) -> the line it first appears on
    repeat = unparsed = None
    try:
        if next(reader, None) != list(CSV_FIELDS):
            raise ValueError(f"{path}, line 1: header is not {','.join(CSV_FIELDS)}")
        for rec in reader:
            try:
                if len(rec) != len(CSV_FIELDS):
                    raise ValueError(f"expected {len(CSV_FIELDS)} fields, got {len(rec)}")
                fields = tuple(rec[:6])
                if fields not in keys:
                    keys[fields] = _parse_run_key(fields)
                row = (int(rec[6]), int(rec[7]), int(rec[8]), float(rec[9]),
                       float(rec[10]), float(rec[11]), float(rec[12]))
            except ValueError as exc:
                unparsed = (reader.line_num, exc)
                break
            rows.append(row)
            lines.append(reader.line_num)
            line = first_line.setdefault(row[:2], reader.line_num)
            if repeat is None and line != reader.line_num:
                repeat = (reader.line_num, *row[:2], line)
    except csv.Error as exc:  # the line reader.line_num does not split
        unparsed = (reader.line_num, exc)
    # The first bad line in file order: an out-of-range row before the line
    # that did not parse, if any.
    columns = list(zip(*rows))
    # Python ints, so that a value past 64 bits is compared rather than wrapped.
    ints = [np.array(c, dtype=object) for c in columns[:3]]
    metrics = [np.array(c, np.float64) for c in columns[3:]]
    bad = _first_bad_row(ints + metrics) if rows else None
    if bad is not None:
        raise ValueError(f"{path}, line {lines[bad[0]]}: {bad[1]}")
    if unparsed is not None:
        raise ValueError("{}, line {}: {}".format(path, *unparsed))
    run_keys = set(keys.values())
    if len(run_keys) > 1:
        listed = "; ".join("/".join(str(v) for v in key) for key in sorted(run_keys, key=str))
        raise ValueError(f"{path}: rows mix {len(run_keys)} sweeps "
                         f"({', '.join(RUN_KEY_FIELDS)}): {listed}")
    if repeat is not None:
        raise ValueError("{}, line {}: repeats k={}, trial={} of line {} (one row per "
                         "(k, trial))".format(path, *repeat))
    if not rows:
        raise ValueError(f"{path}: no rows after the header")
    return ResultTable(
        *run_keys.pop(),
        k=np.array(columns[0], np.int64), trial=np.array(columns[1], np.int64),
        seed=np.array(columns[2], np.uint64), **dict(zip(METRIC_NAMES, metrics)))


def _mean_se(vals):
    """The mean and standard error of one k's values.  A result that overflows
    on finite values is taken of the values scaled by a power of two (which is
    exact) and scaled back, finite as the exact one is at most the largest
    |value|; a result that does not overflow is kept as it is."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
    if np.isfinite([mean, se]).all() or not np.isfinite(vals).all():
        return float(mean), float(se)
    exp = np.frexp(np.abs(vals).max())[1]  # the scaled values lie in (-1, 1)
    return tuple(float(v if np.isfinite(v) else np.ldexp(scaled, exp))
                 for v, scaled in zip((mean, se), _mean_se(np.ldexp(vals, -exp))))


def aggregate(table, metric="avg_loss"):
    """Per-k Monte Carlo summaries of a ResultTable: (k, mean, standard error,
    n_trials), by increasing k; both are finite when the values are.

    Each k's values are gathered, in row order, into an array of their own, so
    the mean and standard error do not depend on the rows of other k (numpy
    sums in pairs, and the pairs follow the array's length and layout).
    """
    order = np.argsort(table.k, kind="stable")
    ks, values = table.k[order], getattr(table, metric)
    return [(int(table.k[idx[0]]), *_mean_se(values[idx]), len(idx))
            for idx in np.split(order, np.flatnonzero(ks[1:] != ks[:-1]) + 1)]


@dataclass(frozen=True)
class RateFit:
    """OLS fit of ln(loss) on ln(k); slope is the empirical rate exponent."""

    slope: float
    intercept: float
    residual: float
    n_points: int


def fit_rate(points):
    points = list(points)
    if len(points) < 3:
        raise ValueError(f"rate fit needs at least 3 points, got {len(points)}")
    bad = [k for k, loss in points if not loss > 0]
    if bad:
        raise ValueError(f"rate fit needs strictly positive losses; "
                         f"nonpositive at k={bad}")
    logk = np.log([k for k, _ in points])
    logl = np.log([loss for _, loss in points])
    slope, intercept = np.polyfit(logk, logl, 1)
    residual = float(np.sum((slope * logk + intercept - logl) ** 2))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=residual, n_points=len(points))


# ---------------------------------------------------------------------------
# Lower-bound scenario runners


def scheme_runner(scheme, schedule):
    """Deterministic probe ``probe(collection, k)``: runs a scheme with a schedule
    dict on the collection's first task k times, as one ``run_batch`` trial, and
    returns w_k.  A budgeted step costs the same for any inner budget N.

    When every target of the collection is zero, as on the any-algorithm
    probe's (e_1, 0), the start w = 0 solves every task exactly and the probe
    returns it without stepping (its schedule is still built and checked):
    each step's residual r is then a zero, its update V^T (g r) a zero, and
    +0.0 minus a zero of either sign is +0.0, so ``run_batch`` would return
    the same bits."""

    def probe(col, k):
        spec = build_schedule(schedule, col.radius, k)
        if not any(s.y.any() for s in col.stacks):
            return np.zeros(col.d)
        (run,) = run_batch(col, [(np.ones((1, k), np.int64), spec)], scheme)
        return run.final[0]

    return probe


def _run_scenario(col, w0, k, trials, base_seed, scheme, schedule):
    """MetricsRecord of ``trials`` with-replacement runs of k steps on a
    scenario's collection from the start ``w0``."""
    spec = build_schedule(schedule, col.radius, k)
    idx, _ = kept_orderings(WITH_REPLACEMENT, col.M, k, trials, base_seed)
    (run,) = run_batch(col, [(idx, spec)], scheme, w0=w0)
    return summarize_batch(run, col)


# The schedule kind a scenario runs when none is given, by the strengths its
# scheme reads: the increasing kind that sets them, or 'none'.
_DEFAULT_KINDS = {("lam",): "increasing-coefficient",
                  ("gamma", "n_steps"): "increasing-budget", (): "none"}


def default_kind(scheme):
    """The schedule kind a scenario runs under ``scheme`` when none is given."""
    _check_scheme(scheme)
    return _DEFAULT_KINDS[READS[scheme]]


def run_seen_task_floor(k, trials, base_seed, scheme="regularized", schedule=None):
    """Empirical Pr[seen-task loss >= 1/(144 k)] on the hard seen-task collection,
    started at its w0; the claim is that it is at least 0.15.  ``schedule`` is
    a config's schedule dict (``{"kind": default_kind(scheme)}`` if None)."""
    _check_trials(trials)
    schedule = {"kind": default_kind(scheme)} if schedule is None else schedule
    _check_schedule(schedule, scheme)  # before the collection is built
    col, w0 = _keep(_collections, _SCENARIOS, lambda: seen_task_lb_collection(k),
                    key=("seen-task", k))
    rec = _run_scenario(col, w0, k, trials, base_seed, scheme, schedule)
    threshold, floor = 1.0 / (144.0 * k), 0.15
    prob = int(np.count_nonzero(rec.seen_loss >= threshold)) / trials
    return {"scenario": "seen-task", "scheme": scheme, "schedule": schedule["kind"],
            "k": k, "trials": trials, "threshold": threshold,
            "empirical_probability": prob, "floor": floor, "passed": bool(prob >= floor)}


def run_any_alg_mean(k, trials, base_seed, scheme="regularized", schedule=None):
    """Mean excess average loss on the adversarial collection built against the
    scheme, started at 0; the claim is that it is at least 1/(64 k).
    ``schedule`` is as for ``run_seen_task_floor``."""
    _check_trials(trials)
    schedule = {"kind": default_kind(scheme)} if schedule is None else schedule
    _check_schedule(schedule, scheme)  # before the learner is probed
    probed = _keep(_collections, _SCENARIOS, any_alg_probe_collection, key="probe")
    sign = any_alg_sign(k, scheme_runner(scheme, schedule), probed)
    col = _keep(_collections, _SCENARIOS, lambda: any_alg_collection(k, sign),
                key=("any-algorithm", k, sign))
    rec = _run_scenario(col, None, k, trials, base_seed, scheme, schedule)
    # The collection's rows are e_1 and e_2 with targets 0 and a, so its
    # planted a * e_2 has zero loss and the excess is the average loss itself.
    mean_excess = float(np.mean(rec.avg_loss))
    threshold = 1.0 / (64.0 * k)
    return {"scenario": "any-algorithm", "scheme": scheme, "schedule": schedule["kind"],
            "k": k, "trials": trials, "threshold": threshold,
            "mean_excess": mean_excess, "adversary_sign": float(col.w_star[1]),
            "passed": bool(mean_excess >= threshold)}
