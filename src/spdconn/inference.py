"""Coefficient-level tests of one subject against a control group.

The null distribution of the per-pair statistic is built nonparametrically:
each bootstrap iteration leaves one control out, refits the group model on a
resampled surrogate population, projects everybody into the surrogate
residual frame, and records the left-out subject's statistic for every
region pair.  One loop fills the null a chunk of iterations at a time, in
both parametrizations: the flat refit is an arithmetic mean, so its
statistic is taken against the resampled controls' coordinates without a
fit; the tangent refit is a Fréchet fit per iteration, started from the
mean of the whole control group, which is fitted first.  Row ``k``
depends only on the seed and ``k``: iteration ``k`` draws from the
package's own stream of ``[seed, k]``, computed for the chunk at once by
hashing the seeds, stepping PCG64 and bounding its outputs, vectorized over
``k``.  That stream equals ``np.random.default_rng([seed, k])`` under numpy
2.4.6 (the tests check it), and a retried tangent fit continues it.
Observed statistics for a test subject are then converted to empirical
two-sided p-values against the pooled per-pair nulls and
Bonferroni-corrected over the ``n (n - 1) / 2`` tests.

Who holds the null decides the memory.  ``build_null`` stores all ``m``
rows, ``O(m P)``, for callers that need the values themselves.
``score_subjects`` knows its ``k`` subjects before the bootstrap, so it
counts each chunk's exceedances and reuses one chunk buffer: ``O(k P +
chunk P)`` per worker whatever ``m`` is, with p-values equal to scoring the
stored null.

The iterations run on every usable core that BLAS leaves free: where the
environment pins BLAS to fewer threads than there are cores, contiguous
ranges of ``k`` run in forked children (``_worker_count``), with the same
rows, counts and errors as one process.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import pickle
import threading
from dataclasses import dataclass

import numpy as np

from .estimators import as_correlation_matrices
from .exceptions import (
    ConvergenceError,
    InvalidInputError,
    NearSingularError,
    check_finite,
    check_integer,
)
from .group import (
    FLAT,
    TANGENT,
    GroupModel,
    check_parametrization,
    fit_stack,
    subject_stack,
)
from .geometry import pair_count, tril_pairs

# Pairs whose statistic is constant across controls would blow up the
# normalization; the standard deviation is floored instead.
SD_FLOOR = 1e-12


def _sum_in_order(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis, adding the rows one after another."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def t_statistic(controls, patient_value):
    """One-sample prediction-style statistic of patient values against
    control values.

    ``(patient - mean(controls)) / (sd(controls) * sqrt(1 + 1/S))`` with the
    unbiased (1/(S-1)) standard deviation, floored at ``SD_FLOOR``.
    ``controls`` is ``(S,)`` or ``(S, P)`` with one column per coordinate;
    ``patient_value`` broadcasts against a control row.
    """
    c = np.asarray(controls, dtype=np.float64)
    if c.ndim not in (1, 2) or c.shape[0] < 2:
        raise InvalidInputError("need at least 2 control values")
    return _t_rows(c, patient_value, np.empty_like(c))


def _t_rows(controls, value, scratch):
    """``t_statistic`` of ``value`` against ``controls``, summed over the
    first axis by ``_sum_in_order``, so its bits do not depend on the
    memory layout; the squared deviations are written into ``scratch``,
    which may be ``controls`` itself."""
    s_count = controls.shape[0]
    mu = _sum_in_order(controls) / s_count
    np.subtract(controls, mu, out=scratch)
    scratch *= scratch
    sd = np.sqrt(_sum_in_order(scratch) / (s_count - 1))
    return (value - mu) / (np.maximum(sd, SD_FLOOR) * math.sqrt(1.0 + 1.0 / s_count))


# Null columns per block of ``_count_below``: its one temporary that grows
# with the rows counted is a sorted (8, rows) block of |null|, not a copy.
# At m=10**4, P=528 and 20 rows, 4 and 8 timed fastest; 16-64 about 10% slower.
_PVALUE_BLOCK = 8


def _abs_statistic(t, shape):
    """``|t|`` broadcast to ``shape``; a NaN or another shape raises ``InvalidInputError``."""
    try:
        t = np.abs(np.broadcast_to(t, shape))
    except ValueError:
        raise InvalidInputError(f"statistic of shape {np.shape(t)} does not fit {shape}") from None
    if np.isnan(t).any():
        raise InvalidInputError("statistic is NaN")
    return t


def _count_below(abs_t, null, below):
    """Add to ``below[..., p]`` how many ``|null[:, p]|`` lie below
    ``abs_t[..., p]``, for a ``(rows, P)`` null: a stored null or one chunk.

    Each column's ``|null|`` is sorted, ``_PVALUE_BLOCK`` columns at a
    time, and searched, so the only temporary that grows with ``rows`` is
    one ``(_PVALUE_BLOCK, rows)`` block.  A non-finite null value raises
    ``InvalidInputError``.
    """
    for b in range(0, null.shape[1], _PVALUE_BLOCK):
        block = np.abs(null[:, b:b + _PVALUE_BLOCK].T, order="C")
        block.sort(axis=-1)
        if not np.isfinite(block[:, -1]).all():  # NaN and inf sort last
            raise InvalidInputError("null sample contains non-finite values")
        for p, col in enumerate(block, start=b):
            below[..., p] += np.searchsorted(col, abs_t[..., p], side="left")


def _add_one(below, m: int):
    """Add-one p-values of ``m - below`` exceedances among ``m`` null values."""
    return (1.0 + (m - below)) / (m + 1.0)


def empirical_pvalue(t, null_values):
    """Two-sided empirical p-value with add-one smoothing.

    ``p = (1 + #{v in null : |v| >= |t|}) / (m + 1)``; always in
    ``(0, 1]`` and monotone non-increasing in ``|t|``.  ``null_values`` is
    ``(m,)`` or ``(m, P)`` with finite values, one column per coordinate
    of ``t``; ``t`` broadcasts against a row of it, so it may be ``(P,)``
    or ``(k, P)``.  A null of another number of dimensions, a non-finite
    null value or a NaN in ``t`` raises ``InvalidInputError``; an
    infinite ``t`` gets the smallest p-value.
    The caller holds the null.  The exceedances are counted by binary
    search in each column's sorted ``|null|``, taken ``_PVALUE_BLOCK``
    columns at a time, so the only temporary that grows with ``m`` is one
    ``(_PVALUE_BLOCK, m)`` block.  ``score_subjects`` counts with the same
    kernel over each chunk of a null it never stores.
    """
    null = np.asarray(null_values, dtype=np.float64)
    if null.ndim not in (1, 2):
        raise InvalidInputError(f"null values have shape {null.shape}, expected (m,) or (m, P)")
    if null.size == 0:
        raise InvalidInputError("empty null sample")
    row = null.shape[1:]
    t = _abs_statistic(t, np.shape(t)[:np.ndim(t) - len(row)] + row)
    one_column = null.ndim == 1
    if one_column:
        null, t = null[:, None], t[..., None]
    below = np.zeros(t.shape, dtype=np.intp)
    _count_below(t, null, below)
    if one_column:
        below = below[..., 0]
    return _add_one(below, null.shape[0])


@dataclass(frozen=True)
class NullDistribution:
    """Per-pair bootstrap null statistics of one control group.

    ``model`` is the group model fitted to the complete control group the
    null was built from; subjects are scored against it.  ``values[k, p]``
    is the statistic from bootstrap iteration ``k`` for the off-diagonal
    pair ``p`` in canonical (row-major lower-triangle) order.
    ``n_failures`` counts the failed tangent surrogate fits that were
    retried; it is always 0 for flat, whose surrogate fit cannot fail.
    """

    model: GroupModel
    values: np.ndarray
    seed: int | None = None
    n_failures: int = 0

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def parametrization(self) -> str:
        return self.model.parametrization

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != pair_count(self.n):
            raise InvalidInputError(
                f"null values have shape {self.values.shape}, expected (m, {pair_count(self.n)})"
            )
        if self.values.size == 0:
            raise InvalidInputError("empty null distribution")
        # min and max propagate NaN, and an inf is one of them: no (m, P) temporary
        if not (np.isfinite(self.values.min()) and np.isfinite(self.values.max())):
            raise InvalidInputError("null distribution contains non-finite values")


@dataclass(frozen=True)
class PairTest:
    """Result of one pair-level test (indices satisfy j < i)."""

    i: int
    j: int
    t: float
    p_raw: float
    p_corrected: float
    direction: int


@dataclass(frozen=True)
class TestReport:
    """All pair-level tests for one subject against the control group."""

    subject_id: str
    alpha: float
    pairs: tuple[PairTest, ...]
    region_names: tuple[str, ...] | None = None
    parametrization: str = TANGENT

    @property
    def significant_pairs(self) -> tuple[PairTest, ...]:
        return tuple(p for p in self.pairs if p.p_corrected < self.alpha)

    def n_significant(self, corrected: bool = True) -> int:
        if corrected:
            return len(self.significant_pairs)
        return sum(p.p_raw < self.alpha for p in self.pairs)


@dataclass(frozen=True)
class SubjectScores:
    """Per-pair statistics and raw p-values of ``k`` subjects against the
    bootstrap null of a control group.

    ``model`` is the group model of the complete control group, ``t`` and
    ``p`` are ``(k, n (n - 1) / 2)`` in canonical pair order, and
    ``n_failures`` counts the retried tangent surrogate fits, as on
    `NullDistribution`.
    """

    model: GroupModel
    t: np.ndarray
    p: np.ndarray
    n_failures: int

    def report(self, row: int = 0, alpha: float = 0.05, *, subject_id: str = "patient") -> TestReport:
        """The pair tests of subject ``row``, its raw p-values
        Bonferroni-corrected over the pairs."""
        check_integer("row", row, 0)
        if row >= len(self.t):
            raise InvalidInputError(f"row must be below {len(self.t)}, got {row}")
        check_alpha(alpha)
        model = self.model
        t_row, p_raw = self.t[row], self.p[row]
        p_corr = _bonferroni(p_raw, pair_count(model.n))
        ii, jj = tril_pairs(model.n)
        pairs = tuple(
            PairTest(
                i=int(ii[k]),
                j=int(jj[k]),
                t=float(t_row[k]),
                p_raw=float(p_raw[k]),
                p_corrected=float(p_corr[k]),
                direction=int(np.sign(t_row[k])),
            )
            for k in range(len(t_row))
        )
        return TestReport(
            subject_id=subject_id,
            alpha=alpha,
            pairs=pairs,
            region_names=model.region_names,
            parametrization=model.parametrization,
        )


_FIT_FAILURES = (ConvergenceError, NearSingularError, np.linalg.LinAlgError)

# Iterations per block of the flat null: enough to amortize the per-block
# numpy calls, small enough that the block's temporaries stay negligible
# next to the (m, P) result.
_FLAT_BLOCK = 16


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx) and of
# its PCG64 generator (O'Neill's 128-bit default multiplier).
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645

# Iterations per ``_null_chunk``, drawn by one ``_resample_range`` call: its
# temporaries, a few ``(chunk, S + 2)`` integer arrays, stay small whatever
# ``m`` is.  It divides 2**32, so no chunk holds iterations on both sides of 2**32.
_DRAW_CHUNK = 1024


def _seed_pool(entropy: list) -> list:
    """SeedSequence's pool of four 32-bit words mixed from ``entropy``, a
    list of uint32 arrays (one per entropy word) that broadcast together."""
    const = _HASH_INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _HASH_MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ value >> 16

    zero = np.zeros(1, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _mulhi64(a, b: int):
    """High 64 bits of the 128-bit products ``a * b`` (uint64), from 32-bit
    limbs."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    cross = a_hi * b_lo + (a_lo * b_lo >> 32)
    mid = a_lo * b_hi + (cross & _MASK32)
    return a_hi * b_hi + (cross >> 32) + (mid >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * MULT + inc`` modulo 2**128, on the states'
    high and low uint64 words."""
    prod_lo = lo * _PCG_MULT_LO
    prod_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < prod_lo), new_lo


def _streams(seed: int, start: int, stop: int, count: int):
    """The streams of iterations ``start <= k < stop``, seeded once: each
    ``next`` gives their next ``count`` 32-bit values (``count`` even), as
    a ``(stop - start, count)`` uint64 array.

    The stream of ``k`` is seeded as numpy seeds ``default_rng([seed, k])``:
    the SeedSequence of the 32-bit entropy words of ``seed`` then ``k``
    gives 4 uint64 words, the PCG64 state and increment.  Each PCG64 output
    (XSL-RR) gives two 32-bit values, low half first.  An iteration at or
    above 2**32 has two entropy words, so ``start`` and ``stop - 1`` must lie
    on the same side of 2**32.
    """
    ks = np.arange(start, stop, dtype=np.uint64)
    rest = int(seed)
    entropy = [np.array([rest & _MASK32], np.uint32)]
    while rest := rest >> 32:
        entropy.append(np.array([rest & _MASK32], np.uint32))
    entropy.append(ks.astype(np.uint32))
    if start > _MASK32:
        entropy.append((ks >> 32).astype(np.uint32))
    pool = _seed_pool(entropy)
    # generate_state(4, np.uint64): 8 hashed pool words, paired low word first
    const = _HASH_INIT_B
    state = []
    for i in range(8):
        word = pool[i % 4] ^ const
        const = const * _HASH_MULT_B & _MASK32
        word = word * const
        state.append((word ^ word >> 16).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (state[2 * i] | state[2 * i + 1] << 32 for i in range(4))
    # pcg64 seeding: inc = 2 seq + 1; state = step(step(0) + seed)
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + seed_lo
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < inc_lo), lo, inc_hi, inc_lo)

    while True:
        words = np.empty((len(ks), count), np.uint64)
        for j in range(0, count, 2):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            rot = hi >> 58
            mixed = hi ^ lo
            out = mixed >> rot | mixed << (64 - rot & 63)
            words[:, j], words[:, j + 1] = out & _MASK32, out >> 32
        yield words


def _resample_range(seed: int, start: int, stop: int, s_count: int):
    """The first resamples of iterations ``start <= k < stop`` at once: row
    ``k - start`` of ``(left, pick)`` is ``_resample_row(seed, k, s_count, 0)``,
    drawn here from ``1 + S`` stream values per row.  A row where Lemire's
    method rejects a value is drawn again by ``_resample_row``."""
    words = next(_streams(seed, start, stop, 2 * (s_count // 2 + 1)))[:, :1 + s_count]
    bound = np.full(1 + s_count, s_count - 1, np.uint64)
    bound[0] = s_count
    product = words * bound
    draws = (product >> 32).astype(np.int64)
    left, pick = draws[:, 0], draws[:, 1:]
    pick += pick >= left[:, None]  # skips the left-out control
    redo = ((product & _MASK32) < (1 << 32) % bound).any(axis=1)
    for row in np.flatnonzero(redo):
        left[row], pick[row] = _resample_row(seed, start + int(row), s_count, 0)
    return left, pick


def _row_values(seed: int, k: int):
    """The 32-bit values of the stream of iteration ``k``, one at a time,
    computed 64 at a time, each once."""
    for words in _streams(seed, k, k + 1, 64):
        yield from words[0].tolist()


def _resamples(seed: int, k: int, s_count: int):
    """The resamples of iteration ``k`` in stream order, attempt 0 first:
    the left-out control, below ``S``, then ``S`` picks below ``S - 1``
    shifted past it, as ``rng.integers(S)`` and ``rng.choice(rest, size=S)``
    draw them.  A draw below ``bound`` is the high word of ``value * bound``
    (Lemire's method); a value whose low word falls below
    ``2**32 % bound`` is rejected for the next one.  All attempts read one
    stream and each of its values is computed once, so ``A`` attempts
    compute the values they read and less than one block more."""
    values = _row_values(seed, k)
    bounds = [s_count] + [s_count - 1] * s_count
    while True:
        draws = []
        for bound in bounds:
            threshold = (1 << 32) % bound
            product = next(values) * bound
            while product & _MASK32 < threshold:
                product = next(values) * bound
            draws.append(product >> 32)
        left, pick = draws[0], np.array(draws[1:])
        pick += pick >= left  # skips the left-out control
        yield left, pick


def _resample_row(seed: int, k: int, s_count: int, attempt: int):
    """Resample ``attempt`` of iteration ``k``, the ``(attempt + 1)``-th
    of ``_resamples(seed, k, s_count)``."""
    return next(itertools.islice(_resamples(seed, k, s_count), attempt, None))


def _refit_row(model: GroupModel, mats, left: int, pick) -> np.ndarray:
    """A tangent null row: the left-out control's statistic against the
    fit of the resample ``mats[pick]``, started from ``model``'s frame."""
    return _statistics(fit_stack(mats[pick], start=(model.frame, pick)), mats[left])


def _null_chunk(model: GroupModel, mats, seed: int, start: int, out, retry_cap: int) -> int:
    """Write the null rows of iterations ``start <= k < start + len(out)``
    into ``out``, a view of the null, from one ``_resample_range`` call;
    returns the number of failed fits.

    A flat surrogate's residuals are its drawn rows of the controls'
    ``resid`` minus their mean, so row ``k`` is the statistic of
    ``resid[left]`` against its drawn rows, computed in their gathered
    block; ``_t_rows`` sums row by row, so a row does not depend on its
    block.  A flat row cannot fail.  A tangent row is ``_refit_row``'s; a
    failed fit is retried with the next resample of ``_resamples``, one
    stream per retried ``k``, and failing ``retry_cap`` times in a row
    raises, naming ``k``.
    """
    s_count, n_pairs = mats.shape[0], out.shape[1]
    lefts, picks = _resample_range(seed, start, start + len(out), s_count)
    if model.parametrization == FLAT:
        resid = model.residuals[:, :n_pairs]
        for b in range(0, len(out), _FLAT_BLOCK):
            drawn = resid[picks[b:b + _FLAT_BLOCK].T]  # (S, block, P)
            out[b:b + _FLAT_BLOCK] = _t_rows(drawn, resid[lefts[b:b + _FLAT_BLOCK]], drawn)
        return 0
    n_failures = 0
    for row, first in enumerate(zip(lefts, picks)):
        retries = itertools.islice(_resamples(seed, start + row, s_count), 1, retry_cap)
        for left, pick in itertools.chain([first], retries):
            try:
                out[row] = _refit_row(model, mats, left, pick)
            except _FIT_FAILURES:
                n_failures += 1
                continue
            break
        else:
            raise ConvergenceError(
                f"bootstrap iteration {start + row} failed {retry_cap} times in a row"
            )
    return n_failures


# The environment variables that set a BLAS library's thread count.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_count(m: int) -> int:
    """Processes to run ``m`` bootstrap iterations on: the usable cores
    over the BLAS threads each process runs, at least 1 and at most ``m``.

    The BLAS thread count is the largest that ``_BLAS_THREAD_VARIABLES``
    declare; where none does, BLAS runs a thread per usable core, so one
    process runs.  So does a platform that cannot fork or report its
    usable cores, and a process where another Python thread runs, which a
    forked child would not have.
    """
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cores = len(os.sched_getaffinity(0))
    declared = (os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARIABLES)
    blas = max((int(v) for v in declared if v.isdecimal() and int(v) > 0), default=cores)
    return max(1, min(m, cores // blas))


def _run_child(run, rank: int, pipe: int):
    """In a forked child: run range ``rank``, write its exception, pickled,
    into ``pipe`` if it raises, and end the process without returning,
    so no exit handler of the parent's runs here."""
    code = 1
    try:
        try:
            run(rank)
            code = 0
        except BaseException as exc:  # the parent raises it again, KeyboardInterrupt too
            message = pickle.dumps(exc)
            with open(pipe, "wb") as out:
                out.write(message)
    finally:
        os._exit(code)


def _bootstrap(model: GroupModel, mats, seed: int, m: int, abs_t=None):
    """Run the ``m`` bootstrap iterations; returns the result and the
    number of failed fits.

    Without ``abs_t`` the result is the ``(m, P)`` null, each chunk
    written into its own rows.  With ``abs_t``, the ``(k, P)`` magnitudes
    of the subjects' statistics, it is how many null values lie below
    each, counted chunk by chunk in one reused ``(_DRAW_CHUNK, P)``
    buffer, so the null is never stored.

    The iterations are split into ``_worker_count(m)`` contiguous ranges
    of ``k``.  This process runs the first range and forks a child for
    each other one.  Every range runs ``_null_chunk`` by ``_null_chunk``,
    cut at multiples of ``_DRAW_CHUNK``, and writes its rows, its own count
    and its failure count into one shared anonymous map; rows depend only
    on ``seed`` and ``k`` and counts are integers, so the result is the
    same for any number of ranges.  Once every child is reaped, the error
    of the lowest failing range is raised; a raise in this process's own
    range kills the children first.  The retry cap and the 10% abort count
    failures over the whole run.
    """
    workers, n_pairs = _worker_count(m), pair_count(model.n)
    bounds = [m * w // workers for w in range(workers + 1)]
    shape = (m, n_pairs) if abs_t is None else (workers, *abs_t.shape)
    # the failure counts, then the null or the counts, all 8 bytes an entry
    shared = mmap.mmap(-1, 8 * (workers + math.prod(shape)))
    failures = np.frombuffer(shared, np.int64, workers)
    result = np.frombuffer(shared, np.float64 if abs_t is None else np.int64,
                           offset=failures.nbytes).reshape(shape)
    # An iteration that keeps failing is abandoned once it alone would push
    # the total failure rate over the abort threshold.
    retry_cap = max(1, math.ceil(0.1 * m) + 1)

    def run(rank: int):
        start, stop = bounds[rank], bounds[rank + 1]
        if abs_t is not None:
            buffer = np.empty((min(stop - start, _DRAW_CHUNK), n_pairs))
        edges = [start, *range(start - start % _DRAW_CHUNK + _DRAW_CHUNK, stop, _DRAW_CHUNK), stop]
        for lo, hi in zip(edges, edges[1:]):
            rows = result[lo:hi] if abs_t is None else buffer[:hi - lo]
            failures[rank] += _null_chunk(model, mats, seed, lo, rows, retry_cap)
            if abs_t is not None:
                _count_below(abs_t, rows, result[rank])

    children, pipes = {}, []  # the pids not yet reaped, by rank; the read ends of their pipes
    try:
        for rank in range(1, workers):
            read, write = os.pipe()
            pipes.append(read)
            pid = os.fork()
            if pid == 0:
                _run_child(run, rank, write)
            os.close(write)
            children[rank] = pid
        run(0)
        for rank, read in enumerate(pipes, start=1):
            with open(read, "rb", closefd=False) as pipe:
                message = pipe.read()
            _, status = os.waitpid(children[rank], 0)
            del children[rank]
            if message:
                raise pickle.loads(message)
            if status:
                raise RuntimeError(f"bootstrap worker {rank} ended with wait status {status}")
    finally:
        for read in pipes:
            os.close(read)
        if children:
            import signal  # imported only to stop children: a clean run loads no module for it

            for pid in children.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    n_failures = int(failures.sum())
    if n_failures > 0.1 * m:
        raise ConvergenceError(f"{n_failures} failed fits over {m} bootstrap iterations (> 10%)")
    return (result if abs_t is None else result.sum(axis=0)), n_failures


def _control_stack(controls, m, seed, parametrization: str):
    """Check the bootstrap's arguments, then estimate the controls; returns
    their ``(S, n, n)`` stack and region names.  Fewer than 3 controls or
    2 regions are refused before any fit."""
    check_parametrization(parametrization)
    check_integer("m", m, 1)
    check_integer("seed", seed, 0)
    mats, names = as_correlation_matrices(controls)
    if mats.shape[0] < 3:
        raise InvalidInputError("need at least 3 controls to build a null")
    if mats.shape[-1] < 2:
        raise InvalidInputError(f"need at least 2 regions to test a pair, got {mats.shape[-1]}")
    return mats, names


def build_null(
    controls,
    m: int = 1000,
    seed: int = 0,
    *,
    parametrization: str = TANGENT,
) -> NullDistribution:
    """Build the per-pair null distribution by leave-one-out bootstrap.

    The null carries the group model fitted to the complete control group.
    That fit comes first, so a control group whose intrinsic mean does not
    converge fails before the bootstrap.  Each tangent surrogate fit starts
    from it: the first Newton step takes the resample's gradient and
    operator from the control group's last Fréchet iteration, and the fit
    converges to the surrogate's own mean within the gradient tolerance.
    A flat surrogate fit is an arithmetic mean, which cannot fail, so the
    flat null is computed from each resample's coordinates without a fit
    per iteration; its rows equal the per-iteration refits' statistics up
    to rounding.  One loop fills both nulls in place, ``_null_chunk`` by
    ``_null_chunk``, split over ``_worker_count(m)`` processes; the retry
    cap and the 10% abort count over the run.
    The result holds all ``m`` rows; ``score_subjects`` scores subjects
    from the same rows without storing them.

    Parameters
    ----------
    controls : sequence of TimeSeries or SPD arrays
        Control subjects; time series are estimated once up front (the
        per-subject correlation estimate does not depend on the resampling).
    m : int
        Number of bootstrap iterations; every pair receives exactly ``m``
        statistics.
    seed : int
        Master seed, a non-negative integer.  Iteration ``k`` draws from
        the package's stream of ``[seed, k]``, which equals
        ``np.random.default_rng([seed, k])`` under numpy 2.4.6, and a
        retried tangent fit continues that stream.  So in both
        parametrizations the result is reproducible and row ``k`` depends
        only on ``seed`` and ``k``: not on ``m``, on the order or
        grouping in which iterations run, or on how many processes run
        them.

    With very few controls, a resample can draw one control ``S`` times.
    Its spread is zero, its standard deviation is floored at ``SD_FLOOR``,
    and its null row is about 1e11 in every pair.  This happens with
    probability ``(S - 1) ** (1 - S)``: 0.25 at ``S = 3``, 0.037 at
    ``S = 4`` and 0.004 at ``S = 5``.  Such rows exceed any observed
    statistic, so they bound the smallest reachable p-value from below.

    Raises
    ------
    InvalidInputError
        If ``m`` is not an integer >= 1 or ``seed`` not one >= 0 (Python or
        numpy integers), before any control is estimated; if there are
        fewer than 3 controls or 2 regions, before any fit.
    ConvergenceError
        If the fit of the control group fails, or more than 10% of the
        tangent surrogate fits fail across the whole run.
    """
    mats, names = _control_stack(controls, m, seed, parametrization)
    model = fit_stack(mats, parametrization, region_names=names)
    values, n_failures = _bootstrap(model, mats, seed, m)
    return NullDistribution(model, values, seed, n_failures)


def _statistics(model: GroupModel, mats) -> np.ndarray:
    """Per-pair statistics of a validated ``(k, n, n)`` stack, or of one
    ``(n, n)`` matrix, against the control residuals stored on ``model``."""
    n_pairs = pair_count(model.n)
    return t_statistic(model.residuals[:, :n_pairs], model.project(mats)[..., :n_pairs])


def score_subjects(
    controls,
    subjects,
    m: int = 1000,
    seed: int = 0,
    *,
    parametrization: str = TANGENT,
) -> SubjectScores:
    """Score subjects against the controls' bootstrap null without storing
    the null.

    Its ``t`` and ``p`` are ``empirical_pvalue``'s for the subjects'
    statistics against ``build_null(controls, m, seed, ...)``; the
    arguments, the control fit (the model), the null rows, the retries
    (``n_failures``) and the 10% abort are ``build_null``'s.  ``subjects``
    are taken as ``build_null`` takes the controls, `TimeSeries` or SPD
    arrays, and checked against the controls' dimension and region names
    by ``group.subject_stack`` before the controls are fitted.  Their
    statistics come before the bootstrap, and a NaN among them raises
    ``InvalidInputError`` there.  Each chunk of null rows is then written
    into one reused ``(min(m, _DRAW_CHUNK), P)`` buffer, and its
    exceedances are added into a ``(k, P)`` integer count, one buffer and
    one count per worker, so memory is ``O(k P + chunk P)`` per worker
    however large ``m`` is.  A non-finite null row
    raises ``InvalidInputError`` as ``empirical_pvalue`` does.
    """
    mats, names = _control_stack(controls, m, seed, parametrization)
    subjects = subject_stack(subjects, mats.shape[-1], names)
    model = fit_stack(mats, parametrization, region_names=names)
    t = _statistics(model, subjects)
    del subjects  # the bootstrap keeps only t
    below, n_failures = _bootstrap(model, mats, seed, m, _abs_statistic(t, t.shape))
    return SubjectScores(model, t, _add_one(below, m), n_failures)


def _bonferroni(p_raw, n_pairs: int):
    return np.minimum(1.0, p_raw * n_pairs)


def bonferroni_floor(n_pairs: int, m: int) -> float:
    """The smallest Bonferroni-corrected p-value of an ``m``-iteration
    null over ``n_pairs`` pairs: ``min(1, P / (m + 1))``, computed as a
    report corrects its smallest raw p-value ``1 / (m + 1)``.  A pair can
    be significant at ``alpha`` only when this is below ``alpha``, that is
    when ``m + 1 > P / alpha``."""
    return float(_bonferroni(_add_one(m, m), n_pairs))


def check_alpha(alpha: float):
    """Raise ``InvalidInputError`` unless ``alpha`` is a real number, not a
    bool, with ``0 < alpha <= 1``."""
    check_finite("alpha", alpha)
    if not 0 < alpha <= 1:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")


def test_patient(
    patient,
    null: NullDistribution,
    alpha: float = 0.05,
    *,
    subject_id: str = "patient",
) -> TestReport:
    """Test every region pair of one subject against the control group.

    The patient, a `TimeSeries` or an SPD matrix, is taken through
    ``group.subject_stack`` against ``null.model``'s dimension and region
    names, projected into that model's residual frame and scored on each
    pair against the matching null column.  Raw p-values are
    Bonferroni-corrected over the ``P = n (n - 1) / 2`` pairs, so no pair
    can be significant unless ``m + 1 > P / alpha`` (see
    ``bonferroni_floor``).
    """
    model = null.model
    t = _statistics(model, subject_stack([patient], model.n, model.region_names))
    scores = SubjectScores(model, t, empirical_pvalue(t, null.values), null.n_failures)
    return scores.report(0, alpha, subject_id=subject_id)


# keep pytest from collecting the public API as test callables
test_patient.__test__ = False
TestReport.__test__ = False
