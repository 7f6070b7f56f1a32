"""Jump-unraveling Monte Carlo for the decay cascade.

Between jumps the collective state only loses norm, so a trajectory is
fully determined by its waiting times: each tau_m solves
exp(-g*h_m*tau_m) = p_m with p_m uniform on (0, 1).  That makes sampling
a handful of logarithms; the inter-jump state-vector integration is
exact, not approximated away.

Reproducibility contract: trajectory i of root seed s draws from the
generator seeded with (s, i), `np.random.default_rng((s, i))`, so
estimates are bit-identical regardless of scheduling or process count
(per-trajectory occupation counts are integers and their sum is
order-free).

`estimate` keeps that contract without a generator per trajectory.  It
works through the trajectories in chunks sized so that no array of a
chunk exceeds `CHUNK_ENTRIES`, and reproduces their streams side by side
with array arithmetic.  `SeedSequence((s, i))` hashes every entropy word
with the same sequence of constants, whatever the words are, so its pool
and its `generate_state(4, uint64)` vectorise over i in wrapping uint32
arithmetic.  PCG64 is seeded from that state and stepped as a 128-bit
LCG held in two uint64 words, and each draw is the XSL-RR output
`(x >> 11) * 2**-53`, as in `Generator.random` (O'Neill, "PCG: a family
of simple fast space-efficient statistically good algorithms for random
number generation", 2014).  The library generator, with the usual
redraw, builds a stream whose draws contain an exact 0.0 (probability
m0 * 2**-53), any stream index of 2**32 or more, and every stream of
more than `_VECTOR_DRAWS` draws, where one generator per trajectory
costs less than stepping the short chunks such streams allow.

Each chunk is then sampled and binned at once: `sample_trajectory`
takes a leading trajectory axis, and `bin_trajectory` histograms the
jumps rather than the trajectories.  For jump k it counts, per grid
index, the trajectories whose k-th jump falls there; a running sum along
the grid turns that into the number that have made at least k jumps,
and the number with at least k but not k + 1 jumps occupies m0 - k.
These are integer identities, so the counts equal a per-trajectory
binning bit for bit.  No array of trajectories x grid times is built,
so the chunk size depends on m0 alone.

The chunks are independent, so a request of `FORK_MIN_DRAWS` draws or
more splits them over the usable cores (`workers.split`): worker w, the
calling process for w = 0 and a forked child otherwise, takes the chunks
c = w (mod W) and sums their int64 counts and library streams.  The
chunk starts and sizes do not depend on W, and integer sums are
order-free, so the counts are the same from one process or many.  W is
recorded nowhere, so an output file is too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ladder import DickeLadder
from .states import check_time_grid
from .workers import split, worker_count

# Entries in each per-chunk array: chunk x m0 for the draws, the jump
# times and their grid indices (the binning's m0 x (grid + 1) histogram
# does not grow with the chunk).  2**15 entries are 256 KiB of float64 or
# int64.  On 1e5 trajectories at N = 8 in a fresh process, 2**16 ran
# about 12% faster than 2**15 but peaked 2.1 MiB higher (35.6 MiB); 2**14
# peaked 1.4 MiB lower but ran about 20% slower.
CHUNK_ENTRIES = 1 << 15

# A request of fewer draws (n_traj x m0) than this runs in one process.
# One draw, sampled and binned, costs about 0.13 us of CPU, and a fork
# and reap about 4 ms (2-core Xeon), so a request split at the threshold,
# about 0.05 s in one process, pays at most about 8% for the fork.  A
# whole two-way split of 8e5 draws cost 12-18 ms more CPU than one
# process, the rest being the child's own heap and both cores busy at
# once; below about 1e5 draws it took longer than one process.
FORK_MIN_DRAWS = 400_000


@dataclass(frozen=True)
class TrajectoryRecord:
    """One unraveling, or a chunk of them along a leading axis: uniform
    draws, waiting times and jump instants, ordered from the start state
    downward (index 0 of the last axis is the first jump, out of m0).
    For a chunk, `seed_index` is the stream index of the first row."""

    seed_index: int | None
    start_m: int
    draws: np.ndarray            # p_{m0}, ..., p_1 in (0, 1)
    waiting_times: np.ndarray    # tau_{m0}, ..., tau_1
    jump_times: np.ndarray       # t_{m0} < ... < t_1 (ascending)


def _draw_open_unit(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniforms on the open interval: exact zeros are redrawn (they would
    give an infinite waiting time)."""
    draws = rng.random(size)
    while True:
        zeros = draws == 0.0
        if not zeros.any():
            return draws
        draws[zeros] = rng.random(int(zeros.sum()))


# --- the streams default_rng((s, i)), side by side --------------------------

_MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence: pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier as (high, low) uint64 words, and the low
# word's 32-bit halves for the high word of its product
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LO_HI, _MULT_LO_LO = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)
# explicit unsigned shift counts and masks: no operand ever promotes to float64
_U16, _U1, _U11 = np.uint32(16), np.uint64(1), np.uint64(11)
_U32, _U58, _U63, _LOW = np.uint64(32), np.uint64(58), np.uint64(63), np.uint64(_MASK32)
_INDEX_LIMIT = 1 << 32   # a larger stream index is two entropy words
# Longer streams go to the library generator: its per-stream setup is then
# cheaper than stepping small chunks.  5000 streams on a 2-core Xeon took
# 0.15 s in chunks and 0.18 s by the library at m0 = 128, 0.18 s each at
# 144, 0.20 s against 0.17 s at 160, and 0.52 s against 0.18 s at 256.
_VECTOR_DRAWS = 144


def _entropy_words(value: int) -> list[int]:
    """The uint32 words SeedSequence takes from a nonnegative int, least
    significant first (zero is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(const: int, mult: int):
    """(xor, multiplier) pairs of successive SeedSequence hashes: they
    depend on the count of hashes so far, never on the words hashed."""
    while True:
        following = (const * mult) & _MASK32
        yield np.uint32(const), np.uint32(following)
        const = following


def _seed_state(root_seed: int, index: np.ndarray) -> list[np.ndarray]:
    """`SeedSequence((root_seed, i)).generate_state(4, uint64)` for every i
    in `index` (all below 2**32), as four uint64 words per stream."""
    entropy = ([np.full(index.shape, w, dtype=np.uint32) for w in _entropy_words(root_seed)]
               + [index.astype(np.uint32)])
    consts = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> _U16)

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        return result ^ (result >> _U16)

    zero = np.zeros(index.shape, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    halves = []
    for k, (xor, mult) in zip(range(2 * _POOL), _hash_constants(_INIT_B, _MULT_B)):
        value = (pool[k % _POOL] ^ xor) * mult
        halves.append((value ^ (value >> _U16)).astype(np.uint64))
    # uint32 words, least significant first, pair into uint64 words
    return [halves[k] | (halves[k + 1] << _U32) for k in range(0, 2 * _POOL, 2)]


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray,
              work: np.ndarray, inc_halves: np.ndarray) -> None:
    """(hi, lo) <- (hi, lo) * multiplier + (inc_hi, inc_lo) mod 2**128 in
    place, with four uint64 rows of scratch in `work`; `inc_halves` holds
    inc_lo's 32-bit halves, e = inc_lo >> 32 and f = inc_lo & (2**32 - 1).

    Wrapping uint64 products and sums give the low word and the cross terms
    hi * _MULT_LO + lo * _MULT_HI.  The high word of lo * _MULT_LO + inc_lo
    comes from 32-bit halves, lo = a * 2**32 + b and _MULT_LO = c * 2**32 +
    d, as t = a*d + ((b*d + f) >> 32) and u = (t & _LOW) + b*c + e, none
    above 2**64 - 1, so the increment's carry needs no comparison."""
    a, b, t, u = work
    e, f = inc_halves
    np.right_shift(lo, _U32, out=a)
    np.bitwise_and(lo, _LOW, out=b)
    # the wrapping terms and the increment
    np.multiply(hi, _MULT_LO, out=hi)
    np.multiply(lo, _MULT_HI, out=t)
    np.add(hi, t, out=hi)
    np.multiply(lo, _MULT_LO, out=lo)
    np.add(lo, inc_lo, out=lo)
    np.add(hi, inc_hi, out=hi)
    # hi += a*c + (t >> 32) + (u >> 32), the high word of lo * _MULT_LO + inc_lo
    np.multiply(b, _MULT_LO_LO, out=t)
    np.add(t, f, out=t)
    np.right_shift(t, _U32, out=t)
    np.multiply(a, _MULT_LO_LO, out=u)
    np.add(t, u, out=t)
    np.multiply(b, _MULT_LO_HI, out=b)
    np.bitwise_and(t, _LOW, out=u)
    np.add(u, b, out=u)
    np.add(u, e, out=u)
    np.right_shift(t, _U32, out=t)
    np.add(hi, t, out=hi)
    np.right_shift(u, _U32, out=u)
    np.add(hi, u, out=hi)
    np.multiply(a, _MULT_LO_HI, out=a)
    np.add(hi, a, out=hi)


def _xsl_rr(hi: np.ndarray, lo: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """PCG64's 64-bit output of the state (hi, lo) into `out`: hi ^ lo
    rotated right by hi >> 58 (XSL-RR), with two uint64 rows of `work`."""
    x, rot = work[:2]
    np.bitwise_xor(hi, lo, out=x)
    np.right_shift(hi, _U58, out=rot)
    np.right_shift(x, rot, out=out)
    # x << (64 - rot) as (x << 1) << (63 - rot): no shift by 64
    np.bitwise_xor(rot, _U63, out=rot)
    np.left_shift(x, _U1, out=x)
    np.left_shift(x, rot, out=x)
    np.bitwise_or(out, x, out=out)


def _pcg_uniforms(root_seed: int, start: int, stop: int, size: int) -> np.ndarray:
    """Row i is the first `size` draws of `default_rng((root_seed, start + i))
    .random`, before any redraw of an exact zero; stop must not exceed 2**32."""
    v0, v1, v2, v3 = _seed_state(root_seed, np.arange(start, stop, dtype=np.uint64))
    # initstate = v0*2**64 + v1 and inc = 2*(v2*2**64 + v3) + 1.  Seeding
    # steps from state 0, which gives inc, adds initstate and steps again.
    inc_hi = (v2 << _U1) | (v3 >> _U63)
    inc_lo = (v3 << _U1) | _U1
    lo = inc_lo + v1
    hi = inc_hi + v0 + (lo < inc_lo)
    work = np.empty((4, stop - start), dtype=np.uint64)
    inc_halves = np.empty((2, stop - start), dtype=np.uint64)
    np.right_shift(inc_lo, _U32, out=inc_halves[0])
    np.bitwise_and(inc_lo, _LOW, out=inc_halves[1])
    _lcg_step(hi, lo, inc_hi, inc_lo, work, inc_halves)
    outputs = np.empty((size, stop - start), dtype=np.uint64)
    for row in outputs:
        _lcg_step(hi, lo, inc_hi, inc_lo, work, inc_halves)
        _xsl_rr(hi, lo, row, work)
    # Generator.random keeps the top 53 bits: (output >> 11) * 2**-53.  Below
    # 2**63, int64 converts to float64 like uint64, only faster; writing
    # the transpose puts each trajectory's draws in one row.
    np.right_shift(outputs, _U11, out=outputs)
    draws = np.empty((stop - start, size))
    np.multiply(outputs.T.view(np.int64), 2.0 ** -53, out=draws)
    return draws


def _uniform_streams(root_seed: int, start: int, stop: int,
                     size: int) -> tuple[np.ndarray, int]:
    """Draws of trajectories start..stop-1 and how many rows the library
    built: row i equals `_draw_open_unit(np.random.default_rng((root_seed,
    start + i)), size)`."""
    if root_seed < 0:
        raise ValueError(f"root seed must be nonnegative, got {root_seed}")
    if stop <= _INDEX_LIMIT and size <= _VECTOR_DRAWS:
        draws = _pcg_uniforms(root_seed, start, stop, size)
        rebuild = np.flatnonzero((draws == 0.0).any(axis=1))
    else:
        draws = np.empty((stop - start, size))
        rebuild = np.arange(stop - start)
    for row in rebuild:
        rng = np.random.default_rng((root_seed, start + int(row)))
        draws[row] = _draw_open_unit(rng, size)
    return draws, rebuild.size


# --- sampling and binning ---------------------------------------------------

def chunk_size(initial_m0: int) -> int:
    """Trajectories per chunk: no per-chunk array exceeds CHUNK_ENTRIES."""
    return max(1, CHUNK_ENTRIES // max(initial_m0, 1))


def _check_start(ladder: DickeLadder, initial_m0: int) -> None:
    if not (0 <= initial_m0 <= ladder.n_emitters):
        raise ValueError(f"initial_m0 must lie in [0, N], got {initial_m0}")


def sample_trajectory(ladder: DickeLadder, initial_m0: int,
                      rng: np.random.Generator | np.ndarray,
                      seed_index: int | None = None) -> TrajectoryRecord:
    """Draw the m0 waiting times of one cascade from the given stream.

    `rng` may instead be a (trajectories, m0) array of draws already taken
    on (0, 1), one row per trajectory; the record then holds a chunk."""
    _check_start(ladder, initial_m0)
    draws = rng if isinstance(rng, np.ndarray) else _draw_open_unit(rng, initial_m0)
    rates = ladder.gamma * ladder.h_array()[initial_m0:0:-1]  # h_{m0}, ..., h_1
    waiting = -np.log(draws) / rates
    jumps = np.cumsum(waiting, axis=-1)
    return TrajectoryRecord(seed_index=seed_index, start_m=initial_m0,
                            draws=draws, waiting_times=waiting, jump_times=jumps)


def bin_trajectory(record: TrajectoryRecord, time_grid) -> np.ndarray:
    """Occupation counts of the record's trajectories, (m0 + 1) x grid:
    entry [m, j] is how many are in state m at grid time j (0 or 1 for a
    single trajectory).

    Right-continuous convention: at the jump instant the post-jump state
    is already occupied (a measure-zero choice fixed for determinism).
    """
    grid = check_time_grid(time_grid)
    jumps = np.atleast_2d(record.jump_times)
    rows, m0, width = jumps.shape[0], record.start_m, grid.size + 1
    # jump k counts from the first grid time at or after it on
    first = np.searchsorted(grid, jumps, side="left")
    first += np.arange(0, m0 * width, width)
    hits = np.bincount(first.ravel(), minlength=m0 * width).reshape(m0, width)
    # reached[k, j]: trajectories with at least k jumps by grid time j
    reached = np.zeros((m0 + 2, grid.size), dtype=np.int64)
    reached[0] = rows
    np.cumsum(hits[:, :-1], axis=1, out=reached[1:-1])
    # state m0 - k holds those with k jumps but not k + 1
    return (reached[:-1] - reached[1:])[::-1]


@dataclass(frozen=True)
class McEstimate:
    """Sample means with binomial standard errors over n_traj cascades.

    Each trajectory occupies exactly one state per grid time, so every
    column of `counts` sums to n_traj exactly.  The trajectories ran in
    `chunks` chunks of `chunk_size`; `library_streams` counts the streams
    the library generator built.
    """

    n_emitters: int
    initial_m0: int
    times: np.ndarray
    counts: np.ndarray           # (N+1) x |grid| occupation counts, int64
    n_traj: int
    seed: int
    chunk_size: int
    chunks: int
    library_streams: int

    @property
    def populations(self) -> np.ndarray:
        return self.counts / self.n_traj

    @property
    def std_errors(self) -> np.ndarray:
        p = self.populations
        return np.sqrt(p * (1.0 - p) / self.n_traj)


def estimate(ladder: DickeLadder, initial_m0: int, time_grid, n_traj: int,
             root_seed: int) -> McEstimate:
    """Average the occupation indicators of n_traj trajectories.

    A request of `FORK_MIN_DRAWS` draws (n_traj x m0) or more splits its
    chunks over the usable cores, W = min(cores, chunks); below that it
    runs in this process.  The counts are the same whatever W is.  A
    forked worker that dies or sends a broken share raises `WorkerError`."""
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    _check_start(ladder, initial_m0)
    grid = check_time_grid(time_grid)
    size = chunk_size(initial_m0)
    chunks = -(-n_traj // size)
    workers = worker_count(chunks, n_traj * initial_m0, FORK_MIN_DRAWS)

    def share(w: int) -> tuple[np.ndarray, int]:
        # the counts of chunks w, w + W, ..., and the library streams they built
        counts = np.zeros((initial_m0 + 1, grid.size), dtype=np.int64)
        streams = 0
        for start in range(w * size, n_traj, workers * size):
            draws, rebuilt = _uniform_streams(root_seed, start, min(start + size, n_traj),
                                              initial_m0)
            streams += rebuilt
            record = sample_trajectory(ladder, initial_m0, draws, seed_index=start)
            counts += bin_trajectory(record, grid)
        return counts, streams

    shares = split(share, workers, "Monte Carlo pass")
    counts = np.zeros((ladder.n_emitters + 1, grid.size), dtype=np.int64)
    counts[:initial_m0 + 1] = sum(part for part, _ in shares)
    return McEstimate(n_emitters=ladder.n_emitters, initial_m0=initial_m0,
                      times=grid, counts=counts, n_traj=n_traj,
                      seed=root_seed, chunk_size=size, chunks=chunks,
                      library_streams=sum(streams for _, streams in shares))
