import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke import trajectories
from dicke.ladder import build_ladder
from dicke.methods import solve_populations
from dicke.precision import PrecisionPolicy
from dicke.residues import evaluate_distribution
from dicke.trajectories import (_draw_open_unit, _uniform_streams, bin_trajectory, chunk_size,
                                estimate, sample_trajectory)


class ScriptedRng:
    """Deterministic stand-in feeding prescribed uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        out = np.array(self.values[:size], dtype=float)
        self.values = self.values[size:]
        return out


def test_waiting_times_from_norm_condition():
    ladder = build_ladder(2, 1.0)
    record = sample_trajectory(ladder, 2, ScriptedRng([math.exp(-1), math.exp(-1)]))
    assert record.waiting_times == pytest.approx([0.5, 0.5])
    assert record.jump_times == pytest.approx([0.5, 1.0])


def test_waiting_time_rate_scaling():
    ladder = build_ladder(1, 2.0)
    record = sample_trajectory(ladder, 1, ScriptedRng([0.5]))
    assert record.waiting_times[0] == pytest.approx(math.log(2) / 2)


def test_draws_near_one_give_immediate_cascade():
    ladder = build_ladder(3, 1.0)
    record = sample_trajectory(ladder, 3, ScriptedRng([1 - 1e-12] * 3))
    assert record.jump_times[-1] < 1e-11


def test_zero_draws_are_rejected():
    ladder = build_ladder(2, 1.0)
    record = sample_trajectory(ladder, 2, ScriptedRng([0.0, 0.5, 0.25]))
    # the zero is redrawn; all waiting times stay finite
    assert np.isfinite(record.waiting_times).all()
    assert (record.draws > 0).all()


def test_jump_times_strictly_increasing():
    ladder = build_ladder(12, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        record = sample_trajectory(ladder, 12, rng)
        assert (np.diff(record.jump_times) > 0).all()


def indicators(states, m0):
    """(m0 + 1) x grid occupation counts of one trajectory in `states`."""
    return (np.arange(m0 + 1)[:, None] == np.asarray(states)).astype(np.int64)


def test_binning_before_first_and_after_last_jump():
    ladder = build_ladder(2, 1.0)
    record = sample_trajectory(ladder, 2, ScriptedRng([math.exp(-1), math.exp(-1)]))
    counts = bin_trajectory(record, [0.1, 0.75, 5.0])
    assert np.array_equal(counts, indicators([2, 1, 0], 2))


def test_binning_right_continuous_at_jump():
    ladder = build_ladder(2, 1.0)
    record = sample_trajectory(ladder, 2, ScriptedRng([math.exp(-1), math.exp(-1)]))
    counts = bin_trajectory(record, [0.5, 1.0])
    assert np.array_equal(counts, indicators([1, 0], 2))


def test_single_trajectory_estimate_is_indicator():
    ladder = build_ladder(4, 1.0)
    grid = np.linspace(0.01, 2.0, 9)
    result = estimate(ladder, 4, grid, n_traj=1, root_seed=9)
    assert np.array_equal(result.counts.sum(axis=0), np.ones(9, dtype=np.int64))
    assert set(np.unique(result.counts)) <= {0, 1}


def test_estimate_reproducible_and_worker_independent(cores, monkeypatch):
    # chunks of 409 streams, so that 4000 trajectories split over the workers
    monkeypatch.setattr(trajectories, "CHUNK_ENTRIES", 1 << 11)
    ladder = build_ladder(5, 1.0)
    grid = np.linspace(0.05, 1.5, 7)
    cores(1)
    a = estimate(ladder, 5, grid, n_traj=4000, root_seed=21)
    b = estimate(ladder, 5, grid, n_traj=4000, root_seed=21)
    cores(4)
    c = estimate(ladder, 5, grid, n_traj=4000, root_seed=21)
    cores(8)
    d = estimate(ladder, 5, grid, n_traj=4000, root_seed=21)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.counts, c.counts)
    assert np.array_equal(a.counts, d.counts)


def test_estimate_columns_sum_exactly():
    ladder = build_ladder(6, 1.0)
    grid = np.linspace(0.02, 2.0, 11)
    result = estimate(ladder, 6, grid, n_traj=3000, root_seed=4)
    assert (result.counts.sum(axis=0) == 3000).all()
    assert np.abs(result.populations.sum(axis=0) - 1.0).max() < 1e-12


def test_std_errors_bounded():
    ladder = build_ladder(4, 1.0)
    grid = np.linspace(0.05, 1.0, 5)
    result = estimate(ladder, 4, grid, n_traj=500, root_seed=2)
    assert (result.std_errors <= 0.5 / math.sqrt(500) + 1e-15).all()


def test_waiting_time_marginal_means():
    ladder = build_ladder(6, 1.0)
    n_traj = 4000
    taus = np.empty((n_traj, 6))
    for idx in range(n_traj):
        rng = np.random.default_rng((77, idx))
        taus[idx] = sample_trajectory(ladder, 6, rng).waiting_times
    rates = ladder.gamma * ladder.h_array()[6:0:-1]
    for k in range(6):
        mean = taus[:, k].mean()
        stderr = taus[:, k].std(ddof=1) / math.sqrt(n_traj)
        assert abs(mean - 1.0 / rates[k]) < 3 * stderr


def test_single_emitter_estimate_within_three_sigma():
    # binomial error model against the known exponential
    ladder = build_ladder(1, 1.0)
    result = estimate(ladder, 1, np.array([1.0]), n_traj=100_000, root_seed=31)
    p = math.exp(-1.0)
    sigma = math.sqrt(p * (1 - p) / 100_000)
    assert abs(result.populations[1, 0] - p) < 3 * sigma


def test_estimate_matches_exact_solution():
    ladder = build_ladder(4, 1.0)
    grid = np.linspace(0.05, 1.2, 8)
    result = estimate(ladder, 4, grid, n_traj=20_000, root_seed=12)
    exact = evaluate_distribution(ladder, 4, PrecisionPolicy(), grid).populations
    sigma = np.sqrt(np.clip(exact * (1 - exact), 0.0, None) / 20_000)
    mask = sigma > 0
    z = np.abs(result.populations[mask] - exact[mask]) / sigma[mask]
    assert (z > 3).mean() < 0.01


def test_partial_inversion_start():
    ladder = build_ladder(6, 1.0)
    grid = np.array([0.01, 0.3])
    result = estimate(ladder, 3, grid, n_traj=500, root_seed=3)
    assert np.array_equal(result.counts[4:], np.zeros((3, 2), dtype=np.int64))


@settings(max_examples=20)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2 ** 31))
def test_trajectory_is_deterministic_in_seed(n, seed):
    ladder = build_ladder(n, 1.0)
    first = sample_trajectory(ladder, n, np.random.default_rng((seed, 0)))
    second = sample_trajectory(ladder, n, np.random.default_rng((seed, 0)))
    assert np.array_equal(first.jump_times, second.jump_times)


def test_estimate_validates_arguments():
    ladder = build_ladder(2, 1.0)
    with pytest.raises(ValueError):
        estimate(ladder, 2, [0.1, 0.5], n_traj=0, root_seed=1)
    with pytest.raises(ValueError):
        estimate(ladder, 5, [0.1, 0.5], n_traj=10, root_seed=1)
    with pytest.raises(ValueError):
        estimate(ladder, 2, [0.1, 0.5], n_traj=10, root_seed=-1)


# --- the vectorised streams against the library generator -------------------

STREAM_SEEDS = [0, 1, 7001, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 128]


def library_rows(seed, start, stop, size):
    return np.array([np.random.default_rng((seed, i)).random(size)
                     for i in range(start, stop)]).reshape(stop - start, size)


@pytest.mark.parametrize("size", [0, 1, 12])
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_streams_equal_library_generator(seed, size):
    # also catches a numpy release that changes the stream (NEP 19 allows it)
    chunk = chunk_size(8)
    picks = np.random.default_rng(seed % 2 ** 32).integers(0, 10 ** 6, 6)
    for index in [0, 1, chunk - 1, chunk, *picks.tolist()]:
        draws, rebuilt = _uniform_streams(seed, index, index + 1, size)
        assert rebuilt == 0
        assert np.array_equal(draws, library_rows(seed, index, index + 1, size))
    # a range across a chunk boundary, rows side by side
    draws, _ = _uniform_streams(seed, chunk - 3, chunk + 3, size)
    assert np.array_equal(draws, library_rows(seed, chunk - 3, chunk + 3, size))


@pytest.mark.parametrize("start, size", [(2 ** 32, 4), (0, trajectories._VECTOR_DRAWS + 1)])
def test_indices_above_32_bits_and_long_streams_use_library(start, size):
    draws, rebuilt = _uniform_streams(5, start, start + 3, size)
    assert rebuilt == 3
    assert np.array_equal(draws, library_rows(5, start, start + 3, size))


# --- the 128-bit LCG on two uint64 words against Python ints ----------------

PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's LCG multiplier
MASK64 = 2 ** 64 - 1
LO_INV = pow(PCG_MULT & MASK64, -1, 2 ** 64)     # lo * low multiplier word = 1
HI = 0x0123456789ABCDEF << 64
RANDOM = random.Random(17)
# (state, increment) pairs; increments are odd, as PCG64's are
LCG_CASES = [
    (2 ** 128 - 1, 2 ** 128 - 1),                    # every word 2**64 - 1
    (HI | (MASK64 * LO_INV) & MASK64, 1),            # lo * M + inc_lo wraps to 0
    (HI | LO_INV, MASK64),                           # 1 + inc_lo wraps to 0
    (HI | ((MASK64 - 1) * LO_INV) & MASK64, 1),      # reaches 2**64 - 1, no carry
    (HI, MASK64),                                    # lo = 0
    (HI | 0xFFFFFFFF00000000, 3),                    # 32-bit halves at 0xFFFFFFFF:
    (HI | 0x00000000FFFFFFFF, 5),                    # the middle column at its
    (HI | MASK64, 7),                                # largest,
    (HI | MASK64, MASK64),                           # and with inc_lo's halves too
] + [(RANDOM.getrandbits(128), RANDOM.getrandbits(128) | 1) for _ in range(64)]
# those states, and states whose rotation hi >> 58 is 0 and 63
XSL_RR_STATES = [s for s, _ in LCG_CASES] + [
    (2 ** 58 - 1) << 64 | 0x0F0F0F0F0F0F0F0F, 0x0123 << 64 | MASK64,
    (MASK64 ^ (2 ** 58 - 1)) << 64 | 0x0F0F0F0F0F0F0F0F, (63 << 122) | 1]


def as_words(values):
    """(hi, lo) uint64 arrays of 128-bit Python ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & MASK64 for v in values], dtype=np.uint64))


def test_lcg_step_equals_python_ints():
    states, incs = zip(*LCG_CASES)
    # with and without a carry out of the low word
    assert {((s & MASK64) * PCG_MULT & MASK64) + (i & MASK64) > MASK64
            for s, i in LCG_CASES} == {False, True}
    hi, lo = as_words(states)
    inc_hi, inc_lo = as_words(incs)
    work = np.empty((4, len(states)), dtype=np.uint64)
    inc_halves = np.stack([inc_lo >> np.uint64(32), inc_lo & np.uint64(MASK64 >> 32)])
    trajectories._lcg_step(hi, lo, inc_hi, inc_lo, work, inc_halves)
    stepped = [(int(h) << 64) | int(w) for h, w in zip(hi, lo)]
    assert stepped == [(s * PCG_MULT + i) % 2 ** 128 for s, i in zip(states, incs)]


def test_xsl_rr_output_equals_python_ints():
    def xsl_rr(state):
        x, rot = (state >> 64) ^ (state & MASK64), state >> 122
        return ((x >> rot) | (x << (64 - rot))) & MASK64

    assert {s >> 122 for s in XSL_RR_STATES} >= {0, 63}
    hi, lo = as_words(XSL_RR_STATES)
    out = np.empty(len(XSL_RR_STATES), dtype=np.uint64)
    trajectories._xsl_rr(hi, lo, out, np.empty((2, len(XSL_RR_STATES)), dtype=np.uint64))
    assert out.tolist() == [xsl_rr(s) for s in XSL_RR_STATES]


def test_benchmark_request_counts_are_pinned():
    # the stream contract as a fixed value: any numpy release, any chunking
    ladder = build_ladder(8, 1.0)
    result = estimate(ladder, 8, np.linspace(0, 2, 50), n_traj=100_000, root_seed=7000)
    digest = hashlib.sha256(result.counts.astype("<i8").tobytes()).hexdigest()
    assert digest == "02fb87d14fb8e3313a162da9c4145445eeb1d59bd5de5eee06981fc594eb43cf"


# --- chunked counts against the per-trajectory loop --------------------------

def loop_counts(ladder, m0, grid, n_traj, seed):
    """One generator, one sample and one binning per trajectory, as the
    engine did before it worked in chunks."""
    grid = np.asarray(grid, dtype=float)
    counts = np.zeros((ladder.n_emitters + 1, grid.size), dtype=np.int64)
    rates = ladder.gamma * ladder.h_array()[m0:0:-1]
    cols = np.arange(grid.size)
    for idx in range(n_traj):
        rng = np.random.default_rng((seed, idx))
        draws = rng.random(m0)
        while (draws == 0.0).any():
            draws[draws == 0.0] = rng.random(int((draws == 0.0).sum()))
        jumps = np.cumsum(-np.log(draws) / rates)
        counts[m0 - np.searchsorted(jumps, grid, side="right"), cols] += 1
    return counts


@pytest.fixture
def short_chunks(monkeypatch):
    """A small chunk budget, so that the loop runs across chunk edges at
    every start state in a few thousand trajectories."""
    monkeypatch.setattr(trajectories, "CHUNK_ENTRIES", 1 << 11)


VECTOR_DRAWS = trajectories._VECTOR_DRAWS


@pytest.mark.parametrize("seed", [0, 21, 2 ** 40])
@pytest.mark.parametrize("n, m0", [(8, 8), (6, 3), (5, 0), (1, 1), (150, 150),
                                   # the longest chunked streams, the shortest library ones
                                   (VECTOR_DRAWS, VECTOR_DRAWS),
                                   (VECTOR_DRAWS + 1, VECTOR_DRAWS + 1)])
def test_chunked_counts_equal_per_trajectory_loop(n, m0, seed, short_chunks):
    ladder = build_ladder(n, 1.0)
    grid = np.linspace(0.0, 1.5, 200)
    if m0:
        # a grid time exactly on a jump: the post-jump state is occupied there
        rates = ladder.h_array()[m0:0:-1]
        jump = np.cumsum(-np.log(np.random.default_rng((seed, 2)).random(m0)) / rates)[-1]
        grid = np.sort(np.append(grid, jump))
    chunk = chunk_size(m0)
    for n_traj in (1, chunk - 1, chunk, chunk + 1):
        result = estimate(ladder, m0, grid, n_traj=n_traj, root_seed=seed)
        assert np.array_equal(result.counts, loop_counts(ladder, m0, grid, n_traj, seed))


def test_zero_draw_row_is_rebuilt_by_library(monkeypatch, short_chunks):
    pcg_uniforms = trajectories._pcg_uniforms

    def with_zero(root_seed, start, stop, size):
        draws = pcg_uniforms(root_seed, start, stop, size)
        draws[1, 2] = 0.0
        return draws

    monkeypatch.setattr(trajectories, "_pcg_uniforms", with_zero)
    draws, rebuilt = _uniform_streams(21, 40, 44, 5)
    assert rebuilt == 1
    assert np.array_equal(draws[1], _draw_open_unit(np.random.default_rng((21, 41)), 5))
    assert np.array_equal(draws[[0, 2, 3]], library_rows(21, 40, 44, 5)[[0, 2, 3]])
    # one row per chunk goes to the library; counts match the per-trajectory loop
    grid = np.linspace(0.0, 2.0, 200)
    n_traj = chunk_size(5) + 7
    result = estimate(build_ladder(5, 1.0), 5, grid, n_traj=n_traj, root_seed=21)
    assert result.library_streams == 2
    assert np.array_equal(result.counts, loop_counts(build_ladder(5, 1.0), 5, grid, n_traj, 21))


def test_chunk_record_matches_single_trajectories():
    ladder = build_ladder(6, 1.0)
    grid = np.linspace(0.0, 1.0, 7)
    draws, _ = _uniform_streams(3, 10, 15, 6)
    chunk = sample_trajectory(ladder, 6, draws, seed_index=10)
    total = np.zeros((7, 7), dtype=np.int64)
    for row in range(5):
        single = sample_trajectory(ladder, 6, np.random.default_rng((3, 10 + row)))
        assert np.array_equal(chunk.jump_times[row], single.jump_times)
        total += bin_trajectory(single, grid)
    assert np.array_equal(bin_trajectory(chunk, grid), total)


def test_chunk_size_bounds_every_chunk_array():
    for m0 in (0, 1, 8, 150, 4096):
        assert chunk_size(m0) >= 1
        assert chunk_size(m0) * m0 <= trajectories.CHUNK_ENTRIES
    assert chunk_size(8) == trajectories.CHUNK_ENTRIES // 8


def test_chunk_size_does_not_depend_on_grid():
    ladder = build_ladder(8, 1.0)
    n_traj = 2 * chunk_size(8) + 1
    metas = [solve_populations(ladder, times=np.linspace(0.0, 2.0, points), method="mc",
                               n_traj=n_traj, seed=5).meta for points in (50, 1000)]
    assert [m["chunk_size"] for m in metas] == [chunk_size(8)] * 2
    assert [m["chunks"] for m in metas] == [3, 3]


def test_mc_meta_records_chunk_statistics():
    ladder = build_ladder(3, 1.0)
    grid = np.linspace(0.01, 1.0, 200)
    chunk = chunk_size(3)
    table = solve_populations(ladder, times=grid, method="mc",
                              n_traj=2 * chunk + 1, seed=4)
    assert table.meta == {"method": "mc", "n_traj": 2 * chunk + 1, "seed": 4,
                          "chunk_size": chunk, "chunks": 3, "library_streams": 0}
