"""The counter-based generator against an independent pure-Python Philox.

The engine takes its bits from numpy's C Philox4x64-10.  The oracle below
is a separate implementation on Python integers (Random123 multipliers,
Weyl key schedule, 10 rounds), so every check compares two independent
codes: the engine's counter set-up (runs of consecutive paths, the word-1
borrow at path 0, 64-bit seeds) is exercised end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetcalc import philox
from sheetcalc.lattice import Channel, Stream, normal_grid
from sheetcalc.philox import normal_block

U64 = st.integers(min_value=0, max_value=2**64 - 1)
MASK = 2**64 - 1
M0, M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
WEYL0, WEYL1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
KEY_SALT = 0x243F6A8885A308D3  # key word 1 of the lattice's counter layout


def philox4x64_10(ctr, key):
    """Random123 Philox4x64-10 on Python ints: 4 output words."""
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + WEYL0) & MASK, (k1 + WEYL1) & MASK
        p0, p1 = M0 * c0, M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & MASK, (p0 >> 64) ^ c3 ^ k1, p0 & MASK
    return c0, c1, c2, c3


def box_muller(words):
    """(..., 4) uint64 words -> (..., 4) normals by the exact transform:
    words (0,1) and (2,3) each give (r cos theta, r sin theta)."""
    w = np.ascontiguousarray(np.moveaxis(np.asarray(words, dtype=np.uint64), -1, 0))
    out = np.empty(w.shape[1:] + (4,))
    for half in range(2):
        u = ((w[2 * half] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        v = (w[2 * half + 1] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u))
        theta = (2.0 * np.pi) * v
        out[..., 2 * half] = r * np.cos(theta)
        out[..., 2 * half + 1] = r * np.sin(theta)
    return out


def oracle_grid(seed, paths, stream, n_i, n_j, m, channel=0):
    """normal_grid from the oracle: counter (path, stream | channel << 8 |
    component << 32, i // 4, j), key (seed, KEY_SALT), lane i % 4."""
    paths = np.asarray(paths, dtype=np.uint64)
    words = np.empty(paths.shape + (n_i, n_j, m, 4), dtype=np.uint64)
    lanes = np.empty(paths.shape + (n_i, n_j, m), dtype=np.intp)
    for idx in np.ndindex(paths.shape):
        for i in range(n_i):
            for j in range(n_j):
                for c in range(m):
                    word1 = int(stream) | channel << 8 | c << 32
                    ctr = (int(paths[idx]), word1, i // 4, j)
                    words[idx + (i, j, c)] = philox4x64_10(ctr, (seed, KEY_SALT))
                    lanes[idx + (i, j, c)] = i % 4
    z = box_muller(words)
    return np.take_along_axis(z, lanes[..., None], axis=-1)[..., 0]


def test_oracle_known_answers():
    """Random123's published Philox4x64-10 test vectors."""
    assert philox4x64_10((0, 0, 0, 0), (0, 0)) == (
        0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)
    assert philox4x64_10((MASK,) * 4, (MASK, MASK)) == (
        0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)
    assert philox4x64_10(
        (0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
        (0x452821E638D01377, 0xBE5466CF34E90C6C),
    ) == (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)


@given(U64, U64, U64, U64)
@settings(max_examples=100, deadline=None)
def test_normal_block_matches_oracle(c0, c1, k0, k1):
    """One counter (c0, c1, 0, 0) anywhere in the 64-bit words, including
    c0 = 0 (the start borrows through word 1) and keys above 2**63."""
    got = normal_block(c0, np.array([c1], dtype=np.uint64), 1, 1, (k0, k1))
    want = box_muller(philox4x64_10((c0, c1, 0, 0), (k0, k1)))
    assert got.shape == (1, 4, 1, 1)
    assert np.array_equal(got[0, :, 0, 0], want)


@pytest.mark.parametrize("seed, paths, stream, n_i, n_j, m, channel", [
    # path 0: numpy's pre-increment makes the run start borrow from word 1
    (3, np.arange(5), Stream.CELLS, 6, 3, 1, 0),
    # seeds at and above 2**63 (plain-int coercion is lossy there)
    (2**63 + 1, np.arange(10, 14), Stream.CELLS, 4, 2, 1, 0),
    (2**64 - 1, np.arange(2), Stream.BOUNDARY_S, 5, 1, 1, 0),
    # unsorted, with gaps and repeats: several runs of consecutive paths
    (11, np.array([5, 3, 4, 9, 10, 11, 0, 1, 4]), Stream.BOUNDARY_T, 5, 2, 2, 3),
    # a 2-D path array
    (11, np.array([[7, 8, 9], [2, 0, 1]]), Stream.OU_LEVELS, 4, 3, 1, 2),
    # scalar paths, including path 0
    (5, 0, Stream.CELLS, 7, 5, 2, 0),
    (5, 17, Stream.PROBE, 8, 1, 3, 0),
    # m > 1 on a named channel
    (9, np.arange(3), Stream.BOUNDARY_S, 9, 1, 3, Channel.Q_S0),
    # word 0 at its maximum: the next path index is not the next counter
    (1, np.array([2**64 - 2, 2**64 - 1, 0, 1], dtype=np.uint64), Stream.CELLS, 4, 1, 1, 0),
])
def test_normal_grid_matches_oracle(seed, paths, stream, n_i, n_j, m, channel):
    got = normal_grid(seed, paths, stream, n_i, n_j, m, channel=channel)
    want = oracle_grid(seed, paths, stream, n_i, n_j, m, channel)
    assert got.shape == np.shape(paths) + (n_i, n_j, m)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_normal_grid_batch_matches_scalar_draws():
    paths = np.array([[40, 41, 42], [7, 3, 100]])
    batch = normal_grid(8, paths, Stream.CELLS, 10, 6, 2)
    for idx in np.ndindex(paths.shape):
        single = normal_grid(8, int(paths[idx]), Stream.CELLS, 10, 6, 2)
        assert np.array_equal(batch[idx], single)


def test_normal_grid_batch_spanning_chunks_matches_scalar_draws():
    """A batch long enough to be drawn in several chunks of counters."""
    lanes = 32  # n_i = 128 rows, n_j = m = 1
    step = philox._CHUNK // lanes
    batch = normal_grid(8, np.arange(2 * step + 5), Stream.BOUNDARY_S, 128, 1, 1)
    for p in (0, step - 1, step, 2 * step, 2 * step + 4):
        assert np.array_equal(batch[p], normal_grid(8, p, Stream.BOUNDARY_S, 128, 1, 1))


def test_normal_block_moments():
    z = normal_block(np.arange(200000), np.array([1], dtype=np.uint64), 1, 1, (11, 12)).ravel()
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    skew = np.mean(z**3)
    kurt = np.mean(z**4)
    assert abs(skew) < 4.0 * np.sqrt(15.0 / n)
    assert abs(kurt - 3.0) < 4.0 * np.sqrt(96.0 / n)


def test_normal_block_pure_function():
    args = (np.array([5, 9]), np.array([6, 7], dtype=np.uint64), 2, 3)
    a = normal_block(*args, (1, 2))
    b = normal_block(*args, (1, 2))
    assert np.array_equal(a, b)
    c = normal_block(*args, (1, 3))
    assert not np.array_equal(a, c)
