"""Counter-addressed standard normals: Philox4x64-10 bits, Box-Muller output.

Every normal deviate produced by this package is addressed by an explicit
128+256-bit (key, counter) tuple, so a draw is a pure function of its
address: identical addresses give identical deviates, distinct addresses
give statistically independent ones, and the order in which draws are
requested is irrelevant.  One Philox block (4 words) yields 4 normals via
two exact Box-Muller transforms; no approximation to the normal CDF is
involved anywhere.

The bits come from numpy's C Philox4x64-10 (``numpy.random.Philox``, the
Random123 bijection of Salmon et al., SC'11); the test suite checks them
against an independent pure-Python implementation.  That generator emits
the outputs of consecutive counters (word 0 counts, carrying upward),
so one ``random_raw`` call covers a whole run of consecutive word-0 values.
"""

from __future__ import annotations

import numpy as np

_SH11 = np.uint64(11)
_U53 = 2.0 ** -53
_MASK64 = 2**64 - 1
_LANE_GROUP = 16
_CHUNK = 1 << 17


def _to_open_unit(w):
    """uint64 -> double in (0, 1] using the top 53 bits."""
    return ((w >> _SH11) + np.uint64(1)).astype(np.float64) * _U53


def _to_halfopen_unit(w):
    """uint64 -> double in [0, 1) using the top 53 bits."""
    return (w >> _SH11).astype(np.float64) * _U53


def _runs(flat):
    """(first, stop) positions of the maximal runs of consecutive values
    in a non-empty flat uint64 array."""
    step_one = (flat[1:] - flat[:-1] == 1) & (flat[:-1] != np.uint64(_MASK64))
    edges = [0, *(np.flatnonzero(~step_one) + 1).tolist(), flat.size]
    return list(zip(edges[:-1], edges[1:]))


def chunk_paths(lanes):
    """Paths per chunk of `_CHUNK` counters when each path takes `lanes`
    counters: the unit `normal_block` draws in, and the slice size of every
    per-path computation over such a draw (at least one path)."""
    return max(1, _CHUNK // lanes)


def _philox_words(bitgen, flat, word1, lanes):
    """The 4 output words of counters (p, word1[c], b, j) for p in `flat`
    and (b, j, c) in `lanes`, shaped (4, flat.size, len(lanes))."""
    words = np.empty((4, flat.size, len(lanes)), dtype=np.uint64)
    # numpy advances the counter before each block, so every run starts one
    # counter below its first address (a borrow through the 256-bit value).
    counter = np.empty(4, dtype=np.uint64)
    state = bitgen.state
    state["state"]["counter"] = counter
    state["buffer_pos"] = 4
    for first, stop in _runs(flat):
        start, n = int(flat[first]), stop - first
        # Lanes go through a small buffer, _LANE_GROUP at a time, so that the
        # transposed writes into `words` fill whole cache lines.
        buf = np.empty((_LANE_GROUP, n, 4), dtype=np.uint64)
        for g0 in range(0, len(lanes), _LANE_GROUP):
            group = lanes[g0:g0 + _LANE_GROUP]
            for g, (b, j, c) in enumerate(group):
                below = (start | word1[c] << 64 | b << 128 | j << 192) - 1
                for k in range(4):
                    counter[k] = (below >> (64 * k)) & _MASK64
                bitgen.state = state
                buf[g] = bitgen.random_raw(4 * n).reshape(n, 4)
            words[:, first:stop, g0:g0 + len(group)] = buf[:len(group)].transpose(2, 1, 0)
    return words


def normal_block(paths, word1, n_word2, n_word3, key):
    """Four standard normals per Philox counter (p, w1, w2, w3).

    p runs over the integer array ``paths`` (any shape and order), w1 over
    the 1-D array ``word1``, w2 over range(n_word2) and w3 over
    range(n_word3).  Returns ``paths.shape + (n_word2, 4, n_word3,
    len(word1))``: the normals of counter (p, word1[c], b, j) sit at
    [p, b, :, j, c].  Words (0,1) and (2,3) of each block feed one
    Box-Muller transform each; the four outputs are mutually independent.
    """
    paths = np.asarray(paths, dtype=np.uint64)
    flat = paths.reshape(-1)
    word1 = [int(w) for w in np.asarray(word1, dtype=np.uint64)]
    lanes = [(b, j, c) for b in range(n_word2) for j in range(n_word3)
             for c in range(len(word1))]
    # One generator per call: callers draw from several threads at once.
    bitgen = np.random.Philox(key=np.asarray(key, dtype=np.uint64))
    out = np.empty(paths.shape + (n_word2, 4, n_word3, len(word1)), dtype=np.float64)
    out_rows = out.reshape((flat.size, n_word2, 4, n_word3 * len(word1)))
    # Paths go _CHUNK counters at a time, which bounds the raw words and the
    # Box-Muller temporaries held beside the output.
    step = chunk_paths(len(lanes))
    for p0 in range(0, flat.size, step):
        words = _philox_words(bitgen, flat[p0:p0 + step], word1, lanes)
        words = words.reshape((4, -1, n_word2, n_word3 * len(word1)))
        rows = out_rows[p0:p0 + step]
        for half in range(2):
            r = np.sqrt(-2.0 * np.log(_to_open_unit(words[2 * half])))
            theta = (2.0 * np.pi) * _to_halfopen_unit(words[2 * half + 1])
            rows[:, :, 2 * half] = r * np.cos(theta)
            rows[:, :, 2 * half + 1] = r * np.sin(theta)
    return out
