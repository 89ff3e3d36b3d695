"""Pattern candidate generation via the LCA heuristic (Sec. 6).

Q_lca pairs sample derivations with equal goal annotations and
generalizes each pair: positions where the pair agrees keep the
constant, positions where it disagrees become a placeholder. Every
candidate therefore matches ≥ 2 sample derivations (≥ 1 for self-pairs),
and at most |S|² candidates are generated instead of the
O((|𝔻|+n)ⁿ·2^m) full pattern space.

The paper writes Q_lca as a SQL self-join because its sample lives in the
DBMS. Ours is collected to the driver and integer-coded (-1 for None,
which like the paper's NULL never equals anything and so acts as a
placeholder), so Q_lca runs here in numpy: per goal group and per chunk
of rows, each pair's LCA is packed into int64 words (column c stores
code + 1 in its own bit field, 0 being the placeholder). Each chunk's
words are deduplicated through a hash table (``pandas.unique``), which
costs no sort; the union of the chunks is then sorted once.
"""
from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np
import pandas as pd

#: Row pairs generalized per chunk; bounds the chunk's working arrays.
CHUNK_PAIRS = 1 << 17


def _word_layout(codes: np.ndarray) -> list[list[tuple[int, int, int]]]:
    """Columns packed into int64 words: per word, (column, shift, bits)
    triples with ≤ 63 bits in total, so keys stay non-negative."""
    words: list[list[tuple[int, int, int]]] = [[]]
    used = 0
    for c in range(codes.shape[1]):
        bits = int(codes[:, c].max(initial=-1) + 1).bit_length()
        if used + bits > 63:
            words.append([])
            used = 0
        words[-1].append((c, used, bits))
        used += bits
    return words


def _pack(a: np.ndarray, b: np.ndarray, layout) -> np.ndarray:
    """LCA keys of every pair (a[i], b[j]): shape (len(a) · len(b), words)."""
    keys = np.zeros((len(a), len(b), len(layout)), dtype=np.int64)
    for w, cols in enumerate(layout):
        for c, shift, _ in cols:
            x, y = a[:, c][:, None], b[:, c][None, :]
            keys[:, :, w] |= np.where(x == y, x + 1, 0) << shift
    return keys.reshape(-1, len(layout))


def _distinct_rows(keys: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D int64 array, in no set order."""
    if keys.shape[1] == 1:
        return pd.unique(keys[:, 0])[:, None]
    return keys[~pd.DataFrame(keys).duplicated().to_numpy()]


def _unique_rows(keys: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D int64 array, sorted."""
    if keys.shape[1] == 1:
        return np.unique(keys[:, 0])[:, None]
    void = np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))
    flat = np.unique(np.ascontiguousarray(keys).view(void).ravel())
    return flat.view(keys.dtype).reshape(-1, keys.shape[1])


def _unpack(keys: np.ndarray, layout, n_cols: int) -> np.ndarray:
    out = np.empty((len(keys), n_cols), dtype=np.int64)
    for w, cols in enumerate(layout):
        for c, shift, bits in cols:
            out[:, c] = ((keys[:, w] >> shift) & ((1 << bits) - 1)) - 1
    return out


def lca_codes(
    codes: np.ndarray, goal_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Q_lca over an integer-coded sample.

    ``codes`` is (n, v) with -1 for None, ``goal_ids`` (n,) identifies
    each row's goal vector. Returns the distinct LCAs of all pairs of rows
    with equal goal ids, self-pairs included, as (codes with -1 for a
    placeholder, goal ids), ordered by goal id, then packed key.
    """
    n_cols = codes.shape[1]
    layout = _word_layout(codes)
    out_codes, out_goals = [], []
    for gid in np.unique(goal_ids):
        group = codes[goal_ids == gid]
        g = len(group)
        step = max(1, CHUNK_PAIRS // g)
        parts = []
        for lo in range(0, g, step):
            # rows lo..lo+step-1 paired with rows lo..g-1 cover every i ≤ j
            parts.append(_distinct_rows(_pack(group[lo:lo + step], group[lo:], layout)))
        keys = _unique_rows(np.concatenate(parts))
        out_codes.append(_unpack(keys, layout, n_cols))
        out_goals.append(np.full(len(keys), gid, dtype=np.int64))
    if not out_codes:
        return np.empty((0, n_cols), dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(out_codes), np.concatenate(out_goals)


def lca_reference(
    rows: list[tuple[tuple, tuple[bool, ...]]]
) -> set[tuple[tuple, tuple[bool, ...]]]:
    """Pure-Python LCA over (args, goals) rows — test oracle for Q_lca."""
    out: set[tuple[tuple, tuple[bool, ...]]] = set()
    for (a_args, a_goals), (b_args, b_goals) in combinations_with_replacement(
        rows, 2
    ):
        if a_goals != b_goals:
            continue
        merged = tuple(x if x == y else None for x, y in zip(a_args, b_args))
        out.add((merged, a_goals))
    return out
