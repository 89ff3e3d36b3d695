"""Completeness estimation by match counting (Sec. 7, Q_match).

A pattern matches a sample derivation when their goal annotations are
equal and, per variable position, the pattern has a placeholder or the
derivation's value; |matches in S| / |S| is an unbiased estimate of the
pattern's completeness (Def. 7) as long as the sample is unbiased
(Theorem 1).

The paper runs Q_match as a SQL join + group-count over the sample in
the DBMS. Ours is integer-coded on the driver, so Q_match runs over
packed row bitsets (:class:`RowBits`): a pattern's match set is the AND
of its goal group's set and, per column, the set of rows holding its
code there, and its count is a popcount. Patterns go through in chunks,
so only the counts are kept, never a patterns × rows matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.patterns.pattern import Pattern

if TYPE_CHECKING:
    from repro.summarize.metrics import _RuleRows

#: Pattern × 64-row words matched per chunk; bounds the chunk's working arrays.
CHUNK_WORDS = 1 << 16

#: Set bits of every byte value (numpy 1.26 has no ``bitwise_count``).
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)

#: Row-set words: bit i of word w is row 64·w + i. Little-endian, so the
#: words viewed as bytes are the rows in order, 8 to a byte.
_WORD = np.dtype("<u8")


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits in each row of a 2-D word array."""
    return _POPCOUNT[words.view(np.uint8)].sum(axis=1, dtype=np.int64)


def unpack(words: np.ndarray, n_rows: int) -> np.ndarray:
    """Row sets over ``n_rows`` rows, given as words (one set a row, as
    :meth:`RowBits.match` returns them), as (sets, rows) booleans."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=n_rows, bitorder="little")
    return bits.view(bool)


def _row_sets(keys: np.ndarray, n_keys: int, n_words: int) -> np.ndarray:
    """(n_keys, n_words) words: row ``k`` is the set of rows i with
    ``keys[i] == k``; a negative key is in no set."""
    rows = np.flatnonzero(keys >= 0)
    sets = np.zeros((n_keys, n_words), dtype=_WORD)
    bits = np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))
    np.bitwise_or.at(sets, (keys[rows], rows >> 6), bits)
    return sets


class RowBits:
    """One rule sample's rows as packed bitsets.

    ``columns[c][code]`` is the set of rows whose column c holds
    ``code``; its last row, the one a placeholder's code -1 indexes, is
    every row. ``goals[g]`` is the set of rows with goal id g. Codes and
    goal ids are dense from 0, as :class:`SampleStore` assigns them.
    """

    def __init__(self, codes: np.ndarray, goal_ids: np.ndarray):
        n = len(goal_ids)
        n_words = -(-n // 64)
        every = np.full((1, n_words), np.iinfo(np.uint64).max, dtype=_WORD)
        if n % 64:
            every[0, -1] = (1 << (n % 64)) - 1
        self.columns = [
            np.concatenate([
                _row_sets(codes[:, c], int(codes[:, c].max(initial=-1)) + 1, n_words),
                every,
            ])
            for c in range(codes.shape[1])
        ]
        self.goals = _row_sets(goal_ids, int(goal_ids.max(initial=-1)) + 1, n_words)

    @property
    def n_words(self) -> int:
        return self.goals.shape[1]

    def match(self, pat_codes: np.ndarray, pat_goals: np.ndarray) -> np.ndarray:
        """Match sets of patterns (rows of ``pat_codes``, -1 for a
        placeholder, goal ids ``pat_goals``): (patterns, words)."""
        out = self.goals[pat_goals]
        for c, sets in enumerate(self.columns):
            out &= sets[pat_codes[:, c]]
        return out


def count_matches(
    pat_codes: np.ndarray, pat_goals: np.ndarray, bits: RowBits
) -> np.ndarray:
    """Q_match over integer codes: for each pattern (a row of
    ``pat_codes`` with -1 for a placeholder, goal id ``pat_goals``), the
    number of sample rows (``bits``) it matches."""
    counts = np.zeros(len(pat_codes), dtype=np.int64)
    step = max(1, CHUNK_WORDS // max(1, bits.n_words))
    for lo in range(0, len(pat_codes), step):
        chunk = slice(lo, lo + step)
        counts[chunk] = popcount(bits.match(pat_codes[chunk], pat_goals[chunk]))
    return counts


def match_reference(
    patterns: list[tuple[tuple, tuple[bool, ...]]],
    rows: list[tuple[tuple, tuple[bool, ...]]],
) -> dict[tuple[tuple, tuple[bool, ...]], int]:
    """Pure-Python match counting — test oracle for Q_match."""
    out: dict[tuple[tuple, tuple[bool, ...]], int] = {}
    for p_args, p_goals in patterns:
        n = sum(
            1
            for d_args, d_goals in rows
            if d_goals == p_goals
            and all(a is None or a == d for a, d in zip(p_args, d_args))
        )
        out[(p_args, p_goals)] = n
    return out


@dataclass
class Candidates:
    """One rule's LCA candidates, integer-coded as in ``rows``, with
    their match counts over ``bits``, the rows' bitsets they were counted
    on; decoded into :class:`Pattern` objects on demand."""

    rule_id: str
    var_names: tuple[str, ...]
    rows: "_RuleRows"
    bits: RowBits
    codes: np.ndarray  # (m, v) int64, -1 = placeholder
    goals: np.ndarray  # (m,) goal ids
    counts: np.ndarray  # (m,) int64

    def __len__(self) -> int:
        return len(self.counts)

    def cp(self) -> np.ndarray:
        """Each candidate's ``Pattern.cp``: weight · match count / |sample|,
        the weight being the rule's estimated share of |PROV(Φ)|."""
        return self.rows.weight * self.counts / len(self.rows)

    def info(self) -> np.ndarray:
        """Each candidate's ``Pattern.info()``, computed the same way."""
        n_cols = self.codes.shape[1]
        if not n_cols:
            return np.ones(len(self))
        return (self.codes >= 0).sum(axis=1) / n_cols

    def match(self, idx: np.ndarray) -> np.ndarray:
        """Match sets of the candidates at ``idx``, as :meth:`RowBits.match`
        returns them."""
        return self.bits.match(self.codes[idx], self.goals[idx])

    def patterns(self, idx: np.ndarray | slice = slice(None)) -> list[Pattern]:
        """The candidates at ``idx``, decoded, in that order."""
        cps = self.cp()[idx].tolist()
        return [
            Pattern(
                rule_id=self.rule_id,
                var_names=self.var_names,
                args=self.rows.decode(pc),
                goals=self.rows.goal_vectors[g],
                cp=cp,
                count=count,
            )
            for pc, g, cp, count in zip(
                self.codes[idx].tolist(), self.goals[idx].tolist(), cps,
                self.counts[idx].tolist(),
            )
        ]
