"""Completeness estimation by match counting (Sec. 7, Q_match).

A pattern matches a sample derivation when their goal annotations are
equal and, per variable position, the pattern has a placeholder or the
derivation's value; |matches in S| / |S| is an unbiased estimate of the
pattern's completeness (Def. 7) as long as the sample is unbiased
(Theorem 1).

The paper runs Q_match as a SQL join + group-count over the sample in
the DBMS. Ours is integer-coded on the driver, so the counts come from
chunked numpy comparisons: only the counts are kept, never a
patterns × rows matrix.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.patterns.pattern import Pattern

if TYPE_CHECKING:
    from repro.summarize.metrics import _RuleRows

#: Pattern × row cells compared per chunk; bounds the chunk's working arrays.
CHUNK_CELLS = 1 << 17


def count_matches(
    pat_codes: np.ndarray,
    pat_goals: np.ndarray,
    codes: np.ndarray,
    goal_ids: np.ndarray,
) -> np.ndarray:
    """Q_match over integer codes: for each pattern (a row of
    ``pat_codes`` with -1 for a placeholder, goal id ``pat_goals``), the
    number of sample rows (``codes``, ``goal_ids``) it matches."""
    counts = np.zeros(len(pat_codes), dtype=np.int64)
    for gid in np.unique(pat_goals):
        pidx = np.flatnonzero(pat_goals == gid)
        rows = codes[goal_ids == gid]
        if len(rows) == 0:
            continue
        step = max(1, CHUNK_CELLS // len(rows))
        for lo in range(0, len(pidx), step):
            chunk = pat_codes[pidx[lo:lo + step]]
            match = np.ones((len(chunk), len(rows)), dtype=bool)
            for c in range(codes.shape[1]):
                p = chunk[:, c][:, None]
                match &= (p == rows[:, c][None, :]) | (p < 0)
            counts[pidx[lo:lo + step]] = match.sum(axis=1)
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


def collect_patterns(
    rows: "_RuleRows",
    rule_id: str,
    var_cols: list[str],
    pat_codes: np.ndarray,
    pat_goals: np.ndarray,
    counts: np.ndarray,
) -> list[Pattern]:
    """Decode coded patterns and their match counts over ``rows`` (one
    rule's coded sample) into driver-side :class:`Pattern` objects.

    ``cp`` = weight · match_count / |sample|, where the weight is the
    rule's estimated share of |PROV(Φ)| (1.0 for single-rule queries).
    """
    n = len(rows)
    var_names = tuple(var_cols)
    return [
        Pattern(
            rule_id=rule_id,
            var_names=var_names,
            args=rows.decode(pc),
            goals=rows.goal_vectors[g],
            cp=rows.weight * count / n if n else 0.0,
            count=count,
        )
        for pc, g, count in zip(
            pat_codes.tolist(), pat_goals.tolist(), counts.tolist()
        )
    ]
