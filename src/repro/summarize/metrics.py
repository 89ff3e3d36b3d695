"""Quality metrics for summaries (Sec. 3.4) evaluated over the sample.

The score of a summary S is the harmonic mean of completeness cp(S) and
informativeness info(S). cp(S) needs the size of the *union* of match
sets; :class:`SampleStore` holds the per-rule sample derivations on the
driver, integer-coded, and computes that union exactly over the sample.
For multi-rule (UCQ) questions each rule's sample is weighted by the
rule's (estimated) share of |PROV(Φ)|.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.patterns.pattern import Pattern


def harmonic(cp: float, info: float) -> float:
    """sc(S) = 2·cp·info / (cp + info); 0 when both are 0."""
    if cp + info == 0:
        return 0.0
    return 2.0 * cp * info / (cp + info)


def info_of_set(patterns: Iterable[Pattern]) -> float:
    """info(S): average informativeness of the member patterns."""
    ps = list(patterns)
    if not ps:
        return 0.0
    return sum(p.info() for p in ps) / len(ps)


@dataclass
class _RuleRows:
    """One rule's sample as integer codes.

    ``codes[i, c]`` is the code of row i's value in column c (-1 for
    None); ``values[c][code]`` is that value, codes following the sorted
    order of the column's distinct values. ``goal_ids[i]`` indexes
    ``goal_vectors``, the sorted distinct goal-annotation vectors.
    """

    codes: np.ndarray  # (n, v) int64
    values: list[list]  # per column, code → value
    index: list[dict] = field(repr=False)  # per column, value → code
    goal_ids: np.ndarray  # (n,) int64
    goal_vectors: list[tuple[bool, ...]]
    weight: float

    @classmethod
    def encode(
        cls, rows: Sequence[tuple[tuple, tuple[bool, ...]]], weight: float
    ) -> "_RuleRows":
        n_cols = len(rows[0][0]) if rows else 0
        values = [
            sorted({r[0][c] for r in rows} - {None}) for c in range(n_cols)
        ]
        index = [{v: i for i, v in enumerate(col)} for col in values]
        goal_vectors = sorted({r[1] for r in rows})
        goal_index = {g: i for i, g in enumerate(goal_vectors)}
        codes = np.array(
            [
                [-1 if a is None else ix[a] for a, ix in zip(r[0], index)]
                for r in rows
            ],
            dtype=np.int64,
        ).reshape(len(rows), n_cols)
        goal_ids = np.array([goal_index[r[1]] for r in rows], dtype=np.int64)
        return cls(codes, values, index, goal_ids, goal_vectors, weight)

    def __len__(self) -> int:
        return len(self.goal_ids)

    def decode(self, code_row: Sequence[int]) -> tuple:
        """Values of one code row; -1 (placeholder or None) decodes to None."""
        return tuple(
            None if c < 0 else col[c] for c, col in zip(code_row, self.values)
        )

    @property
    def args(self) -> list[tuple]:
        """The sample rows' variable bindings, decoded."""
        return [self.decode(r) for r in self.codes.tolist()]

    @property
    def goals(self) -> list[tuple[bool, ...]]:
        """The sample rows' goal-annotation vectors, decoded."""
        return [self.goal_vectors[g] for g in self.goal_ids.tolist()]


@dataclass
class SampleStore:
    """Driver-side sample of PROV(Φ), grouped by rule, with rule weights
    summing to 1 (a single-rule question has weight 1.0)."""

    rules: dict[str, _RuleRows] = field(default_factory=dict)

    def add_rule(
        self,
        rule_id: str,
        rows: Sequence[tuple[tuple, tuple[bool, ...]]],
        weight: float,
    ) -> None:
        self.rules[rule_id] = _RuleRows.encode(rows, weight)

    def normalize_weights(self) -> None:
        total = sum(r.weight for r in self.rules.values())
        if total > 0:
            for r in self.rules.values():
                r.weight /= total

    def n_rows(self, rule_id: str) -> int:
        return len(self.rules[rule_id])

    def _mask(self, p: Pattern) -> np.ndarray:
        """Boolean vector over the pattern's rule-sample: which sample
        derivations match p (same goal vector and, at every constant of
        p, the same value). A constant absent from the sample matches
        nothing."""
        rows = self.rules[p.rule_id]
        try:
            gid = rows.goal_vectors.index(p.goals)
            consts = [
                (c, rows.index[c][a]) for c, a in enumerate(p.args) if a is not None
            ]
        except (ValueError, KeyError):
            return np.zeros(len(rows), dtype=bool)
        mask = rows.goal_ids == gid
        for c, code in consts:
            mask &= rows.codes[:, c] == code
        return mask

    def mask_matrix(self, patterns: Sequence[Pattern]) -> tuple[np.ndarray, np.ndarray]:
        """(masks, w): ``masks[i]`` marks the sample rows, over all rules
        laid end to end, that ``patterns[i]`` matches; row r of rule R has
        weight ``w[r] = weight_R / n_R``, so cp(S) = w · OR(masks of S)."""
        offsets, start = {}, 0
        for rule_id, rows in self.rules.items():
            offsets[rule_id] = start
            start += len(rows)
        masks = np.zeros((len(patterns), start), dtype=bool)
        for i, p in enumerate(patterns):
            off = offsets[p.rule_id]
            m = self._mask(p)
            masks[i, off:off + len(m)] = m
        w = np.concatenate(
            [np.full(len(r), r.weight / len(r)) for r in self.rules.values() if len(r)]
            or [np.zeros(0)]
        )
        return masks, w

    def cp_of_pattern(self, p: Pattern) -> float:
        rows = self.rules[p.rule_id]
        n = len(rows)
        if n == 0:
            return 0.0
        return rows.weight * float(self._mask(p).sum()) / n

    def cp_of_set(self, patterns: Iterable[Pattern]) -> float:
        """cp(S) over the sample: per rule, the fraction of sample
        derivations matched by ≥ 1 pattern, weighted by rule share."""
        by_rule: dict[str, list[Pattern]] = {}
        for p in patterns:
            by_rule.setdefault(p.rule_id, []).append(p)
        total = 0.0
        for rule_id, ps in by_rule.items():
            rows = self.rules[rule_id]
            n = len(rows)
            if n == 0:
                continue
            union = np.zeros(n, dtype=bool)
            for p in ps:
                union |= self._mask(p)
            total += rows.weight * float(union.sum()) / n
        return total

    def score_of_set(self, patterns: Iterable[Pattern]) -> float:
        ps = list(patterns)
        return harmonic(self.cp_of_set(ps), info_of_set(ps))
