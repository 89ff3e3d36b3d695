"""Quality metrics for summaries (Sec. 3.4) evaluated over the sample.

The score of a summary S is the harmonic mean of completeness cp(S) and
informativeness info(S). cp(S) needs the size of the *union* of match
sets; :class:`SampleStore` holds the per-rule sample derivations on the
driver, integer-coded, and computes that union exactly over the sample,
from the same packed row bitsets as Q_match.
For multi-rule (UCQ) questions each rule's sample is weighted by the
rule's (estimated) share of |PROV(Φ)|.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.patterns.matching import RowBits, popcount, unpack
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

    def bits(self) -> RowBits:
        """The rows as packed bitsets (about 0.3 ms at S1K, 5 ms at S10K).
        A question builds them once, in phase 3, and its ``Candidates``
        keep them for the top-k search. The store does not: a
        :class:`Summary` keeps its store, and the sets take up to n²/8
        bytes (a column of n distinct values)."""
        return RowBits(self.codes, self.goal_ids)

    def cp(self, words: np.ndarray) -> float:
        """This rule's share of cp(S): weight · |rows in any of the match
        sets ``words`` (as :meth:`RowBits.match` returns them)| / n."""
        union = np.bitwise_or.reduce(words, axis=0)
        return self.weight * float(popcount(union[None, :])[0]) / len(self)

    def encode_pattern(self, p: Pattern) -> tuple[list[int], int] | None:
        """``p``'s codes (-1 for a placeholder) and goal id, or None when
        a constant or the goal vector of ``p`` is absent from the sample,
        so that ``p`` matches nothing."""
        try:
            gid = self.goal_vectors.index(p.goals)
            codes = [-1 if a is None else ix[a] for a, ix in zip(p.args, self.index)]
        except (ValueError, KeyError):
            return None
        return codes, gid

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
        """Scale the rules' raw weights (their shares of |PROV(Φ)|) to sum to 1."""
        total = sum(r.weight for r in self.rules.values())
        if total > 0:
            for r in self.rules.values():
                r.weight /= total

    def n_rows(self, rule_id: str) -> int:
        return len(self.rules[rule_id])

    def _match(self, rule_id: str, patterns: Sequence[Pattern]) -> np.ndarray:
        """Match sets, as :meth:`RowBits.match` words, of patterns of one
        rule; a pattern :meth:`_RuleRows.encode_pattern` rejects matches
        nothing."""
        rows = self.rules[rule_id]
        bits = rows.bits()
        coded = [rows.encode_pattern(p) for p in patterns]
        found = [i for i, c in enumerate(coded) if c is not None]
        words = np.zeros((len(patterns), bits.n_words), dtype=bits.goals.dtype)
        if found:
            codes = np.array([coded[i][0] for i in found], dtype=np.int64)
            codes = codes.reshape(len(found), rows.codes.shape[1])
            goals = np.array([coded[i][1] for i in found], dtype=np.int64)
            words[found] = bits.match(codes, goals)
        return words

    def _mask(self, p: Pattern) -> np.ndarray:
        """Boolean vector over the pattern's rule-sample: which sample
        derivations match p (same goal vector and, at every constant of
        p, the same value). A constant absent from the sample matches
        nothing."""
        return unpack(self._match(p.rule_id, [p]), self.n_rows(p.rule_id))[0]

    def cp_of_pattern(self, p: Pattern) -> float:
        return self.cp_of_set([p])

    def cp_of_set(self, patterns: Iterable[Pattern]) -> float:
        """cp(S) over the sample: per rule, the fraction of sample
        derivations matched by ≥ 1 pattern, weighted by rule share."""
        by_rule: dict[str, list[Pattern]] = {}
        for p in patterns:
            by_rule.setdefault(p.rule_id, []).append(p)
        total = 0.0
        for rule_id, ps in by_rule.items():
            if self.n_rows(rule_id):
                total += self.rules[rule_id].cp(self._match(rule_id, ps))
        return total

    def score_of_set(self, patterns: Iterable[Pattern]) -> float:
        ps = list(patterns)
        return harmonic(self.cp_of_set(ps), info_of_set(ps))
