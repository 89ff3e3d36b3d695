"""Single-derivation baseline (Sec. 9.3, Fig. 12b).

Single-derivation why-not approaches (e.g., the Y! system) return one
failed derivation instead of summarizing all of them — fast but
incomplete. We implement it on top of the same batch-sampling machinery
with a target of a single derivation and a small over-sample that is
quadrupled until a why-not derivation is found.
"""
from __future__ import annotations

from repro.core.ast import Program
from repro.core.unify import PTuple, unify_program
from repro.engine.catalog import Catalog
from repro.patterns.pattern import Pattern
from repro.sampling.whynot import sample_whynot_rule

#: The first attempt's over-sample n_OS; each failed attempt quadruples it.
INITIAL_N_OS = 64
MAX_ATTEMPTS = 8


def single_derivation(
    catalog: Catalog,
    program: Program,
    t: PTuple,
    seed: int = 0,
) -> Pattern | None:
    """Return one failed derivation of a missing answer matching ``t``
    (as a fully-constant :class:`Pattern`), or ``None`` if none found."""
    for u in unify_program(program, t):
        n_os = INITIAL_N_OS
        for attempt in range(MAX_ATTEMPTS):
            rs = sample_whynot_rule(
                catalog,
                program,
                u,
                n_s=1,
                seed=seed + attempt,
                max_n_os=n_os,
            )
            if rs.rows:
                r = rs.rows[0]
                n_vars = len(u.unbound)
                return Pattern(
                    rule_id=u.rule_id,
                    var_names=tuple(v.name for v in u.unbound),
                    args=tuple(r[:n_vars]),
                    goals=tuple(bool(g) for g in r[n_vars:]),
                    cp=0.0,
                    count=1,
                )
            n_os *= 4
    return None
