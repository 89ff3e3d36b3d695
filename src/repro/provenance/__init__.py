"""Provenance capture: annotated derivations for why and why-not questions."""
from repro.provenance.annotate import annotate_select, goal_column_names  # noqa: F401
from repro.provenance.why import (  # noqa: F401
    sample_why,
    why_derivations,
    why_provenance,
)
from repro.provenance.whynot_full import (  # noqa: F401
    all_valuations,
    collect_whynot_full,
    whynot_full,
    whynot_full_rule,
    whynot_select,
)
