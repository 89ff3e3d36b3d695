"""Top-k provenance summaries: metrics, bounds, search, end-to-end pipeline."""
from repro.summarize.metrics import SampleStore, harmonic, info_of_set  # noqa: F401
from repro.summarize.bounds import cp_lower, cp_upper, s_lb, s_ub  # noqa: F401
from repro.summarize.topk import (  # noqa: F401
    MatchSets,
    SearchResult,
    topk_bestfirst,
    topk_exact,
)
from repro.summarize.pipeline import (  # noqa: F401
    PatternInputs,
    Summary,
    pattern_inputs,
    select_topk,
    summarize,
)
