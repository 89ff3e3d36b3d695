"""Closed-loop benchmark of provenance summarization.

One client asks a workload's provenance questions one after another
through ``repro.summarize.pipeline.summarize`` for ``--seconds`` seconds,
then checks every answer outside the timed window. Run from the root of
a checkout::

    python3 provbench/run.py --workload whynot_r1 --seed 0 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` repeats the
loop with the layer tracer of ``layers.py`` installed and reports the
per-layer metrics. The last line of stdout is one JSON object. Exit
codes: 0 all questions answered and checked, 1 a question failed, 2 no
``src/repro`` next to this directory, 3 stopped by SIGTERM or the
deadline. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout clean

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Wall-clock limit for a whole run, cleanup included well before 180 s.
DEADLINE_S = 160.0
#: Data set-ups (tables + Catalog) per run; setup_s uses their median.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "question_s": "s",
    "questions_per_min": "1/min",
    "score": "ratio",
    "py_peak_rss_mb": "MB",
}
PER_LAYER = {
    "traced.question_s": "s",
    "spark.jobs": "count",
    "spark.actions": "count",
    "spark.blocked_s": "s",
    "driver.self_s": "s",
    "jvm_peak_rss_mb": "MB",
    "phase.sample_s": "s",
    "phase.pattern_gen_s": "s",
    "phase.metrics_s": "s",
    "phase.topk_s": "s",
    "engine.evaluate.calls": "count",
    "engine.jobs": "count",
    "engine.domain.jobs": "count",
    "provenance.variable_domain.calls": "count",
    "provenance.annotate.jobs": "count",
    "provenance.why.jobs": "count",
    "sampling.jobs": "count",
    "sampling.blocked_pct": "%",
    "sampling.domain_counts": "count",
    "sampling.n_os": "count",
    "sampling.p_prov": "ratio",
    "sampling.oversample_ratio": "ratio",
    "sampling.survivor_ratio": "ratio",
    "patterns.candidates": "count",
    "patterns.jobs": "count",
    "patterns.blocked_s": "s",
    "patterns.kept_ratio": "ratio",
    "pipeline.jobs": "count",
    "pipeline.blocked_s": "s",
    "topk.pops": "count",
    "topk.proved_share": "ratio",
    "bounds.cp_lower.calls": "count",
    "bounds.cp_lower_s": "s",
    "metrics.cp_of_set.calls": "count",
}


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def bench(run, workload, args, t_start: float) -> dict:
    """Set up, run the closed loop, check the answers; returns the result."""
    import checks
    from repro.core.unify import PQuestion, parse_ptuple
    from repro.engine.catalog import Catalog
    from repro.experiments.queries import QUERIES
    from repro.summarize import pipeline
    from layers import Tracer, question_metrics

    spark = run.start()
    jvm_s = time.perf_counter() - t_start
    spec = QUERIES[workload.query]
    data_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tables = spec.build_db(spark, workload.rows, 0)
        catalog = Catalog(spark, tables)
        program = spec.program()
        data_s.append(time.perf_counter() - t0)
    stream = workload.questions(args.seed)

    def ask(label: str):
        ptuple, seed = next(stream)
        question = PQuestion(parse_ptuple(ptuple), workload.qtype)
        t0 = time.perf_counter()
        summary = pipeline.summarize(
            catalog, program, question, k=workload.k, n_s=workload.n_s, seed=seed
        )
        print(f"{label}: {ptuple} seed {seed}: {time.perf_counter() - t0:.3f} s, "
              f"score {summary.score:.4f}", file=sys.stderr)
        return summary

    t0 = time.perf_counter()
    ask("warm-up")  # the first question in a JVM runs 1.5-2x slower
    warm_s = time.perf_counter() - t0
    setup_s = jvm_s + statistics.median(data_s) + warm_s
    print(f"set-up: JVM {jvm_s:.3f} s, data " + ", ".join(f"{d:.3f}" for d in data_s)
          + f" s, warm-up {warm_s:.3f} s", file=sys.stderr)

    tracer = None
    if args.trace:
        tracer = Tracer(spark.sparkContext)
        tracer.install(type(spark.range(1)))
    summaries, times, layer = [], [], []
    t_loop = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
            j0 = tracer.last_job_id()
        t0 = time.perf_counter()
        try:
            summary = ask(f"question {len(times)}")
        except Exception:  # noqa: BLE001 - a failed question is counted, not fatal
            traceback.print_exc()
            summary = None
        times.append(time.perf_counter() - t0)
        summaries.append(summary)
        if tracer is not None and summary is not None:
            jobs = tracer.last_job_id() - j0
            layer.append(question_metrics(tracer, summary, times[-1], jobs))
        if time.perf_counter() - t_loop >= args.seconds:
            break
    loop_s = time.perf_counter() - t_loop
    py_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.reset()
        tracer.uninstall()
        _print_functions(tracer)

    # --- output checks, untimed ---
    engine_problems = checks.check_engine(catalog, program, tables)
    failed = 0
    for i, summary in enumerate(summaries):
        if summary is None:
            failed += 1
            continue
        problems = engine_problems + checks.check_summary(summary)
        if problems:
            failed += 1
            print(f"question {i}: " + "; ".join(problems), file=sys.stderr)

    answered = [s for s in summaries if s is not None]
    if args.trace:
        metrics = {
            name: statistics.fmean(q[name] for q in layer) if layer else 0.0
            for name in PER_LAYER
            if name != "jvm_peak_rss_mb"
        }
        metrics["jvm_peak_rss_mb"] = run.jvm_peak_rss_mb()
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "question_s": statistics.median(times),
            "questions_per_min": 60 * len(times) / loop_s,
            "score": statistics.fmean(s.score for s in answered) if answered else 0.0,
            "py_peak_rss_mb": py_rss_mb,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(summaries),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }


def _print_functions(tracer) -> None:
    """Per traced function, over the whole loop, to stderr."""
    print(f"{'function':44} {'calls':>7} {'wall_s':>8} {'self_s':>8} "
          f"{'actions':>7} {'jobs':>5} {'blocked_s':>9}", file=sys.stderr)
    for key, st in sorted(tracer.totals.items(), key=lambda kv: -kv[1].wall_s):
        print(f"{key:44} {st.calls:7d} {st.wall_s:8.3f} {st.self_s:8.3f} "
              f"{st.actions:7d} {st.jobs:5d} {st.blocked_s:9.3f}", file=sys.stderr)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro in {ROOT}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from session import SparkRun, StopGuard, Stopped
    from workloads import WORKLOADS

    run = SparkRun(
        HERE / ".tmp",
        cores=min(len(os.sched_getaffinity(0)), 4),
        app=f"provbench-{args.workload}",
    )
    graceful = True
    with StopGuard(DEADLINE_S, run.kill_jvm) as guard:
        try:
            result = bench(run, WORKLOADS[args.workload], args, t_start)
        except (Stopped, KeyboardInterrupt) as e:
            graceful = False
            print(f"stopped: {e!r}", file=sys.stderr)
            return 3
        finally:
            guard.quiet()
            run.close(graceful)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"questions {result['attempted']}  failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
