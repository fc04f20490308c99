"""Statistics of the benchmark: from the raw measurements perfbench prints
(and the spans file of a traced run) to the metrics BENCHMARK.json names.

Timings are host time. Per the benchmark's rules a timing is reported as a
median plus the highest percentile that still has at least ten samples
beyond it, always with its sample count, and failures count against the
ops attempted.
"""

import statistics

TAIL_BEYOND = 10

# Spans the traced run records, with the unit their per-call time is
# reported in. A metric is "<layer>_<unit>", plus "<layer>_<unit>.share".
SPAN_LAYERS = [
    ("cluster.collect", "ms"),
    ("trace.discover", "ms"),
    ("trace.ingest", "ms"),
    ("trace.emit", "ms"),
    ("core.parse", "ms"),
    ("core.compile", "ms"),
    ("core.replay_compiled", "ms"),
    ("core.replay_interp", "ms"),
    ("workload.manipulator_init", "ms"),
    ("workload.rebuild", "ms"),
    ("analysis.breakdown", "ms"),
    ("faults.lower", "ms"),
    ("snapshot.load", "ms"),
    ("snapshot.peek", "us"),
    ("serve.evict", "ms"),
    ("api.pool_wait", "ms"),
    ("release", "ms"),
]

# Throughputs of a span layer: (metric, layer, "items" | "bytes", unit).
SPAN_RATES = [
    ("trace.ingest_mb_per_s", "trace.ingest", "bytes", "MB/s"),
    ("trace.emit_mb_per_s", "trace.emit", "bytes", "MB/s"),
    ("core.replay_compiled_tasks_per_s", "core.replay_compiled", "items",
     "tasks/s"),
    ("core.replay_interp_tasks_per_s", "core.replay_interp", "items",
     "tasks/s"),
    ("workload.rebuild_tasks_per_s", "workload.rebuild", "items", "tasks/s"),
]

INGEST_LADDER = [1, 2, 3, 4]

# Per-layer metrics measured outside the spans, with their units.
EXTRA_METRICS = (
    [("trace.ingest_ms.w%d" % w, "ms") for w in INGEST_LADDER]
    + [
        ("trace.ingest_speedup", "x"),
        ("api.sweep_speedup", "x"),
        ("serve.predict_hit_ms", "ms"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.coalesced_ratio", "ratio"),
        ("serve.evictions", "count"),
        ("traced.coverage", "ratio"),
        ("traced.overhead_pct", "%"),
    ]
)

E2E_METRICS = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("predictions_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("prediction_error_pct", "%"),
    ("setup_s", "s"),
]


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer, unit in SPAN_LAYERS:
        units["%s_%s" % (layer, unit)] = unit
        units["%s_%s.share" % (layer, unit)] = "ratio"
    for metric, _, _, unit in SPAN_RATES:
        units[metric] = unit
    for metric, unit in EXTRA_METRICS:
        units[metric] = unit
    return units


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n). With n samples that is the sample
    with exactly TAIL_BEYOND larger ones, at percentile 100 * (n - 10) / n.
    With too few samples for any such percentile it is the maximum,
    reported at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def error_rate(attempted, failed):
    """Failed ops over attempted ops; a wrong output is a failed op."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed ops outside [0, attempted]")
    return failed / attempted


def end_to_end(raw, setup_seconds):
    """The end-to-end metrics of an untraced run."""
    value, pct, n = tail(raw["latencies_ms"])
    return {
        "latency_p50_ms": median(raw["latencies_ms"]),
        "latency_tail_ms": value,
        "predictions_per_s": raw["predictions"] / raw["wall_s"],
        "ok_ratio": 1.0 - error_rate(raw["attempted"], raw["failed"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "prediction_error_pct": raw["prediction_error_pct"],
        "setup_s": median(setup_seconds),
    }, {"tail_percentile": pct, "samples": n}


def span_totals(ops):
    """Self times per call, summed self time, items and bytes per layer,
    and the thread time the ops occupied."""
    calls, total, items, nbytes = {}, {}, {}, {}
    thread_ms = 0.0
    for op in ops:
        for thread in op["threads"]:
            thread_ms += thread["end_ms"] - thread["begin_ms"]
            spans = thread["spans"]
            child = [0.0] * len(spans)
            for _, start, end, parent, _, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (layer, start, end, _, n_items, n_bytes) in enumerate(spans):
                self_ms = end - start - child[i]
                calls.setdefault(layer, []).append(self_ms)
                total[layer] = total.get(layer, 0.0) + self_ms
                items[layer] = items.get(layer, 0.0) + n_items
                nbytes[layer] = nbytes.get(layer, 0.0) + n_bytes
    return calls, total, items, nbytes, thread_ms


def per_layer(raw, ops):
    """The per-layer metrics of a traced run. A layer the workload does not
    exercise reports 0."""
    calls, total, items, nbytes, thread_ms = span_totals(ops)
    out = {}
    scale = {"ms": 1.0, "us": 1000.0}
    for layer, unit in SPAN_LAYERS:
        name = "%s_%s" % (layer, unit)
        out[name] = median(calls.get(layer, [])) * scale[unit]
        out[name + ".share"] = total.get(layer, 0.0) / thread_ms
    for metric, layer, kind, _ in SPAN_RATES:
        seconds = total.get(layer, 0.0) / 1000.0
        amount = (nbytes if kind == "bytes" else items).get(layer, 0.0)
        if kind == "bytes":
            amount /= 1e6
        out[metric] = amount / seconds if seconds > 0 else 0.0

    extra = raw["extra"]
    ladder = {w: median(extra.get("trace.ingest_ms.w%d" % w, []))
              for w in INGEST_LADDER}
    for w in INGEST_LADDER:
        out["trace.ingest_ms.w%d" % w] = ladder[w]
    widest = min(int(extra.get("nproc", 1)), INGEST_LADDER[-1])
    out["trace.ingest_speedup"] = (
        ladder[1] / ladder[widest] if ladder[widest] > 0 else 0.0)
    out["api.sweep_speedup"] = extra.get("api.sweep_speedup", 0.0)
    out["serve.predict_hit_ms"] = median(extra.get("serve.predict_hit_ms", []))
    for name in ("serve.cache_hit_ratio", "serve.coalesced_ratio",
                 "serve.evictions"):
        out[name] = extra.get(name, 0.0)
    out["traced.coverage"] = sum(total.values()) / thread_ms
    out["traced.overhead_pct"] = 100.0 * (
        median(raw["traced_ms"]) / median(raw["latencies_ms"]) - 1.0)
    return out
