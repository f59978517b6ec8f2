#!/usr/bin/env python3
"""Schema check for the committed BENCH_*.json files (ci.sh stage 8b).

The bench JSON files at the repo root are commitments, not just logs: other
sections of the repo (DESIGN.md overhead numbers, the query-log acceptance
bound) cite them. This checker fails when a committed file loses a section,
a required field, or violates a committed bound:

  * BENCH_inference.json querylog_overhead.overhead_pct must stay <= 2.0
    (the always-on query-log overhead acceptance bound, DESIGN.md §17);
  * BENCH_serve.json serve_querylog records_match / draws_match must be true
    (ring records == accepted requests, ring draws == sampler counter);
  * BENCH_serve.json serve_adapt must show the closed adaptation loop
    (DESIGN.md §18) recovering: zero failed requests, post-retrain p90
    q-error within 2x the pre-shift p90, feedback ingest <= 2% on the
    served p50.

Usage: python3 scripts/check_bench_json.py [repo-root]
"""

import json
import os
import sys

QUERYLOG_OVERHEAD_BOUND_PCT = 2.0
ADAPT_RECOVERY_RATIO_BOUND = 2.0
ADAPT_FEEDBACK_OVERHEAD_BOUND_PCT = 2.0


def fail(msg):
    print(f"check_bench_json: FATAL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(obj, path, keys):
    for key in keys:
        if key not in obj:
            fail(f"{path}: missing required key '{key}'")


def check_inference(root):
    path = os.path.join(root, "BENCH_inference.json")
    with open(path) as f:
        data = json.load(f)
    require(data, path, ["table7", "thread_scaling", "pooled_sampler",
                         "querylog_overhead", "iam_metrics"])

    table7 = data["table7"]
    require(table7, f"{path}:table7", ["batch_sizes", "rows"])
    for row in table7["rows"]:
        require(row, f"{path}:table7.rows", ["estimator", "ms_per_query"])
        if len(row["ms_per_query"]) != len(table7["batch_sizes"]):
            fail(f"{path}: table7 row '{row['estimator']}' has "
                 f"{len(row['ms_per_query'])} timings for "
                 f"{len(table7['batch_sizes'])} batch sizes")

    for row in data["thread_scaling"]["rows"]:
        require(row, f"{path}:thread_scaling.rows",
                ["estimator", "ms_per_query", "bit_identical"])
        if not row["bit_identical"]:
            fail(f"{path}: thread scaling for '{row['estimator']}' is not "
                 "bit-identical across thread counts")

    pooled = data["pooled_sampler"]
    require(pooled, f"{path}:pooled_sampler", ["rows"])
    # Bit-exactness of the fixed-budget sampler is a tier-1 test
    # (PooledSamplerTest, against the test-side per-query reference), not a
    # field of this file.
    modes = {row["mode"] for row in pooled["rows"]}
    for mode in ("pooled+prefix", "adaptive"):
        if mode not in modes:
            fail(f"{path}: pooled_sampler is missing mode '{mode}'")

    overhead = data["querylog_overhead"]
    require(overhead, f"{path}:querylog_overhead",
            ["batch_size", "mode", "base_ms_per_query",
             "diagnosed_ms_per_query", "overhead_pct"])
    pct = overhead["overhead_pct"]
    if pct > QUERYLOG_OVERHEAD_BOUND_PCT:
        fail(f"{path}: query-log overhead {pct:.3f}% exceeds the committed "
             f"{QUERYLOG_OVERHEAD_BOUND_PCT}% bound")
    print(f"  BENCH_inference.json OK (query-log overhead {pct:.3f}%)")


def check_serve(root):
    path = os.path.join(root, "BENCH_serve.json")
    with open(path) as f:
        data = json.load(f)
    require(data, path, ["serve_sweep", "serve_batching", "serve_hot_swap",
                         "serve_pooled", "serve_shards", "serve_nodelay",
                         "serve_querylog", "serve_adapt", "iam_metrics"])

    swap = data["serve_hot_swap"]
    require(swap, f"{path}:serve_hot_swap",
            ["version_before", "version_after", "failed"])
    if swap["failed"] != 0:
        fail(f"{path}: hot-swap run lost {swap['failed']} requests")

    querylog = data["serve_querylog"]
    require(querylog, f"{path}:serve_querylog",
            ["accepted", "ring_records", "records_match", "sampler_draws",
             "ring_draws", "draws_match"])
    if not querylog["records_match"]:
        fail(f"{path}: serve_querylog ring records "
             f"({querylog['ring_records']}) != accepted requests "
             f"({querylog['accepted']})")
    if not querylog["draws_match"]:
        fail(f"{path}: serve_querylog ring draws ({querylog['ring_draws']}) "
             f"!= iam_sampler_samples_total delta "
             f"({querylog['sampler_draws']})")
    adapt = data["serve_adapt"]
    require(adapt, f"{path}:serve_adapt",
            ["qerror_p90_preshift", "qerror_p90_shift",
             "qerror_p90_corrected", "qerror_p90_retrained",
             "recovery_ratio", "retrains", "failed",
             "feedback_overhead_pct"])
    if adapt["failed"] != 0:
        fail(f"{path}: adaptation run lost {adapt['failed']} requests")
    if adapt["retrains"] < 1:
        fail(f"{path}: serve_adapt drift trigger never retrained")
    ratio = adapt["recovery_ratio"]
    if ratio > ADAPT_RECOVERY_RATIO_BOUND:
        fail(f"{path}: post-retrain p90 q-error is {ratio:.3f}x the "
             f"pre-shift p90, above the committed "
             f"{ADAPT_RECOVERY_RATIO_BOUND}x recovery bound")
    fb_pct = adapt["feedback_overhead_pct"]
    if fb_pct > ADAPT_FEEDBACK_OVERHEAD_BOUND_PCT:
        fail(f"{path}: feedback ingest costs {fb_pct:.3f}% on the served "
             f"p50, above the committed "
             f"{ADAPT_FEEDBACK_OVERHEAD_BOUND_PCT}% bound")
    print(f"  BENCH_serve.json OK (querylog reconciled: "
          f"{querylog['ring_records']} records, "
          f"{querylog['ring_draws']} draws; adapt recovery "
          f"{ratio:.3f}x, feedback overhead {fb_pct:.3f}%)")


def check_kernels(root):
    path = os.path.join(root, "BENCH_kernels.json")
    with open(path) as f:
        data = json.load(f)
    require(data, path, ["benchmarks", "context"])
    if not data["benchmarks"]:
        fail(f"{path}: benchmarks list is empty")
    print(f"  BENCH_kernels.json OK ({len(data['benchmarks'])} benchmarks)")


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    check_inference(root)
    check_serve(root)
    check_kernels(root)
    print("check_bench_json: OK")


if __name__ == "__main__":
    main()
