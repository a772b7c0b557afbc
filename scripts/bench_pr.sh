#!/usr/bin/env bash
# Per-PR performance trajectory: runs the benchmark sextet at its fixed
# seeds (headline_summary, ext_serving, ext_fairness, ext_chaos,
# ext_cluster, ext_analytics) and folds the JSON reports into one
# normalized snapshot, BENCH_<n>.json at the repo root. Committing the
# snapshot per PR gives the repo a reviewable throughput/latency/
# fairness/resilience/analytics trajectory over time.
#
# Usage: scripts/bench_pr.sh [--smoke] [--check] [out.json]
#
#   out.json   Output file; its name without .json is the snapshot's
#              bench_id. Defaults to BENCH_<n+1>.json for the latest
#              committed BENCH_<n>.json (full mode) or
#              $BUILD_DIR/BENCH_smoke.json (--smoke).
#   --smoke    CI mode: light bench workloads, and the generated
#              document's key structure is checked against the committed
#              full snapshot -- schema drift fails the run so
#              BENCH_*.json stays machine-comparable across PRs.
#   --check    Numeric regression gate: compares the generated metrics
#              against the committed snapshot (the highest-numbered
#              BENCH_<n>.json at the repo root other than out.json) under
#              per-metric
#              tolerances (see TOLERANCES below). Scale-free ratios are
#              held tight, workload-size-sensitive numbers loose enough
#              for --smoke runs, host wall-clock excluded, and the chaos
#              zero-corruption headline exactly. BENCH_CHECK_TOL_SCALE
#              (default 1.0) scales every rel/abs tolerance for noisy
#              environments.
#
# Environment: BUILD_DIR (default: build) must hold a built tree.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
SMOKE=0
CHECK=0
OUT=""
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --check) CHECK=1 ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) OUT="$arg" ;;
  esac
done

# Highest-numbered root BENCH_<n>.json, skipping the file about to be
# written; prints nothing when there is none.
latest_snapshot() {
  local skip="" best="" best_n=-1 f n
  [[ -n "$1" ]] && skip="$(realpath -m "$1")"
  for f in BENCH_*.json; do
    [[ "$f" =~ ^BENCH_([0-9]+)\.json$ ]] || continue
    n=$((10#${BASH_REMATCH[1]}))
    [[ "$(realpath -m "$f")" == "$skip" ]] && continue
    if ((n > best_n)); then best_n=$n; best="$f"; fi
  done
  echo "$best"
}

if [[ -z "$OUT" ]]; then
  if [[ $SMOKE -eq 1 ]]; then
    OUT="$BUILD_DIR/BENCH_smoke.json"
  else
    latest="$(latest_snapshot "")"
    latest_n="${latest//[!0-9]/}"
    OUT="BENCH_$((10#${latest_n:-0} + 1)).json"
  fi
fi
SNAPSHOT="$(latest_snapshot "$OUT")"
BENCH_ID="$(basename "$OUT" .json)"

for bin in headline_summary ext_serving ext_fairness ext_chaos ext_cluster \
    ext_analytics; do
  if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
    echo "bench_pr.sh: missing $BUILD_DIR/bench/$bin (build the tree first)" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
smoke_flag=()
[[ $SMOKE -eq 1 ]] && smoke_flag=(--smoke)

# Each bench enforces its own shape checks and exits nonzero on failure,
# so a perf regression (e.g. bitsliced < 0.3x word in full mode) stops the
# script before any snapshot is written.
# CSVs go to the temp dir via --out so nothing lands in the source tree.
echo "== headline_summary"
"$BUILD_DIR/bench/headline_summary" --json "$tmp/headline.json" > "$tmp/headline.log"
echo "== ext_serving"
"$BUILD_DIR/bench/ext_serving" "${smoke_flag[@]}" --json "$tmp/serving.json" \
  --out "$tmp/ext_serving.csv" > "$tmp/serving.log"
echo "== ext_fairness"
"$BUILD_DIR/bench/ext_fairness" "${smoke_flag[@]}" --json "$tmp/fairness.json" \
  --out "$tmp/ext_fairness.csv" > "$tmp/fairness.log"
echo "== ext_chaos"
"$BUILD_DIR/bench/ext_chaos" "${smoke_flag[@]}" --json "$tmp/chaos.json" \
  --out "$tmp/ext_chaos.csv" > "$tmp/chaos.log"
echo "== ext_cluster"
"$BUILD_DIR/bench/ext_cluster" "${smoke_flag[@]}" --json "$tmp/cluster.json" \
  --out "$tmp/ext_cluster.csv" > "$tmp/cluster.log"
echo "== ext_analytics"
"$BUILD_DIR/bench/ext_analytics" "${smoke_flag[@]}" --json "$tmp/analytics.json" \
  --out "$tmp/ext_analytics.csv" > "$tmp/analytics.log"

python3 - "$tmp" "$OUT" "$SMOKE" "$SNAPSHOT" "$CHECK" "$BENCH_ID" <<'PY'
import json, os, sys

tmp, out_path, smoke, snapshot_path, check, bench_id = (
    sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4],
    sys.argv[5] == "1", sys.argv[6])

def load(name, required):
    with open(f"{tmp}/{name}.json") as f:
        doc = json.load(f)
    missing = [k for k in required if k not in doc]
    if missing:
        sys.exit(f"bench_pr.sh: {name} report is missing keys {missing} (schema drift)")
    return doc

headline = load("headline", ["mean_exact_speedup", "mean_exact_energy_gain",
                             "max_approx_speedup", "max_approx_edp_gain"])
serving = load("serving", ["batched_vs_unbatched_speedup",
                           "bitsliced_vs_word_host_speedup", "backend_ab",
                           "sweep", "slo_p99_cycles"])
fairness = load("fairness", ["runs", "light_p99_solo_cycles"])
chaos = load("chaos", ["throughput_ratio", "health_on_corrupted",
                       "health_on_silent", "health_off_corrupted", "runs"])
cluster = load("cluster", ["migration_vs_static_throughput_ratio",
                           "migration_vs_static_p99_ratio", "runs"])
analytics = load("analytics", ["queries", "exact_matches_oracle",
                               "backends_bit_identical",
                               "engine_spot_check_identical",
                               "relaxed_vs_exact_cycles_ratio",
                               "relaxed_vs_exact_energy_ratio",
                               "relaxed_max_sum_rel_err"])

def sweep_row(mode, pick):
    rows = [r for r in serving["sweep"] if r["mode"] == mode]
    if not rows:
        sys.exit(f"bench_pr.sh: serving sweep has no '{mode}' rows (schema drift)")
    return pick(rows, key=lambda r: r["rate_per_kcycle"])

light = sweep_row("batched", min)
saturated = sweep_row("batched", max)
unbatched_sat = sweep_row("unbatched", max)
# The sweep issues fixed 8-op requests (bench/ext_serving.cpp), so the
# light-load median latency divided by 8 is end-to-end cycles per op with
# queueing effects near zero.
OPS_PER_SWEEP_REQUEST = 8.0

def jain(run):
    rows = [r for r in fairness["runs"] if r["run"] == run]
    if not rows:
        sys.exit(f"bench_pr.sh: fairness report has no '{run}' run (schema drift)")
    return rows[0]["jain_fairness"]

def chaos_run(name):
    rows = [r for r in chaos["runs"] if r["run"] == name]
    if not rows:
        sys.exit(f"bench_pr.sh: chaos report has no '{name}' run (schema drift)")
    return rows[0]

chaos_on = chaos_run("chaos-on")

def cluster_run(name):
    rows = [r for r in cluster["runs"] if r["run"] == name]
    if not rows:
        sys.exit(f"bench_pr.sh: cluster report has no '{name}' run (schema drift)")
    return rows[0]

cluster_static = cluster_run("static")
cluster_migrate = cluster_run("migrate")
ab = serving["backend_ab"]

def analytics_query(name):
    rows = [q for q in analytics["queries"] if q["query"] == name]
    if not rows:
        sys.exit(f"bench_pr.sh: analytics report has no '{name}' query "
                 "(schema drift)")
    return rows[0]

an_q6 = analytics_query("q6-filter-mul-sum")
an_q1 = analytics_query("q1-group-aggregate")
an_q3 = analytics_query("q3-join-group-sort")
doc = {
    "bench_id": bench_id,
    "schema_version": 2,
    "smoke": smoke,
    "backend": {
        "tier": "kBitsliced",
        "bitsliced_vs_word_host_speedup": serving["bitsliced_vs_word_host_speedup"],
        "outcomes_bit_identical": ab["outcomes_bit_identical"],
        "word_host_rps": ab["word_host_rps"],
        "bitsliced_host_rps": ab["bitsliced_host_rps"],
    },
    "serving": {
        "batched_saturation_throughput_rps": saturated["throughput_rps"],
        "unbatched_saturation_throughput_rps": unbatched_sat["throughput_rps"],
        "batched_vs_unbatched_speedup": serving["batched_vs_unbatched_speedup"],
        "p99_latency_cycles_light_load": light["p99_latency_cycles"],
        "p99_latency_cycles_saturation": saturated["p99_latency_cycles"],
        "cycles_per_op_light_load": light["p50_latency_cycles"] / OPS_PER_SWEEP_REQUEST,
        "slo_p99_cycles": serving["slo_p99_cycles"],
    },
    "fairness": {
        "jain_mixed_fifo": jain("mixed-fifo"),
        "jain_mixed_drr": jain("mixed-drr"),
        "light_p99_solo_cycles": fairness["light_p99_solo_cycles"],
    },
    "chaos": {
        "throughput_ratio": chaos["throughput_ratio"],
        "health_on_corrupted": chaos["health_on_corrupted"],
        "health_on_silent": chaos["health_on_silent"],
        "health_off_corrupted": chaos["health_off_corrupted"],
        "relocated_requests": chaos_on["relocated_requests"],
        "quarantines": chaos_on["quarantines"],
        "scrub_passes": chaos_on["scrub_passes"],
        "min_serving_domains": chaos_on["min_serving_domains"],
    },
    "cluster": {
        "migration_vs_static_throughput_ratio":
            cluster["migration_vs_static_throughput_ratio"],
        "migration_vs_static_p99_ratio":
            cluster["migration_vs_static_p99_ratio"],
        "cross_shard_traffic_share":
            cluster_migrate["cross_shard_traffic_share"],
        "chip_jain_static": cluster_static["chip_jain"],
        "chip_jain_migrate": cluster_migrate["chip_jain"],
        "migrations": cluster_migrate["migrations"],
        "p99_edge_latency_cycles_static":
            cluster_static["p99_edge_latency_cycles"],
        "p99_edge_latency_cycles_migrate":
            cluster_migrate["p99_edge_latency_cycles"],
    },
    "analytics": {
        "exact_matches_oracle": analytics["exact_matches_oracle"],
        "backends_bit_identical": analytics["backends_bit_identical"],
        "engine_spot_check_identical": analytics["engine_spot_check_identical"],
        "q6_ops_per_kcycle": an_q6["ops_per_kcycle"],
        "q1_ops_per_kcycle": an_q1["ops_per_kcycle"],
        "q3_ops_per_kcycle": an_q3["ops_per_kcycle"],
        "lineitem_rows": analytics["lineitem_rows"],
        "relaxed_vs_exact_cycles_ratio":
            analytics["relaxed_vs_exact_cycles_ratio"],
        "relaxed_vs_exact_energy_ratio":
            analytics["relaxed_vs_exact_energy_ratio"],
        "relaxed_max_sum_rel_err": analytics["relaxed_max_sum_rel_err"],
    },
    "headline": {
        "mean_exact_speedup": headline["mean_exact_speedup"],
        "mean_exact_energy_gain": headline["mean_exact_energy_gain"],
        "max_approx_speedup": headline["max_approx_speedup"],
        "max_approx_edp_gain": headline["max_approx_edp_gain"],
    },
}

def signature(node, prefix=""):
    # Recursive key structure; values are ignored so smoke and full
    # snapshots compare equal iff their schemas match.
    paths = set()
    if isinstance(node, dict):
        for k, v in node.items():
            paths.add(f"{prefix}.{k}")
            paths |= signature(v, f"{prefix}.{k}")
    elif isinstance(node, list) and node:
        paths |= signature(node[0], f"{prefix}[]")
    return paths

def read_committed():
    if not snapshot_path:
        return None
    with open(snapshot_path) as f:
        return json.load(f)

if smoke:
    committed = read_committed()
    if committed is None:
        print("bench_pr.sh: no committed BENCH_<n>.json; skipping drift check")
    else:
        ours, theirs = signature(doc), signature(committed)
        if ours != theirs:
            added = sorted(ours - theirs)
            removed = sorted(theirs - ours)
            sys.exit("bench_pr.sh: BENCH schema drift vs committed "
                     f"{snapshot_path}\n  added: {added}\n  removed: {removed}")
        print(f"bench_pr.sh: schema matches committed {snapshot_path}")

# -- Numeric regression gate (--check) ----------------------------------
# Per-metric tolerance rules against the committed full snapshot. The
# rules must hold for BOTH smoke and full runs, so workload-size-
# sensitive absolutes get loose relative tolerances while scale-free
# ratios stay tight and invariants stay exact:
#   ("exact",)      value must equal the committed one (counters that
#                   must never regress, e.g. zero corrupted responses);
#   ("rel", t)      |new - old| <= t * max(|old|, eps);
#   ("abs", t)      |new - old| <= t;
#   ("min", v)      new >= v, committed value ignored (one-sided floors
#                   where "better than committed" must never fail);
#   omitted paths   schema-checked only (host wall-clock RPS etc.).
# BENCH_CHECK_TOL_SCALE scales every rel/abs tolerance.
TOLERANCES = {
    "backend.outcomes_bit_identical": ("exact",),
    # Host wall-clock ratio: direction matters, magnitude is noisy. Both
    # tiers run the same per-op multiply, so it sits near 1; the floor is
    # the lowest of 120 full-mode ext_serving runs (0.562) / 1.5 = 0.375,
    # rounded down to 0.3.
    "backend.bitsliced_vs_word_host_speedup": ("min", 0.3),
    # Virtual-time ratio, but the smoke workload batches less densely.
    "serving.batched_vs_unbatched_speedup": ("rel", 0.50),
    "serving.slo_p99_cycles": ("exact",),
    "serving.cycles_per_op_light_load": ("rel", 0.30),
    "fairness.jain_mixed_drr": ("abs", 0.05),
    "fairness.jain_mixed_fifo": ("abs", 0.15),
    "fairness.light_p99_solo_cycles": ("rel", 0.30),
    # The resilience headline: the health layer must keep serving exact.
    "chaos.health_on_corrupted": ("exact",),
    "chaos.health_on_silent": ("exact",),
    "chaos.health_off_corrupted": ("min", 1),
    "chaos.throughput_ratio": ("abs", 0.15),
    "chaos.relocated_requests": ("min", 1),
    "chaos.quarantines": ("min", 1),
    "chaos.scrub_passes": ("min", 1),
    # Scale-out headline: migration must beat static placement on
    # throughput and even out per-chip load, paying real interconnect
    # traffic. Ratios move with trace size, so floors rather than bands;
    # the bench's own shape checks hold the tighter full-mode line.
    "cluster.migration_vs_static_throughput_ratio": ("min", 1.05),
    "cluster.migration_vs_static_p99_ratio": ("abs", 0.55),
    "cluster.cross_shard_traffic_share": ("min", 0.001),
    "cluster.chip_jain_static": ("abs", 0.10),
    "cluster.chip_jain_migrate": ("min", 0.5),
    "cluster.migrations": ("min", 1),
    # Analytics exactness headlines: the differential story must never
    # regress, in smoke or full mode.
    "analytics.exact_matches_oracle": ("exact",),
    "analytics.backends_bit_identical": ("exact",),
    "analytics.engine_spot_check_identical": ("exact",),
    # Op throughput scales with table size (batching density): smoke
    # tables batch ~5x less densely than full, so one-sided floors.
    "analytics.q6_ops_per_kcycle": ("min", 8.0),
    "analytics.q1_ops_per_kcycle": ("min", 8.0),
    "analytics.q3_ops_per_kcycle": ("min", 8.0),
    # Relax trims add cycles and energy, never inflates them.
    "analytics.relaxed_vs_exact_cycles_ratio": ("abs", 0.25),
    "analytics.relaxed_vs_exact_energy_ratio": ("abs", 0.25),
    # Full-mode always (headline_summary takes no --smoke): tight.
    "headline.mean_exact_speedup": ("rel", 0.05),
    "headline.mean_exact_energy_gain": ("rel", 0.05),
    "headline.max_approx_speedup": ("rel", 0.05),
    "headline.max_approx_edp_gain": ("rel", 0.05),
}

if check:
    committed = read_committed()
    if committed is None:
        sys.exit("bench_pr.sh: --check needs a committed BENCH_<n>.json")
    scale = float(os.environ.get("BENCH_CHECK_TOL_SCALE", "1.0"))
    failures = []
    for path, rule in sorted(TOLERANCES.items()):
        node_new, node_old = doc, committed
        for key in path.split("."):
            node_new = node_new.get(key) if isinstance(node_new, dict) else None
            node_old = node_old.get(key) if isinstance(node_old, dict) else None
        if node_new is None or (node_old is None and rule[0] != "min"):
            failures.append(f"{path}: missing from snapshot (schema drift)")
            continue
        kind = rule[0]
        if kind == "exact":
            ok = node_new == node_old
            detail = f"{node_new!r} != committed {node_old!r}"
        elif kind == "min":
            ok = node_new >= rule[1]
            detail = f"{node_new!r} < floor {rule[1]!r}"
        elif kind == "rel":
            tol = rule[1] * scale
            ok = abs(node_new - node_old) <= tol * max(abs(node_old), 1e-12)
            detail = (f"{node_new:.6g} vs committed {node_old:.6g} "
                      f"(> {100 * tol:.0f}% off)")
        else:  # abs
            tol = rule[1] * scale
            ok = abs(node_new - node_old) <= tol
            detail = (f"{node_new:.6g} vs committed {node_old:.6g} "
                      f"(> {tol:g} away)")
        if not ok:
            failures.append(f"{path}: {detail}")
    if failures:
        sys.exit("bench_pr.sh: numeric regression vs committed "
                 f"{snapshot_path}\n  " + "\n  ".join(failures))
    print(f"bench_pr.sh: {len(TOLERANCES)} metrics within tolerance of "
          f"committed {snapshot_path}")

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"Wrote {out_path}")
PY
