#!/usr/bin/env bash
# Calibrate the end-to-end regression bounds in BENCHMARK.json.
#
#   benchmark/calibrate.sh
#
# Runs the whole benchmark five times. Each set runs every workload once
# per seed for BENCHMARK.json's run_seconds, with ten seeds of its own:
# set 1 seeds 1..10, set 2 seeds 11..20, and so on (the held-out seed 4242
# is never used). Modeled metrics repeat exactly for a seed, so only new
# seeds show how far they move when the ten seeds change. For every metric
# and workload it takes, per set, the median and the quartile spread
# (statistics.quantiles, n=4), and across the sets the max-min range of
# the medians, each as a share of the median. A metric's bound is the
# largest over workloads of
#
#   max(1%, 3 x the largest quartile spread, 1.5 x the median range),
#
# rounded up to a whole percent. setup_s keeps 25%, the largest bound the
# benchmark format allows, so that work moved into set-up still shows; only
# its median range is held against that.
#
# Host throughput is calibrated too, from the figure each untraced run
# prints beside its metrics, with a 3% floor. It may join the end-to-end
# metrics once its bound comes out at 10% or less; until then it stays a
# per-layer metric without a bound (benchmark/README.md, "Host noise").
#
# A bound is unresolved when it comes out above 25%, or above 10% for host
# throughput. The script then keeps the bound in BENCHMARK.json as it is,
# marks it in the table and exits 1. Resolved bounds are written into
# BENCHMARK.json and the table into benchmark/calibration.md. Takes about
# an hour.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[[ $# -eq 0 ]] || { echo "calibrate.sh: takes no arguments" >&2; exit 2; }
command -v python3 >/dev/null || { echo "calibrate.sh: needs python3" >&2; exit 2; }

SETS=5
SEEDS=10
WORKLOADS=(serve-kernel serve-engine serve-chaos cluster-skew analytics-tpch)
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$ROOT/BENCHMARK.json")

results="$ROOT/build-bench/calibration"
rm -rf "$results"
mkdir -p "$results"
for ((set = 1; set <= SETS; ++set)); do
  for w in "${WORKLOADS[@]}"; do
    for ((seed = (set - 1) * SEEDS + 1; seed <= set * SEEDS; ++seed)); do
      if ! "$ROOT/benchmark/run.sh" --workload "$w" --seed "$seed" \
           --seconds "$seconds" --trace 0 >"$results/$set.$w.$seed.out"; then
        echo "calibrate.sh: set $set, $w seed $seed failed" >&2
        exit 1
      fi
    done
    echo "calibrate.sh: set $set, $w done" >&2
  done
done

python3 - "$ROOT" "$results" "$SETS" "$SEEDS" "$seconds" "${WORKLOADS[@]}" <<'EOF'
import json, math, os, platform, re, statistics, sys

root, results = sys.argv[1], sys.argv[2]
sets, seeds, seconds = int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
workloads = sys.argv[6:]
spec_path = os.path.join(root, "BENCHMARK.json")
spec = json.load(open(spec_path))
MAX_BOUND, HOST_TARGET = 0.25, 0.10
HOST = "host_ops_per_s"

def value(s, w, k, name):
    seed = (s - 1) * seeds + k
    lines = open(f"{results}/{s}.{w}.{seed}.out").read().splitlines()
    if name == HOST:
        return next(float(m.group(1)) for m in
                    (re.match(r"# workload .* host (\S+) ops/s", l) for l in lines) if m)
    return json.loads(lines[-1])["metrics"][name]["value"]

def up(share):
    return math.ceil(100 * share - 1e-9) / 100

rows, calibrated, unresolved = [], {}, []
for name in [m["name"] for m in spec["end_to_end"]] + [HOST]:
    calibrated[name] = 0.03 if name == HOST else 0.01
    for w in workloads:
        meds, spreads = [], []
        for s in range(1, sets + 1):
            v = [value(s, w, k, name) for k in range(1, seeds + 1)]
            q1, _, q3 = statistics.quantiles(v, n=4)
            meds.append(statistics.median(v))
            spreads.append((q3 - q1) / meds[-1])
        med = statistics.median(meds)
        spread = max(spreads)
        shift = (max(meds) - min(meds)) / med
        # setup_s is held to its bound only by the median range.
        need = up(1.5 * shift if name == "setup_s" else max(3 * spread, 1.5 * shift))
        calibrated[name] = max(calibrated[name], need)
        rows.append((name, w, med, spread, shift, need))
    if calibrated[name] > (HOST_TARGET if name == HOST else MAX_BOUND):
        unresolved.append(name)

for m in spec["end_to_end"]:
    if m["name"] == "setup_s":
        m["bound"] = MAX_BOUND
    elif m["name"] not in unresolved:
        m["bound"] = calibrated[m["name"]]

def dump(doc):
    out = ["{",
           '  "command": %s,' % json.dumps(doc["command"]),
           '  "paths": %s,' % json.dumps(doc["paths"]),
           '  "run_seconds": %d,' % doc["run_seconds"]]
    keys = ("workloads", "end_to_end", "per_layer")
    for i, key in enumerate(keys):
        out.append('  "%s": [' % key)
        out.append(",\n".join("    " + json.dumps(x) for x in doc[key]))
        out.append("  ]" + ("," if i + 1 < len(keys) else ""))
    return "\n".join(out + ["}"]) + "\n"

open(spec_path, "w").write(dump(spec))

cpu = "unknown CPU"
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
bounds = {m["name"]: f"{m['bound']:.2f}" for m in spec["end_to_end"]}
bounds[HOST] = "none (per-layer)"
md = ["# Bound calibration", "",
      f"Generated by `benchmark/calibrate.sh`: {sets} sets, each running every "
      f"workload with {seeds} seeds of its own (1..{sets * seeds}) for {seconds} s, on {cpu} "
      f"({os.cpu_count()} cores, {platform.machine()}). Shares are of the median; "
      "\"needs\" is the bound this workload alone calls for.", "",
      "| metric | workload | median | largest quartile spread | median range | needs |",
      "|---|---|---|---|---|---|"]
for name, w, med, spread, shift, need in rows:
    md.append(f"| {name} | {w} | {med:.6g} | {spread:.2%} | {shift:.2%} | {need:.2f} |")
md += ["", "| metric | calibrated | bound in BENCHMARK.json |", "|---|---|---|"]
for name in calibrated:
    note = " (unresolved)" if name in unresolved else ""
    md.append(f"| {name} | {calibrated[name]:.2f} | {bounds[name]}{note} |")
open(os.path.join(root, "benchmark", "calibration.md"), "w").write("\n".join(md) + "\n")

for name in calibrated:
    flag = "  UNRESOLVED" if name in unresolved else ""
    print(f"{name:24s} calibrated {calibrated[name]:.2f} bound {bounds[name]}{flag}")
sys.exit(1 if unresolved else 0)
EOF
