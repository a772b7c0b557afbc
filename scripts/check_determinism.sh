#!/usr/bin/env bash
# Determinism source lint: the engines' A/B contracts (tracing-off
# bit-identity, cross-backend equivalence, golden CSVs, the trace
# verifier's replay) all assume src/ is a pure function of the scenario
# seed. This grep-level gate bans the common hazards outright:
#
#   * C PRNG / OS entropy: std::rand, srand, rand(), std::random_device —
#     randomness comes from the explicitly seeded util/rng.hpp generators;
#   * wall-clock reads: time(), gettimeofday(), the std::chrono clocks —
#     simulated time is util::Cycles, advanced only by the event loops;
#   * unordered associative containers, whose iteration order is
#     implementation-defined and must never feed served results or
#     metrics. A use that is provably lookup-only may carry a
#     `determinism-audited: <reason>` comment on the same or the
#     immediately preceding line to be allowed;
#   * two seeded draws in one statement, such as
#     `emplace_back(rng.next() & m, rng.next() & m)`: C++ leaves the order
#     in which arguments and operands are evaluated unspecified (GCC 12
#     evaluates arguments right to left, Clang left to right), so the
#     drawn values would depend on the compiler. A draw is a call to
#     .next(, .next_below(, .next_double(, .next_double_in(,
#     .next_gaussian( or splitmix64(; statements are split at ';', '{' and
#     '}'. util/rng.{hpp,cpp}, which defines the draws, is exempt;
#   * two device ops in one src/apps statement, such as
#     `dev.add_wide(dev.mul_int(gx, gx), dev.mul_int(gy, gy))`: the order
#     of the ops sets the summation order of ExecStats::energy_ops_pj and
#     the op indices that reliability fault draws key off, so under the
#     same rule it would be the compiler's. A device op is a call to .add(,
#     .add_wide(, .mul(, .mul_int(, .mac_int( or a *_magnitude(_batch)(
#     entry point of core::ApimDevice.
#
# Matching happens on a //-comment-stripped view of each file so prose may
# mention the banned names. Exits 1 with file:line diagnostics, 0 clean.
set -euo pipefail
cd "$(dirname "$0")/.."

HAZARDS='std::rand\b|\bsrand\(|\brand\(|random_device|\btime\(|\bgettimeofday\b|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b'
DRAW='[.]next(_below|_double|_double_in|_gaussian)?[(]|splitmix64[(]'
DEVICE_OP='(->|[.])(add|add_wide|mul|mul_int|mac_int|(mul|add|cmp|popcnt)_magnitude(_batch)?)[(]'

# two_per_statement FILE REGEX WHAT FIX: report each statement of FILE's
# comment-stripped text with two or more REGEX matches, at the line of its
# first match; exits 1 if there is one.
two_per_statement() {
  sed 's|//.*||' "$1" | awk -v file="$1" -v re="$2" -v what="$3" -v fix="$4" '
      {
        n = split($0, parts, /[;{}]/)
        for (i = 1; i <= n; i++) {
          if (i > 1) calls = 0
          hits = gsub(re, "", parts[i])
          if (hits > 0 && calls == 0) first = NR
          calls += hits
          if (calls >= 2 && hits > 0 && calls - hits < 2) {
            printf "%s:%d: error: two %s in one statement " \
                   "(evaluation order is unspecified; %s)\n",
                   file, first, what, fix
            bad = 1
          }
        }
      }
      END { exit bad }'
}

status=0
while IFS= read -r file; do
  # Hazard symbols, on comment-stripped lines (numbers preserved).
  found=$(sed 's|//.*||' "$file" | grep -nE "$HAZARDS" || true)
  if [[ -n "$found" ]]; then
    while IFS= read -r hit; do
      echo "$file:${hit%%:*}: error: nondeterminism hazard: ${hit#*:}" \
        | tr -s ' '
    done <<<"$found"
    status=1
  fi

  # Unordered containers: declarations (not #include lines) need the
  # determinism-audited annotation nearby.
  if ! awk -v file="$file" '
      /determinism-audited/ { audited = NR }
      /unordered_(map|set)/ && !/#include/ {
        if (audited != NR && audited != NR - 1) {
          printf "%s:%d: error: unordered container without a " \
                 "determinism-audited annotation (iteration order is " \
                 "implementation-defined)\n", file, NR
          bad = 1
        }
      }
      END { exit bad }' "$file"; then
    status=1
  fi

  # Two seeded draws (anywhere but util/rng, which defines them), or two
  # device ops in src/apps, in one statement.
  if [[ "$file" != src/util/rng.?pp ]] &&
    ! two_per_statement "$file" "$DRAW" "seeded draws" "draw into locals"; then
    status=1
  fi
  if [[ "$file" == src/apps/* ]] &&
    ! two_per_statement "$file" "$DEVICE_OP" "device ops" \
      "assign each to a local"; then
    status=1
  fi
done < <(find src -name '*.hpp' -o -name '*.cpp' | sort)

if [[ "$status" -ne 0 ]]; then
  echo "check_determinism: FAILED (seed-determinism hazards above)"
  exit 1
fi
echo "check_determinism: src/ is free of nondeterminism hazards."
