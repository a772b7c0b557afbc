#!/usr/bin/env bash
# Consumer check: every function src/ defines must be kept by some program.
#
# Builds every bench, tool and example target of the main tree and the
# end-to-end benchmark (benchmark/) in Debug with -ffunction-sections
# -fdata-sections and -Wl,--gc-sections, each in its own build directory
# under build-consumers/. The linker then drops every function no program
# reaches. Debug does no inlining, so a called function cannot vanish into
# its caller and pass for unused.
#
# The check lists the global text (`T`) symbols of src/'s archives that no
# program keeps, compares names without their parameter lists (a trailing
# `const` stays, so `Image::at() const` is told from `Image::at()`), and
# subtracts scripts/consumers_allowlist.txt: the names kept on purpose,
# grouped under one-line reasons. It exits 1 on any other name, and on an
# allowlisted name that is gone or now has a consumer, so the allowlist
# stays exact. A program is every .cpp file in bench/ (but
# bench_common.cpp), tools/ and examples/, named after its target.
#
# Usage: scripts/check_consumers.sh [build-root]   (default: build-consumers)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
OUT="${1:-build-consumers}"
ALLOWLIST="$ROOT/scripts/consumers_allowlist.txt"
JOBS="$(nproc)"
GC_FLAGS=(-DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

programs=()
for f in bench/*.cpp tools/*.cpp examples/*.cpp; do
  name="$(basename "$f" .cpp)"
  [[ "$name" == bench_common ]] || programs+=("$name")
done

cmake -S . -B "$OUT/tree" "${GC_FLAGS[@]}" >/dev/null
cmake --build "$OUT/tree" -j "$JOBS" --target "${programs[@]}" >/dev/null
cmake -S benchmark -B "$OUT/benchmark" "${GC_FLAGS[@]}" >/dev/null
cmake --build "$OUT/benchmark" -j "$JOBS" >/dev/null

# Demangled name without its parameter list or ABI tags; a trailing
# `const` is kept.
normalize() {
  awk '{
    s = $0
    gsub(/\[abi:[^]]*\]/, "", s)
    q = ""
    if (s ~ / const$/) { q = " const"; s = substr(s, 1, length(s) - 6) }
    if (substr(s, length(s), 1) == ")") {
      depth = 0
      for (i = length(s); i > 0; i--) {
        c = substr(s, i, 1)
        if (c == ")") depth++
        else if (c == "(" && --depth == 0) break
      }
      s = substr(s, 1, i - 1)
    }
    print s q
  }'
}

# Names of the defined symbols in "$@" whose nm type matches $1.
symbols() {
  local types="$1"
  shift
  nm -C --defined-only "$@" |
    awk -v t="$types" 'match($0, /^[0-9a-f]+ [A-Za-z] /) &&
      $2 ~ t { print substr($0, RLENGTH + 1) }'
}

mapfile -t archives < <(find "$OUT/tree/src" -name 'libapim_*.a' | sort)
binaries=("$OUT/benchmark/apim_benchmark")
for name in "${programs[@]}"; do
  for dir in bench tools examples; do
    [[ -x "$OUT/tree/$dir/$name" ]] && binaries+=("$OUT/tree/$dir/$name")
  done
done
expected=$((${#programs[@]} + 1))
if ((${#binaries[@]} != expected)); then
  echo "check_consumers: found ${#binaries[@]} of $expected programs" >&2
  exit 2
fi

work="$OUT/names"
mkdir -p "$work"
symbols '^T$' "${archives[@]}" | normalize | sort -u >"$work/defined"
symbols '^[TtWw]$' "${binaries[@]}" | normalize | sort -u >"$work/kept"
comm -23 "$work/defined" "$work/kept" >"$work/unkept"
{ grep -v '^[[:space:]]*\(#\|$\)' "$ALLOWLIST" || true; } |
  sort -u >"$work/allowed"

status=0
unexpected="$(comm -23 "$work/unkept" "$work/allowed")"
if [[ -n "$unexpected" ]]; then
  echo "check_consumers: functions in src/ that no program keeps:"
  sed 's/^/  /' <<<"$unexpected"
  echo "Give each a consumer, delete it with its tests, or allowlist it" \
    "with a reason."
  status=1
fi
stale="$(comm -13 "$work/unkept" "$work/allowed")"
if [[ -n "$stale" ]]; then
  echo "check_consumers: allowlisted names that are gone or now kept:"
  sed 's/^/  /' <<<"$stale"
  echo "Remove them from scripts/consumers_allowlist.txt."
  status=1
fi
if ((status == 0)); then
  echo "Consumer check passed: ${#binaries[@]} programs keep every function" \
    "in src/ but the $(wc -l <"$work/allowed") allowlisted names."
fi
exit "$status"
