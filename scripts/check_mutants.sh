#!/usr/bin/env bash
# Mutation gate: every mutant in scripts/mutants.txt must fail tier-1.
#
# Each entry of the list names a file, an exact source snippet, its
# replacement and a one-line reason (the file's header gives the format).
# The script keeps a scratch copy of the tree under the build root and
# builds it once in Release. It first runs tier-1 (the whole ctest suite)
# on the unmutated copy, which must pass. Then, for each mutant, it
# applies the replacement, rebuilds incrementally, runs tier-1, requires
# at least one failing test and restores the file.
#
# It exits 1 when a mutant survives, when a mutant does not build, or when
# an entry's snippet does not occur exactly once in its file (a stale
# entry, like a stale name in scripts/consumers_allowlist.txt). It exits 2
# when the unmutated copy does not build or does not pass. A rerun copies
# only the files that changed, so it rebuilds only what they touch.
#
# Usage: scripts/check_mutants.sh [build-root] [mutant-name...]
#   build-root    default build-mutants (gitignored)
#   mutant-name   run only these mutants; every entry is still checked
#                 for staleness
set -euo pipefail
shopt -u patsub_replacement 2>/dev/null || true

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
OUT="${1:-build-mutants}"
[[ $# -gt 0 ]] && shift
LIST="$ROOT/scripts/mutants.txt"
JOBS="$(nproc)"
COPY="$OUT/tree"
BUILD="$OUT/build"
LOG="$OUT/last.log"
REPORT="$OUT/report.txt"
mkdir -p "$COPY" "$BUILD"

# -- Parse the list -----------------------------------------------------------
names=() files=() finds=() repls=() whys=()
name="" file="" find="" repl="" why="" has_find=0 has_repl=0
flush() {
  [[ -z "$name$file$find$repl$why" ]] && return 0
  if [[ -z "$name" || -z "$file" || $has_find == 0 || $has_repl == 0 ||
        -z "$why" ]]; then
    echo "check_mutants: entry '${name:-?}' needs name, file, find, repl and why" >&2
    exit 2
  fi
  names+=("$name") files+=("$file") finds+=("$find") repls+=("$repl")
  whys+=("$why")
  name="" file="" find="" repl="" why="" has_find=0 has_repl=0
}
while IFS= read -r line || [[ -n "$line" ]]; do
  case "$line" in
    '#'*) ;;
    '') flush ;;
    'name: '*) name="${line#name: }" ;;
    'file: '*) file="${line#file: }" ;;
    'why: '*) why="${line#why: }" ;;
    'find:'*)
      text="${line#find:}"
      text="${text# }"
      if ((has_find)); then find+=$'\n'"$text"; else find="$text"; fi
      has_find=1 ;;
    'repl:'*)
      text="${line#repl:}"
      text="${text# }"
      if ((has_repl)); then repl+=$'\n'"$text"; else repl="$text"; fi
      has_repl=1 ;;
    *) echo "check_mutants: unreadable line: $line" >&2; exit 2 ;;
  esac
done <"$LIST"
flush

selected=("$@")
for want in "${selected[@]}"; do
  found=0
  for n in "${names[@]}"; do [[ "$n" == "$want" ]] && found=1; done
  ((found)) || { echo "check_mutants: no mutant named '$want'" >&2; exit 2; }
done

# -- Sync the scratch copy ----------------------------------------------------
# Tracked and untracked (not ignored) files; a file is rewritten only when
# its content differs, so unchanged files keep their build outputs.
while IFS= read -r -d '' f; do
  [[ -f "$f" ]] || continue
  if ! cmp -s "$f" "$COPY/$f"; then
    mkdir -p "$COPY/$(dirname "$f")"
    cp "$f" "$COPY/$f"
  fi
done < <(git ls-files -z --cached --others --exclude-standard)

# Sets `content` to file $1, trailing newlines kept.
load() {
  content="$(cat "$1"; printf x)"
  content="${content%x}"
}
# Occurrences of mutant $1's snippet in `content`.
occurrences() {
  local rest="${content//"${finds[$1]}"/}"
  echo $(((${#content} - ${#rest}) / ${#finds[$1]}))
}

stale=0
for i in "${!names[@]}"; do
  target="$COPY/${files[i]}"
  count=0
  if [[ -f "$target" ]]; then
    load "$target"
    count="$(occurrences "$i")"
  fi
  if ((count != 1)); then
    echo "STALE     ${names[i]}: snippet occurs $count times in ${files[i]}"
    stale=1
  fi
done

# -- Build and check the unmutated copy ---------------------------------------
build() { cmake --build "$BUILD" -j "$JOBS" >"$LOG" 2>&1; }
# Failing test names of one tier-1 run, one per line (none: empty).
tier1_failures() {
  local failed="$BUILD/Testing/Temporary/LastTestsFailed.log"
  rm -f "$failed"
  ctest --test-dir "$BUILD" -j "$JOBS" --timeout 120 >"$LOG" 2>&1 || true
  # Names without gtest's "  # GetParam() = ..." suffix.
  [[ -f "$failed" ]] && cut -d: -f2- "$failed" | sed 's/  # GetParam.*//'
  return 0
}

cmake -S "$COPY" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >"$LOG" 2>&1 ||
  { cat "$LOG" >&2; echo "check_mutants: configure failed" >&2; exit 2; }
build || { cat "$LOG" >&2; echo "check_mutants: build failed" >&2; exit 2; }
baseline="$(tier1_failures)"
if [[ -n "$baseline" ]]; then
  echo "check_mutants: tier-1 fails without a mutant:" >&2
  echo "$baseline" >&2
  exit 2
fi

# -- Run the mutants ----------------------------------------------------------
survived=0
broken=0
: >"$REPORT"
for i in "${!names[@]}"; do
  if [[ ${#selected[@]} -gt 0 ]]; then
    run=0
    for want in "${selected[@]}"; do [[ "$want" == "${names[i]}" ]] && run=1; done
    ((run)) || continue
  fi
  target="$COPY/${files[i]}"
  [[ -f "$target" ]] || continue
  load "$target"
  [[ "$(occurrences "$i")" == 1 ]] || continue
  printf '%s' "${content/"${finds[i]}"/"${repls[i]}"}" >"$target"
  if ! build; then
    echo "BROKEN    ${names[i]}: does not build (see $LOG)"
    broken=1
  else
    failures="$(tier1_failures)"
    if [[ -z "$failures" ]]; then
      echo "SURVIVED  ${names[i]}: ${whys[i]}"
      survived=1
    else
      n="$(wc -l <<<"$failures")"
      echo "killed    ${names[i]}: $n failing tests"
      {
        echo "${names[i]} (${files[i]}): ${whys[i]}"
        sed 's/^/  /' <<<"$failures"
      } >>"$REPORT"
    fi
  fi
  printf '%s' "$content" >"$target"
done

echo "check_mutants: killing tests per mutant in $REPORT"
if ((stale || survived || broken)); then
  echo "check_mutants: FAILED" >&2
  exit 1
fi
echo "check_mutants: every mutant killed"
