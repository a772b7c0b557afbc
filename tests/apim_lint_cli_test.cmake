# CLI contract test for apim_lint, run via ctest:
#   cmake -DAPIM_LINT=<bin> -DEXAMPLES_DIR=<dir> -P apim_lint_cli_test.cmake
#
# Seeded defects must be flagged at the right source lines with exit 1,
# clean kernels must exit 0, bad invocations must exit 2.
foreach(var APIM_LINT EXAMPLES_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(WORK ${CMAKE_CURRENT_BINARY_DIR}/apim_lint_cli_work)
file(MAKE_DIRECTORY ${WORK})

# run(<out-var-prefix> <expected exit> <binary> args...)
function(run prefix expected binary)
  execute_process(COMMAND ${binary} ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL ${expected})
    message(FATAL_ERROR "${binary} ${ARGN}: expected exit ${expected}, got "
      "'${result}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${prefix}_out "${out}" PARENT_SCOPE)
  set(${prefix}_err "${err}" PARENT_SCOPE)
endfunction()

function(expect_match text pattern what)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: expected to match '${pattern}'\ngot:\n${text}")
  endif()
endfunction()

# --- Seeded defects: one error per rule the issue calls out. -----------------
file(WRITE ${WORK}/defects.apim
"; seeded defects: every line below must be flagged
        load r1, #8
        add  r2, r3, r1             ; line 3: r3 read before any write
        store r2, [r0+99]           ; line 4: address 99 >= 64 words
        load r4, #4
        vadd [r4], [r1], [r4], #8   ; line 6: dst overlaps src A (|4-8| < 8)
        jnz  r2, @tail              ; line 7: label after final instruction
        halt
tail:
")
run(defects 1 ${APIM_LINT} --memsize 64 ${WORK}/defects.apim)
expect_match("${defects_out}" "line 3: error \\[use-before-def\\]" "defects")
expect_match("${defects_out}" "line 4: error \\[mem-bounds\\]" "defects")
expect_match("${defects_out}" "line 6: error \\[vector-overlap\\]" "defects")
expect_match("${defects_out}" "line 7: error \\[branch-target\\]" "defects")

# --- Parse errors surface with line numbers, not a crash. --------------------
file(WRITE ${WORK}/dup_label.apim
"loop:   load r1, #1
loop:   halt
")
run(dup 1 ${APIM_LINT} ${WORK}/dup_label.apim)
expect_match("${dup_out}" "line 2: error \\[parse\\]" "dup_label")
expect_match("${dup_out}" "duplicate label 'loop' \\(first defined at line 1\\)"
  "dup_label")

# --- Clean kernels exit 0 under the strictest settings. ----------------------
file(GLOB examples ${EXAMPLES_DIR}/*.apim)
list(LENGTH examples n_examples)
if(n_examples EQUAL 0)
  message(FATAL_ERROR "no example kernels found in ${EXAMPLES_DIR}")
endif()
run(clean 0 ${APIM_LINT} --werror --memsize 64 ${examples})
expect_match("${clean_out}" "0 error\\(s\\), 0 warning\\(s\\)" "examples clean")

# --werror flips a warnings-only file to exit 1.
file(WRITE ${WORK}/warn_only.apim
"        load r0, #1   ; write to r0 is dropped: warning, not error
        halt
")
run(warn0 0 ${APIM_LINT} ${WORK}/warn_only.apim)
expect_match("${warn0_out}" "warning \\[r0-write\\]" "warn_only")
run(warn1 1 ${APIM_LINT} --werror ${WORK}/warn_only.apim)

# --- JSON mode is machine-readable and carries the same verdicts. ------------
run(json 1 ${APIM_LINT} --json --memsize 64 ${WORK}/defects.apim)
expect_match("${json_out}" "^\\[{\"file\":" "json shape")
expect_match("${json_out}" "\"rule\":\"use-before-def\",\"line\":3" "json rule")
expect_match("${json_out}" "\"errors\":4" "json error count")

# --- Bad invocations exit 2 with a diagnostic. -------------------------------
run(bad0 2 ${APIM_LINT})
expect_match("${bad0_err}" "apim_lint: error:" "no-args diagnostic")
run(bad1 2 ${APIM_LINT} --frobnicate ${WORK}/defects.apim)
run(bad2 2 ${APIM_LINT} --memsize sixty-four ${WORK}/defects.apim)
run(missing 1 ${APIM_LINT} ${WORK}/no_such_file.apim)
expect_match("${missing_out}" "error \\[io\\]" "missing file")

# Signed, overflowing and out-of-range sizes are errors: the lint compares
# addresses as int64, so a size above 2^63-1 would flag in-range stores.
foreach(bad -1 +64 64x 9223372036854775808 18446744073709551616)
  run(badsize 2 ${APIM_LINT} --memsize ${bad} ${EXAMPLES_DIR}/axpy.apim)
  expect_match("${badsize_err}" "apim_lint: error:" "--memsize ${bad}")
endforeach()
run(bigsize 0 ${APIM_LINT} --werror --memsize 9223372036854775807
  ${EXAMPLES_DIR}/axpy.apim)

message(STATUS "apim_lint CLI contract holds")
