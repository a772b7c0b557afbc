# CLI contract test for apim_asm, run via ctest:
#   cmake -DAPIM_ASM=<bin> -DEXAMPLES_DIR=<dir> -P apim_asm_cli_test.cmake
#
# Every bad invocation must exit 2 with an `apim_asm: error:` diagnostic
# on stderr, never a signal or an abort; every example kernel must still
# run to halt in a 64-word memory.
foreach(var APIM_ASM EXAMPLES_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

function(run_asm expected_code must_match_stderr)
  execute_process(COMMAND ${APIM_ASM} ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL ${expected_code})
    message(FATAL_ERROR "apim_asm ${ARGN}: expected exit ${expected_code}, "
      "got '${result}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(must_match_stderr AND NOT err MATCHES "apim_asm: error:")
    message(FATAL_ERROR "apim_asm ${ARGN}: exit ${result} without an "
      "'apim_asm: error:' diagnostic\nstderr:\n${err}")
  endif()
  set(asm_out "${out}" PARENT_SCOPE)
endfunction()

# Good invocations: every example halts.
file(GLOB examples ${EXAMPLES_DIR}/*.apim)
list(LENGTH examples n_examples)
if(n_examples EQUAL 0)
  message(FATAL_ERROR "no example kernels found in ${EXAMPLES_DIR}")
endif()
foreach(kernel ${examples})
  run_asm(0 FALSE ${kernel} --memsize 64)
  if(NOT asm_out MATCHES "halted: yes")
    message(FATAL_ERROR "${kernel} did not halt\n${asm_out}")
  endif()
endforeach()
list(GET examples 0 kernel)
run_asm(0 FALSE ${kernel} --mem 1,-2,3 --memsize 64 --relax 64 --lint)
run_asm(0 FALSE ${kernel} --disasm)

# Bad invocations: consistent exit 2 plus a diagnostic.
run_asm(2 TRUE)                                   # no kernel file
run_asm(2 TRUE ${EXAMPLES_DIR}/no_such_kernel.apim)
run_asm(2 TRUE ${kernel} --frobnicate)
run_asm(2 TRUE ${kernel} --mem)                   # missing value
run_asm(2 TRUE ${kernel} --mem 1,x,3)             # malformed item
run_asm(2 TRUE ${kernel} --mem 1,,3)              # empty item
run_asm(2 TRUE ${kernel} --mem 9223372036854775808)  # overflows int64
run_asm(2 TRUE ${kernel} --memsize -1)            # signed
run_asm(2 TRUE ${kernel} --memsize 16777217)      # above the 2^24 bound
run_asm(2 TRUE ${kernel} --memsize 18446744073709551616)  # overflows
run_asm(2 TRUE ${kernel} --memsize 64x)           # trailing junk
run_asm(2 TRUE ${kernel} --relax -1)              # signed
run_asm(2 TRUE ${kernel} --relax 65)              # out of range
run_asm(2 TRUE ${kernel} --relax)                 # missing value

message(STATUS "apim_asm CLI contract holds")
