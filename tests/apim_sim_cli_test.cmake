# CLI contract smoke test for apim_sim, run via ctest:
#   cmake -DAPIM_SIM=<binary> -P apim_sim_cli_test.cmake
#
# Every bad invocation must exit 2 with an `apim_sim: error:` diagnostic
# on stderr; --help/--list and a small valid run must exit 0.
if(NOT DEFINED APIM_SIM)
  message(FATAL_ERROR "pass -DAPIM_SIM=<path to apim_sim binary>")
endif()

function(run_sim expected_code must_match_stderr)
  execute_process(COMMAND ${APIM_SIM} ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL ${expected_code})
    message(FATAL_ERROR "apim_sim ${ARGN}: expected exit ${expected_code}, "
      "got '${result}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  if(must_match_stderr AND NOT err MATCHES "apim_sim: error:")
    message(FATAL_ERROR "apim_sim ${ARGN}: exit ${result} without an "
      "'apim_sim: error:' diagnostic\nstderr:\n${err}")
  endif()
endfunction()

# Good invocations.
run_sim(0 FALSE --help)
run_sim(0 FALSE --list)
run_sim(0 FALSE --app Sobel --elements 64 --relax 0)
run_sim(0 FALSE --app FFT --elements 64 --csv)

# Bad invocations: consistent exit 2 plus a diagnostic.
run_sim(2 TRUE --frobnicate)
run_sim(2 TRUE --app NoSuchApp)
run_sim(2 TRUE --app)                      # missing value
run_sim(2 TRUE --elements twelve)          # malformed count
run_sim(2 TRUE --elements)                 # missing value
run_sim(2 TRUE --seed 12x)                 # trailing junk
run_sim(2 TRUE --relax 99)                 # out of range
run_sim(2 TRUE --mask 40)                  # out of range
run_sim(2 TRUE --lanes 0)                  # zero lanes
run_sim(2 TRUE --backend gpu)              # unknown backend
# Signed, overflowing and out-of-range numbers are errors, never wrapped.
run_sim(2 TRUE --elements -1)
run_sim(2 TRUE --elements 16777217)        # above the 2^24 bound
run_sim(2 TRUE --elements +64)
run_sim(2 TRUE --seed -1)
run_sim(2 TRUE --seed 18446744073709551616)  # overflows uint64
run_sim(2 TRUE --relax -1)
run_sim(2 TRUE --mask -1)
run_sim(2 TRUE --lanes -1)
run_sim(2 TRUE --lint x.apim)              # apim_lint's job
run_sim(2 TRUE --memsize 64)               # apim_lint's job

message(STATUS "apim_sim CLI contract holds")
