# CLI contract test for apim_report, run via ctest:
#   cmake -DAPIM_REPORT=<bin> -P apim_report_cli_test.cmake
#
# apim_report takes no arguments: without any it prints the datasheet and
# exits 0; any argument exits 2 with "apim_report: error:" and prints no
# datasheet.
if(NOT DEFINED APIM_REPORT)
  message(FATAL_ERROR "pass -DAPIM_REPORT=...")
endif()

# run(<out-var-prefix> <expected exit> args...)
function(run prefix expected)
  execute_process(COMMAND ${APIM_REPORT} ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL ${expected})
    message(FATAL_ERROR "apim_report ${ARGN}: expected exit ${expected}, got "
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

run(ok 0)
expect_match("${ok_out}" "APIM modeled-part datasheet" "datasheet")

foreach(arg --frob --help -h 1)
  run(bad 2 "${arg}")
  expect_match("${bad_err}" "^apim_report: error: unexpected argument '${arg}'"
    "argument '${arg}'")
  if(NOT bad_out STREQUAL "")
    message(FATAL_ERROR "apim_report '${arg}': printed to stdout:\n${bad_out}")
  endif()
endforeach()
run(two 2 --frob --json)
expect_match("${two_err}" "unexpected argument '--frob'" "first argument")

message(STATUS "apim_report CLI contract holds")
