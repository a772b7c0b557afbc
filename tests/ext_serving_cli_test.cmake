# CLI contract test for the benches' path flags, run via ctest on
# ext_serving:
#   cmake -DEXT_SERVING=<bin> -P ext_serving_cli_test.cmake
#
# --json, --trace and --out each take a path. Given last, or as `--flag=`,
# the flag exits 2 with "ext_serving: error: <flag> needs a path" before
# any work runs: nothing on stdout and no CSV written.
if(NOT DEFINED EXT_SERVING)
  message(FATAL_ERROR "pass -DEXT_SERVING=...")
endif()

set(WORK ${CMAKE_CURRENT_BINARY_DIR}/ext_serving_cli_work)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

foreach(flag --json --trace --out)
  foreach(args "--smoke;${flag}" "${flag}=;--smoke")
    string(REPLACE ";" " " shown "${args}")
    execute_process(COMMAND ${EXT_SERVING} ${args}
      WORKING_DIRECTORY ${WORK}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT result EQUAL 2)
      message(FATAL_ERROR "ext_serving ${shown}: expected exit 2, got "
        "'${result}'\nstdout:\n${out}\nstderr:\n${err}")
    endif()
    if(NOT err MATCHES "^ext_serving: error: ${flag} needs a path")
      message(FATAL_ERROR "ext_serving ${shown}: diagnostic\n${err}")
    endif()
    if(NOT out STREQUAL "")
      message(FATAL_ERROR "ext_serving ${shown}: ran before failing:\n${out}")
    endif()
  endforeach()
endforeach()

file(GLOB written ${WORK}/*)
if(written)
  message(FATAL_ERROR "ext_serving wrote files before failing: ${written}")
endif()

message(STATUS "ext_serving path-flag contract holds")
