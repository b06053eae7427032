# Runs ctsort on specs that no backend can run. Each run must exit
# nonzero with exactly one line on stderr, starting "ctsort: ", and
# must not die of a signal (an uncaught CheckError aborts).
#
#   cmake -DCTSORT=build/ctsort -P tests/ctsort_bad_specs.cmake
if(NOT CTSORT)
  message(FATAL_ERROR "pass -DCTSORT=<path to ctsort>")
endif()

foreach(args IN ITEMS "--records=0"
                      "--algo=coded --redundancy=0"
                      "--algo=coded --nodes=65")
  separate_arguments(argv UNIX_COMMAND "${args}")
  execute_process(COMMAND "${CTSORT}" ${argv}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  if(NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "ctsort ${args}: died (${rc}): ${err}")
  endif()
  if(rc EQUAL 0)
    message(FATAL_ERROR "ctsort ${args}: exited 0, want an error")
  endif()
  string(FIND "${err}" "\n" newline)
  if(NOT err MATCHES "^ctsort: " OR NOT newline EQUAL -1)
    message(FATAL_ERROR "ctsort ${args}: want one 'ctsort: ' error line, "
                        "got:\n${err}")
  endif()
  message(STATUS "ctsort ${args}: exit ${rc}: ${err}")
endforeach()
