# ctest entry `cli_bad_scale`: every scenario tool rejects a --scale that
# is not a finite number > 0, or that scales the flow count past what a
# trace can hold, with exit code 2 and a diagnosis on stderr, before it
# builds or runs anything.
foreach(value nan inf 1e30 2x 0 -1)
  foreach(cmd "${RUN};${SCENARIO}" "${EXPLAIN};${SCENARIO}"
              "${FUZZ};--seeds;1")
    execute_process(COMMAND ${cmd} --scale ${value}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "--scale")
      list(GET cmd 0 tool)
      message(FATAL_ERROR
              "${tool} --scale ${value}: exit ${rc}, want 2\n${err}")
    endif()
  endforeach()
endforeach()
