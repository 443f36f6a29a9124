# ctest entry `scn_keys_documented`: every key the canonical spec prints
# (`lazyctrl_run <scn> --print-spec`) is named in backticks somewhere in
# docs/SCENARIOS.md, so a new `.scn` key cannot land undocumented.
execute_process(COMMAND ${RUN} ${SCENARIO} --print-spec
                RESULT_VARIABLE rc OUTPUT_VARIABLE spec ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lazyctrl_run --print-spec: exit ${rc}\n${err}")
endif()
file(READ ${DOC} doc)
string(REGEX MATCHALL "\n[a-z0-9_.]+ = " lines "\n${spec}")
list(LENGTH lines count)
if(count EQUAL 0)
  message(FATAL_ERROR "no `key = value` lines in --print-spec output:\n${spec}")
endif()
foreach(line ${lines})
  string(REGEX REPLACE "\n([a-z0-9_.]+) = " "\\1" key "${line}")
  string(FIND "${doc}" "`${key}`" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "`.scn` key '${key}' is not documented in ${DOC}")
  endif()
endforeach()
