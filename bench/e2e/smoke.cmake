# ctest smoke test of the end-to-end benchmark: every workload at 2% of
# its flows, both legs, every gate, then the schema checks on the BENCH
# JSON and the Chrome traces. Run via `ctest --test-dir build-e2e`.
file(REMOVE_RECURSE ${OUT})
execute_process(
  COMMAND ${BENCH} --all --seed 1 --seconds 0.2 --scale 0.02 --out ${OUT}
  COMMAND_ERROR_IS_FATAL ANY)
file(GLOB workloads ${WORKLOADS}/*.scn)
set(expected "")
foreach(path ${workloads})
  get_filename_component(name ${path} NAME_WE)
  list(APPEND expected e2e_${name} e2e_${name}_layers)
  execute_process(COMMAND ${CHECK_TRACE} ${OUT}/trace_${name}.json bench
                  COMMAND_ERROR_IS_FATAL ANY)
endforeach()
execute_process(COMMAND ${CHECK_BENCH} ${OUT} ${expected}
                COMMAND_ERROR_IS_FATAL ANY)
