# Checks that the shared bench CLI (src/harness/bench_cli.cpp) never
# ignores an export flag: a driver whose trials run a testbench writes
# the --metrics and --trace files it is asked for, and a driver that
# builds none refuses those flags (exit 2 plus the usage text) before it
# runs anything or creates a file.
#
#   cmake -DWCRT=path/to/wcrt_validation -DACCEPTANCE=path/to/acceptance_ratio
#         -DWORK=scratch/dir -P bench_exports.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

execute_process(
  COMMAND ${WCRT} --trials 1 --cycles 2000 --metrics m.csv --trace t.json
  WORKING_DIRECTORY ${WORK}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "wcrt_validation: exit ${code}\n${out}${err}")
endif()
foreach(f m.csv t.json)
  if(NOT EXISTS ${WORK}/${f})
    message(FATAL_ERROR "wcrt_validation wrote no ${f}")
  endif()
  file(SIZE ${WORK}/${f} size)
  if(size EQUAL 0)
    message(FATAL_ERROR "wcrt_validation wrote an empty ${f}")
  endif()
endforeach()

execute_process(
  COMMAND ${ACCEPTANCE} --metrics x.csv
  WORKING_DIRECTORY ${WORK}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
  TIMEOUT 10)
if(NOT code EQUAL 2 OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "acceptance_ratio --metrics: exit ${code}, want 2 "
                      "with usage\n${out}${err}")
endif()
if(EXISTS ${WORK}/x.csv)
  message(FATAL_ERROR "acceptance_ratio --metrics created x.csv")
endif()
