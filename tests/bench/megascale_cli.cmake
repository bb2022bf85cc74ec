# Runs bench/megascale with flag values its CLI must reject and checks
# each exits 2 with the matching error message. Every value is rejected
# while parsing, so no selection runs and no worker thread starts.
#
#   cmake -DMEGASCALE=path/to/megascale -P megascale_cli.cmake
foreach(case
    "--depth;x;--depth expects an integer in \\[0, 15\\], got 'x'"
    "--depth;16;--depth expects an integer in \\[0, 15\\], got '16'"
    "--threads;-1;--threads expects an integer in \\[0, [0-9]+\\], got '-1'")
  list(GET case 0 flag)
  list(GET case 1 value)
  list(GET case 2 expected)
  execute_process(COMMAND ${MEGASCALE} ${flag} ${value}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "megascale ${flag} ${value}: exit ${code}, want 2\n"
                        "${out}${err}")
  endif()
  if(NOT err MATCHES "megascale: ${expected}" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "megascale ${flag} ${value}: unexpected stderr:\n"
                        "${err}")
  endif()
endforeach()
