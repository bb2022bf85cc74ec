# Runs a bench driver with flag values the shared bench CLI
# (src/harness/bench_cli.cpp) must reject and checks each exits 2 with
# the matching error and the usage text. Every value is rejected while
# parsing, so no trial runs and no worker thread starts.
#
#   cmake -DBENCH=path/to/fig6_synthetic -P bench_cli.cmake
foreach(case
    "--trials;-1;--trials expects an integer in \\[0, 4294967295\\], got '-1'"
    "--threads;-1;--threads expects an integer in \\[0, 4294967295\\], got '-1'"
    "--trials;4294967296;--trials expects an integer in \\[0, 4294967295\\], got '4294967296'"
    "--seed;18446744073709551616;--seed expects an integer in \\[0, 18446744073709551615\\], got '18446744073709551616'"
    "--cycles;+5;--cycles expects an integer in \\[0, 18446744073709551615\\], got '\\+5'")
  list(GET case 0 flag)
  list(GET case 1 value)
  list(GET case 2 expected)
  execute_process(COMMAND ${BENCH} ${flag} ${value}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${flag} ${value}: exit ${code}, want 2\n"
                        "${out}${err}")
  endif()
  if(NOT err MATCHES ": ${expected}\n" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "${flag} ${value}: unexpected stderr:\n${err}")
  endif()
endforeach()
