# Runs qrdtm_run with each malformed or out-of-range argument set below and
# fails unless every run exits 2 and prints the usage text: a bad number
# must never turn into 0 and then a crash or a silent empty run.
#
#   cmake -DQRDTM_RUN=<qrdtm_run> -P check_rejects_bad_args.cmake
cmake_minimum_required(VERSION 3.16)

# One argument set per entry, its arguments separated by commas.
set(cases
    "--nodes,abc"
    "--nodes,0"
    "--nodes,4,--failures,4"
    "--seconds,abc"
    "--seconds,0"
    "--seconds,1e20"
    "--reads,7"
    "--clients,-1"
    "--app,nope")
foreach(args IN LISTS cases)
  string(REPLACE "," " " shown "${args}")
  string(REPLACE "," ";" argv "${args}")
  execute_process(COMMAND ${QRDTM_RUN} ${argv}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "qrdtm_run ${shown}: exit ${rc}, want 2\n${err}")
  endif()
  if(NOT out MATCHES "usage: qrdtm_run")
    message(FATAL_ERROR "qrdtm_run ${shown}: no usage text")
  endif()
endforeach()
message(STATUS "qrdtm_run rejected every malformed argument set")
