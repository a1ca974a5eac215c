# Runs qrdtm_run with --metrics-json and fails unless the file parses as
# JSON and carries the run header plus every counter listed in
# core::kMetricFields (read from metrics.h, so a new counter is checked
# without touching this script), unless it reports the commit logs' bytes,
# held bytes (at least as many) and shared prepare-run bytes (some, and no
# more than the held bytes), unless the replicas' outcome tables and the
# latency histograms hold some bytes, and unless the per-kind network
# traffic shows the QR-CN run's reads (kind 0x0101) carrying payload bytes.
#
#   cmake -DQRDTM_RUN=<qrdtm_run> -DMETRICS_H=<src/core/metrics.h>
#         -DOUT=<file.json> -P check_metrics_json.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

execute_process(
  COMMAND ${QRDTM_RUN} --app bank --mode closed --seconds 2 --seed 3
          --metrics-json ${OUT}
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qrdtm_run exited with ${rc}")
endif()

file(READ ${OUT} json)
foreach(key app mode num_nodes clients seed sim_seconds wall_seconds
        events_executed events_per_sec throughput_txn_per_sec invariants_ok
        log_bytes log_capacity_bytes log_shared_bytes outcome_table_bytes
        histogram_bytes net aggregate nodes)
  string(JSON unused ERROR_VARIABLE err GET "${json}" ${key})
  if(err)
    message(FATAL_ERROR "${OUT}: ${err}")
  endif()
endforeach()

# Every node logs its seeds, so the logs hold bytes, and they hold at
# least the bytes they log.
string(JSON log_bytes GET "${json}" log_bytes)
string(JSON log_capacity GET "${json}" log_capacity_bytes)
if(NOT log_bytes GREATER 0 OR log_capacity LESS log_bytes)
  message(FATAL_ERROR
          "${OUT}: log_bytes ${log_bytes}, log_capacity_bytes ${log_capacity}")
endif()

# The write quorums' prepares refer to runs on the cluster's shelf, each
# held once and counted in the held bytes of every log that refers to it.
string(JSON log_shared GET "${json}" log_shared_bytes)
if(NOT log_shared GREATER 0 OR log_shared GREATER log_capacity)
  message(FATAL_ERROR
          "${OUT}: log_shared_bytes ${log_shared}, "
          "log_capacity_bytes ${log_capacity}")
endif()

# The replicas remember the outcomes they applied, and the clients' nodes
# record latencies, so both tables hold bytes.
foreach(key outcome_table_bytes histogram_bytes)
  string(JSON held GET "${json}" ${key})
  if(NOT held GREATER 0)
    message(FATAL_ERROR "${OUT}: ${key} is ${held}")
  endif()
endforeach()

# Under QR-CN every remote read ships the root's data-set, so kRead bytes
# must be there and nonzero.
string(JSON read_bytes ERROR_VARIABLE err GET "${json}" net 0x0101 bytes)
if(err)
  message(FATAL_ERROR "${OUT}: kRead traffic missing: ${err}")
endif()
if(NOT read_bytes GREATER 0)
  message(FATAL_ERROR "${OUT}: kRead payload bytes are ${read_bytes}")
endif()

file(READ ${METRICS_H} header)
string(REGEX MATCHALL "MetricField\\{\"[a-z_]+\"" entries "${header}")
list(LENGTH entries count)
if(count EQUAL 0)
  message(FATAL_ERROR "no kMetricFields entries found in ${METRICS_H}")
endif()
foreach(entry ${entries})
  string(REGEX REPLACE "MetricField\\{\"([a-z_]+)\"" "\\1" name "${entry}")
  string(JSON unused ERROR_VARIABLE err GET "${json}" counters ${name})
  if(err)
    message(FATAL_ERROR "${OUT}: counter ${name} missing: ${err}")
  endif()
endforeach()
message(STATUS "${OUT}: ${count} counters present")
