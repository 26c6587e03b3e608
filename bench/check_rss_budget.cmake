# ctest script: peak resident memory of a fixed conference run must stay
# under a budget. Runs bench_conference's 64-party 4-region 10 s --perf
# shape, reads "peak_rss_mb" (getrusage ru_maxrss) from the --json
# report's timing line, and fails above 400 MB. The RTX history rings
# dominate conference memory (2048 slots per video sender), so this is
# the gate that holds their compact layout. Run as:
#   cmake -DBENCH=<bench_conference> -DWORKDIR=<dir> -P check_rss_budget.cmake
if(NOT DEFINED BENCH OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
      "usage: cmake -DBENCH=<binary> -DWORKDIR=<dir> -P check_rss_budget.cmake")
endif()

set(budget_mb 400)

set(shape --perf --participants 64 --regions 4 --duration 10)
string(JOIN " " shape_text ${shape})
set(json "${WORKDIR}/rss_budget.json")
execute_process(
  COMMAND "${BENCH}" ${shape} --json "${json}"
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
      "bench_conference ${shape_text} failed (rc=${rc}):\n${err}")
endif()

file(READ "${json}" doc)
string(JSON rss ERROR_VARIABLE json_err GET "${doc}" timing peak_rss_mb)
if(json_err OR NOT rss MATCHES "^([0-9]+)")
  message(FATAL_ERROR "no peak_rss_mb in the timing line of ${json}")
endif()
set(rss_mb ${CMAKE_MATCH_1})

if(rss_mb GREATER ${budget_mb})
  message(FATAL_ERROR
      "bench_conference ${shape_text}: peak RSS ${rss_mb} MB exceeds the "
      "${budget_mb} MB budget")
endif()
message(STATUS "rss-budget: peak RSS ${rss_mb} MB <= ${budget_mb} MB")
