# ctest script: bench_inference must be byte-identical across --jobs 1
# and --jobs 8 (stdout and --json, minus the run-dependent "timing"
# line). Run as:
#   cmake -DBENCH=<bench_inference> -DWORKDIR=<dir> -P this_script
if(NOT DEFINED BENCH OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DBENCH=<binary> -DWORKDIR=<dir> -P "
                      "check_inference_determinism.cmake")
endif()

# Per-bench file names: bench_inference and bench_inference_stream run
# this script concurrently under `ctest -j` in the same WORKDIR.
get_filename_component(bench_name "${BENCH}" NAME_WE)
set(json1 "${WORKDIR}/${bench_name}_det_j1.json")
set(json8 "${WORKDIR}/${bench_name}_det_j8.json")

execute_process(
  COMMAND "${BENCH}" --quick --jobs 1 --json "${json1}"
  OUTPUT_VARIABLE out1 RESULT_VARIABLE rc1 ERROR_VARIABLE err1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "bench_inference --jobs 1 failed (rc=${rc1}):\n${err1}")
endif()

execute_process(
  COMMAND "${BENCH}" --quick --jobs 8 --json "${json8}"
  OUTPUT_VARIABLE out8 RESULT_VARIABLE rc8 ERROR_VARIABLE err8)
if(NOT rc8 EQUAL 0)
  message(FATAL_ERROR "bench_inference --jobs 8 failed (rc=${rc8}):\n${err8}")
endif()

if(NOT out1 STREQUAL out8)
  message(FATAL_ERROR "bench_inference stdout differs between --jobs 1 and "
                      "--jobs 8:\n--- jobs 1 ---\n${out1}\n--- jobs 8 ---\n"
                      "${out8}")
endif()

file(READ "${json1}" j1)
file(READ "${json8}" j8)
# The timing block is the single run-dependent line in the report.
string(REGEX REPLACE "[^\n]*\"timing\"[^\n]*" "" j1 "${j1}")
string(REGEX REPLACE "[^\n]*\"timing\"[^\n]*" "" j8 "${j8}")
if(NOT j1 STREQUAL j8)
  message(FATAL_ERROR "bench_inference --json differs between --jobs 1 and "
                      "--jobs 8 after stripping the timing line")
endif()

message(STATUS "bench_inference deterministic across --jobs 1 and --jobs 8")
