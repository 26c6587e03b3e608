# ctest script: golden outputs. Each listed bench runs at --quick --jobs 1;
# its stdout and its --json report (minus the one run-dependent "timing"
# line) must match the committed files under tests/golden/ byte for byte.
# A refactor that claims to keep behaviour passes this unchanged; a change
# that moves results must re-record the files and explain why.
#
# Re-record (from a build of the code whose outputs become the reference):
#   <bench> --quick --jobs 1 --json out.json > tests/golden/<bench>_quick.stdout
#   grep -v '"timing"' out.json > tests/golden/<bench>_quick.json
#
# usage: cmake -DBENCHES="<path>;<path>" -DGOLDEN=<dir> -DWORKDIR=<dir>
#              -P check_golden_outputs.cmake
if(NOT DEFINED BENCHES OR NOT DEFINED GOLDEN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DBENCHES=<binaries> -DGOLDEN=<dir> "
                      "-DWORKDIR=<dir> -P check_golden_outputs.cmake")
endif()

set(failed "")
foreach(bench IN LISTS BENCHES)
  get_filename_component(name "${bench}" NAME_WE)
  set(json "${WORKDIR}/golden_${name}.json")
  execute_process(
    COMMAND "${bench}" --quick --jobs 1 --json "${json}"
    OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --quick failed (rc=${rc}):\n${err}")
  endif()

  file(READ "${GOLDEN}/${name}_quick.stdout" want_out)
  if(NOT out STREQUAL want_out)
    file(WRITE "${WORKDIR}/golden_${name}.stdout" "${out}")
    list(APPEND failed "${name} stdout (got ${WORKDIR}/golden_${name}.stdout)")
  endif()

  file(READ "${json}" got_json)
  string(REGEX REPLACE "[^\n]*\"timing\"[^\n]*\n" "" got_json "${got_json}")
  file(READ "${GOLDEN}/${name}_quick.json" want_json)
  if(NOT got_json STREQUAL want_json)
    list(APPEND failed "${name} --json minus timing (got ${json})")
  endif()
endforeach()

if(failed)
  string(REPLACE ";" "\n  " failed "${failed}")
  message(FATAL_ERROR "golden outputs differ from ${GOLDEN}:\n  ${failed}")
endif()
message(STATUS "golden outputs match ${GOLDEN}")
