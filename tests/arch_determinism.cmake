# End-to-end thread-count determinism check (ctest entry + CI):
# addm_explore must produce byte-identical CSV and JSON reports AND
# byte-identical cache directories (index.txt line order included) at
# every --threads count, and an --archs-filtered
# run sharing a cache directory with a full run must never be served from
# (or poison) the full run's entries.
#
# Usage: cmake -DADDM_EXPLORE=... -DWORK_DIR=... -P this
foreach(var ADDM_EXPLORE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

set(SUITE 1)  # 9 traces at 8x8

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

macro(run_checked)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE _rc ERROR_VARIABLE _err OUTPUT_QUIET)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "command failed (rc=${_rc}): ${ARGN}\n${_err}")
  endif()
endmacro()

macro(compare_files a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE _cmp)
  if(NOT _cmp EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endmacro()

# Byte-compares two cache directories: same file names, same contents.
macro(compare_dirs a b what)
  file(GLOB _a_files RELATIVE ${a} ${a}/*)
  file(GLOB _b_files RELATIVE ${b} ${b}/*)
  list(SORT _a_files)
  list(SORT _b_files)
  if(NOT _a_files STREQUAL _b_files)
    message(FATAL_ERROR "${what}: file sets differ\n  ${a}: ${_a_files}\n  ${b}: ${_b_files}")
  endif()
  if(_a_files STREQUAL "")
    message(FATAL_ERROR "${what}: cache directories are empty")
  endif()
  foreach(f ${_a_files})
    compare_files(${a}/${f} ${b}/${f} "${what} (${f})")
  endforeach()
endmacro()

# Reference: serial run.
run_checked(${ADDM_EXPLORE} --suite ${SUITE} --threads 1
  --cache-dir ${WORK_DIR}/cache_ref --format csv --out ${WORK_DIR}/ref.csv --quiet)
run_checked(${ADDM_EXPLORE} --suite ${SUITE} --threads 1
  --format json --out ${WORK_DIR}/ref.json --quiet)

# Every thread count must reproduce reports and cache bytes.
foreach(threads 2 4 8)
  set(tag t${threads})
  run_checked(${ADDM_EXPLORE} --suite ${SUITE} --threads ${threads}
    --cache-dir ${WORK_DIR}/cache_${tag}
    --format csv --out ${WORK_DIR}/${tag}.csv --quiet)
  run_checked(${ADDM_EXPLORE} --suite ${SUITE} --threads ${threads}
    --format json --out ${WORK_DIR}/${tag}.json --quiet)
  compare_files(${WORK_DIR}/${tag}.csv ${WORK_DIR}/ref.csv "CSV ${tag}")
  compare_files(${WORK_DIR}/${tag}.json ${WORK_DIR}/ref.json "JSON ${tag}")
  compare_dirs(${WORK_DIR}/cache_${tag} ${WORK_DIR}/cache_ref "cache ${tag}")
endforeach()

# --archs subset: distinct cache keys, so a warm full-run cache serves the
# full run but NOT the filtered run, and after both ran, both are warm.
run_checked(${ADDM_EXPLORE} --suite ${SUITE} --archs SRAG,CntAG-flat
  --cache-dir ${WORK_DIR}/cache_ref --format csv
  --out ${WORK_DIR}/filtered.csv --quiet)
execute_process(COMMAND ${ADDM_EXPLORE} --suite ${SUITE}
  --cache-dir ${WORK_DIR}/cache_ref --format csv --out ${WORK_DIR}/full_warm.csv
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm full rerun failed (rc=${rc}):\n${err}")
endif()
if(NOT err MATCHES "\\(0 evaluated, 0 memo hits, 9 disk hits, 0 errors\\)")
  message(FATAL_ERROR "filtered run poisoned the full run's cache keys:\n${err}")
endif()
compare_files(${WORK_DIR}/full_warm.csv ${WORK_DIR}/ref.csv "full report after filtered run")
execute_process(COMMAND ${ADDM_EXPLORE} --suite ${SUITE} --archs SRAG,CntAG-flat
  --cache-dir ${WORK_DIR}/cache_ref --format csv --out ${WORK_DIR}/filtered_warm.csv
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm filtered rerun failed (rc=${rc}):\n${err}")
endif()
if(NOT err MATCHES "\\(0 evaluated, 0 memo hits, 9 disk hits, 0 errors\\)")
  message(FATAL_ERROR "filtered rerun was not served from its own keys:\n${err}")
endif()
compare_files(${WORK_DIR}/filtered_warm.csv ${WORK_DIR}/filtered.csv
  "filtered report warm vs cold")

message(STATUS "arch determinism OK: reports and cache dirs byte-identical across --threads 1 2 4 8; --archs keys are disjoint")
