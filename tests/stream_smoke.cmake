# End-to-end streaming-pipeline smoke, run as a ctest entry and by the CI
# smoke job:
#
#   1. addm_trace_import on the checked-in lackey log must reproduce the
#      checked-in golden trace byte-for-byte (stdin and --in/--out paths)
#   2. --compress-periodic on the (aperiodic) imported trace must be a
#      byte-for-byte no-op on the report
#   3. a generated multi-pass periodic trace must explore with every note
#      annotated "[periodic 300x8]"
#   4. a suite over the cell ceiling (65536x65536 = 2^32 cells) must be
#      refused with exit 2 before anything is generated or written
#
# Usage: cmake -DADDM_EXPLORE=... -DADDM_TRACE_IMPORT=... -DGOLDEN_DIR=...
#              -DWORK_DIR=... -P this
foreach(var ADDM_EXPLORE ADDM_TRACE_IMPORT GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

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

# 1. Import the checked-in lackey log; must match the checked-in golden.
run_checked(${ADDM_TRACE_IMPORT} --geometry 8x8
  --in ${GOLDEN_DIR}/lackey_sample.log
  --out ${WORK_DIR}/imported.trace --quiet)
compare_files(${WORK_DIR}/imported.trace ${GOLDEN_DIR}/lackey_sample.trace
  "lackey import golden")

# Stdin path must behave exactly like --in.
execute_process(COMMAND ${ADDM_TRACE_IMPORT} --geometry 8x8
  --out ${WORK_DIR}/imported_stdin.trace --quiet
  INPUT_FILE ${GOLDEN_DIR}/lackey_sample.log
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stdin import failed (rc=${rc}):\n${err}")
endif()
compare_files(${WORK_DIR}/imported_stdin.trace ${WORK_DIR}/imported.trace
  "stdin vs --in import")

# 2. Explore the imported trace with and without compression: the report
# bytes must not change (the trace is aperiodic, so compression is a strict
# no-op).
run_checked(${ADDM_EXPLORE} --trace ${WORK_DIR}/imported.trace
  --out ${WORK_DIR}/imported.csv --quiet)
run_checked(${ADDM_EXPLORE} --trace ${WORK_DIR}/imported.trace
  --compress-periodic --out ${WORK_DIR}/imported_compressed.csv --quiet)
compare_files(${WORK_DIR}/imported_compressed.csv ${WORK_DIR}/imported.csv
  "--compress-periodic report (aperiodic trace)")

# 3. A periodic trace: 300 passes over an 8-access loop.  Compression must
# annotate every generator note.
set(body "geometry 8 8\nname loop8\n")
foreach(i RANGE 299)
  string(APPEND body "0 1 2 3 8 9 10 11\n")
endforeach()
file(WRITE ${WORK_DIR}/periodic.trace "${body}")
run_checked(${ADDM_EXPLORE} --trace ${WORK_DIR}/periodic.trace
  --compress-periodic --out ${WORK_DIR}/periodic.csv --quiet)

file(STRINGS ${WORK_DIR}/periodic.csv report_lines)
list(LENGTH report_lines n_lines)
if(n_lines LESS 2)
  message(FATAL_ERROR "periodic report unexpectedly short (${n_lines} lines)")
endif()
set(row 0)
foreach(line IN LISTS report_lines)
  if(row GREATER 0 AND NOT line MATCHES "\\[periodic 300x8\\]")
    message(FATAL_ERROR "report row lacks the periodic annotation: ${line}")
  endif()
  math(EXPR row "${row} + 1")
endforeach()

# 4. An oversized suite is an argument error: exit 2, no report file.
execute_process(COMMAND ${ADDM_EXPLORE} --base 65536x65536 --suite 1 --threads 1
  --out ${WORK_DIR}/oversized.csv
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 2 OR NOT err MATCHES "suite geometry 65536x65536 is too large")
  message(FATAL_ERROR "oversized suite not refused (rc=${rc}):\n${err}")
endif()
if(EXISTS ${WORK_DIR}/oversized.csv)
  message(FATAL_ERROR "oversized suite wrote a report")
endif()

message(STATUS "stream smoke OK: golden import, --compress-periodic "
  "byte-identical, periodic annotation present, oversized suite refused")
