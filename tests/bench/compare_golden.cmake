# Runs PROGRAM with the optional argument list ARGS and compares its
# standard output byte for byte with the golden file GOLDEN. On a mismatch
# the output is kept in ACTUAL, so `diff GOLDEN ACTUAL` shows what moved.
#
#   cmake -DPROGRAM=... [-DARGS=...] -DGOLDEN=... -DACTUAL=... -P compare_golden.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS} OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "the output of ${PROGRAM} differs from ${GOLDEN}; "
                      "it is kept in ${ACTUAL}")
endif()
