# Runs ${CMD} with the ;-separated ${ARGS} and passes only when it exits 2
# with a "${PREFIX}:" message on stderr — the examples' contract for
# rejected input. A crash, a clean run, or any other exit code fails the
# test.
#
#   cmake -DCMD=<binary> "-DARGS=--load;0.5x" -DPREFIX=negsim \
#         -P expect_usage_error.cmake
execute_process(
  COMMAND ${CMD} ${ARGS}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT result STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${result}'\n${out}${err}")
endif()
if(NOT err MATCHES "(^|\n)${PREFIX}: ")
  message(FATAL_ERROR "expected a '${PREFIX}:' message on stderr, got:\n${err}")
endif()
message(STATUS "rejected as expected: ${err}")
