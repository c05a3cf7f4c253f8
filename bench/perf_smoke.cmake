# Runs ${BENCH} (bench_perf_engine) at a 0.1 ms horizon, writing its JSON to
# ${JSON}, then gates that file with ${REPO}/scripts/check_perf.py against
# the committed ${REPO}/BENCH_perf.json. Either step failing fails the test.
#
#   cmake -DBENCH=<bench_perf_engine> -DPYTHON=<python3> -DJSON=<out.json> \
#         -DREPO=<source dir> -P perf_smoke.cmake
file(REMOVE ${JSON})  # a stale file must not pass for a fresh one
set(ENV{NEG_DURATION_MS} 0.1)
set(ENV{NEG_PERF_JSON} ${JSON})
execute_process(COMMAND ${BENCH} RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "bench_perf_engine exited with '${result}'")
endif()
execute_process(
  COMMAND ${PYTHON} ${REPO}/scripts/check_perf.py ${JSON}
          ${REPO}/BENCH_perf.json
  RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "check_perf.py exited with '${result}'")
endif()
