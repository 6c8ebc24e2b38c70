# Runs a bench driver with --quick and compares its stdout byte for byte
# with a committed golden file; progress lines and timings go to stderr
# and are ignored. Usage:
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -P compare_stdout.cmake
execute_process(
  COMMAND "${BENCH}" --quick
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE progress
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BENCH} --quick exited with ${exit_code}:\n${progress}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "${BENCH} --quick stdout differs from ${GOLDEN}\n"
    "--- expected ---\n${expected}\n--- actual ---\n${actual}")
endif()
