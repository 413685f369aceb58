# Runs the bench at BIN with a flag no bench reads and fails unless it
# exits with the usage-error code 2 and names the flag on stderr.
#   cmake -DBIN=<bench binary> -P expect_usage_error.cmake
execute_process(COMMAND "${BIN}" --no-such-flag 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} --no-such-flag 1 exited ${rc}, expected 2")
endif()
if(NOT err MATCHES "--no-such-flag")
  message(FATAL_ERROR "${BIN} did not name the unknown flag: ${err}")
endif()
