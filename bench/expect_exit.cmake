# Runs EXE with ARGS ('|'-separated) and fails unless it exits with code
# EXPECT and writes exactly one line to stderr. Usage:
#   cmake -DEXE=<binary> -DARGS=<a|b|...> -DEXPECT=<code> -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit '${rc}', expected ${EXPECT}; stderr:\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1)
  message(FATAL_ERROR "expected one line on stderr, got ${lines}:\n${err}")
endif()
