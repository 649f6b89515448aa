# Runs EXE with the single argument ARG and fails unless it exits with
# status EXPECT. Usage:
#   cmake -DEXE=<program> -DARG=<argument> -DEXPECT=<status> -P expect_exit.cmake
execute_process(COMMAND ${EXE} ${ARG}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECT)
  message(FATAL_ERROR "${EXE} ${ARG}: exit status '${status}', expected ${EXPECT}\n${err}")
endif()
