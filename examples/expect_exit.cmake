# Runs EXE with the space-separated arguments ARG and fails unless it exits
# with status EXPECT. Usage:
#   cmake -DEXE=<program> "-DARG=<arguments>" -DEXPECT=<status> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARG}")
execute_process(COMMAND ${EXE} ${args}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECT)
  message(FATAL_ERROR "${EXE} ${ARG}: exit status '${status}', expected ${EXPECT}\n${err}")
endif()
