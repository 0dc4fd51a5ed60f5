# ctest helper: runs PROG with the space-separated ARGS and passes only if
# it exits with status 2 after printing its usage line, i.e. the bad
# command line was rejected before any campaign ran.
#
#   cmake -DPROG=<binary> "-DARGS=<args>" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${rc}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "no usage line on stderr:\n${err}")
endif()
