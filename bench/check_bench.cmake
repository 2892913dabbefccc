# One `bench` ctest case: runs BIN with ARGS (space-separated) and
# checks it.
#   default:          exit 0 and, when JSON is set, a schema-2 record there
#                     with a non-empty "results" array;
#   -DEXPECT_USAGE=1: exit 2 with the usage line on stderr.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(EXPECT_USAGE)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: ")
    message(FATAL_ERROR "${BIN} ${ARGS}: want the usage and exit 2, got "
                        "exit ${rc}:\n${err}")
  endif()
  return()
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited ${rc}:\n${err}")
endif()
if(JSON)
  file(READ ${JSON} record)
  string(JSON schema GET "${record}" schema)
  string(JSON rows LENGTH "${record}" results)
  if(NOT schema EQUAL 2 OR rows EQUAL 0)
    message(FATAL_ERROR "${JSON}: schema ${schema}, ${rows} result rows")
  endif()
endif()
