# One `bench` ctest case: runs BIN with ARGS (space-separated), with the
# NAME=VALUE pairs of ENV (a CMake list) set, and checks it.
#   EXPECT_EXIT=N:  the exit code (default 0);
#   EXPECT_ERR=RE:  a regex stderr must match;
#   JSON=PATH:      on exit 0, a schema-2 record there with a non-empty
#                   "results" array;
#   SAME_TWICE=1:   a second run prints the same stdout, byte for byte;
#   MIN_VALUE=X:    every value cell of the printed table (the rows after
#                   the "Size" header) is at least X.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED EXPECT_EXIT)
  set(EXPECT_EXIT 0)
endif()
foreach(pair IN LISTS ENV)
  string(REGEX MATCH "^([^=]+)=(.*)$" unused "${pair}")
  set(ENV{${CMAKE_MATCH_1}} "${CMAKE_MATCH_2}")
endforeach()
# A crash reports how the child died ("Subprocess aborted"), not a code.
execute_process(COMMAND ${BIN} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${ENV} ${BIN} ${ARGS}: want exit ${EXPECT_EXIT}, got "
                      "${rc}:\n${err}")
endif()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match "
                      "'${EXPECT_ERR}':\n${err}")
endif()
if(JSON AND rc EQUAL 0)
  file(READ ${JSON} record)
  string(JSON schema GET "${record}" schema)
  string(JSON rows LENGTH "${record}" results)
  if(NOT schema EQUAL 2 OR rows EQUAL 0)
    message(FATAL_ERROR "${JSON}: schema ${schema}, ${rows} result rows")
  endif()
endif()
if(SAME_TWICE)
  execute_process(COMMAND ${BIN} ${args} OUTPUT_VARIABLE again ERROR_QUIET)
  if(NOT again STREQUAL out)
    message(FATAL_ERROR "${ENV} ${BIN} ${ARGS}: two runs differ:\n${out}\n"
                        "--- then ---\n${again}")
  endif()
endif()
if(DEFINED MIN_VALUE)
  string(REGEX REPLACE ".*\nSize [^\n]*\n" "" table "${out}")
  string(REPLACE "\n" ";" lines "${table}")
  set(cells 0)
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^[0-9]+[KM]? ")
      continue()
    endif()
    string(REGEX MATCHALL "[-0-9.]+" values "${line}")
    list(REMOVE_AT values 0)  # the size
    foreach(v IN LISTS values)
      math(EXPR cells "${cells} + 1")
      if(v LESS MIN_VALUE)
        message(FATAL_ERROR "${ENV} ${BIN} ${ARGS}: ${v} < ${MIN_VALUE} in "
                            "'${line}'")
      endif()
    endforeach()
  endforeach()
  if(cells EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS}: no table values in:\n${out}")
  endif()
endif()
