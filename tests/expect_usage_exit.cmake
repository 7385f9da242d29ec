# Runs a binary with one command-line mistake and fails unless it exits 2
# with a usage line on stderr (not a crash through std::terminate).
#
#   cmake -DBINARY_1=<path> -DFLAG_1=<flag> [-DBINARY_2=... -DFLAG_2=...]
#         -P expect_usage_exit.cmake

foreach(i RANGE 1 9)
  if(NOT DEFINED BINARY_${i})
    break()
  endif()
  set(binary "${BINARY_${i}}")
  set(flag "${FLAG_${i}}")
  execute_process(COMMAND "${binary}" "${flag}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR "${binary} ${flag}: exit '${code}', expected 2\n${err}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "${binary} ${flag}: no usage line on stderr\n${err}")
  endif()
  message(STATUS "${binary} ${flag}: exit 2\n${err}")
endforeach()
