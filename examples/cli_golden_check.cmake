# Byte-compares the stdout of `CLI_BIN ARGS` (ARGS space-separated) against
# the committed GOLDEN file; the output is left at ACTUAL for diffing.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI_BIN} ${args} RESULT_VARIABLE code
                OUTPUT_FILE ${ACTUAL})
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT code EQUAL 0 OR differs)
  message(FATAL_ERROR "epserve_cli ${ARGS}: exit ${code}, compare_files "
                      "${differs} (${ACTUAL} vs ${GOLDEN})")
endif()
