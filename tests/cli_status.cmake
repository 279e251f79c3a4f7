# ctest helper: run one msgsim CLI and require an exact exit status,
# so a test that expects a failure tells a caught bug (exit 1) from a
# usage error (exit 2) or a crash.
#
# Variables (passed with -D):
#   BIN      path to the executable
#   ARGS     its arguments, one string split like a shell command line
#   STATUS   the exit status it must return
#   EXPECT   optional regex that its stdout + stderr must match

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND "${BIN}" ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${STATUS}")
    message(FATAL_ERROR
        "${BIN} ${ARGS}: exit status ${rc}, want ${STATUS}\n${out}${err}")
endif()
if(DEFINED EXPECT AND NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "${BIN} ${ARGS}: output does not match '${EXPECT}':\n${out}${err}")
endif()
