# ctest helper: a counterexample the model checker writes reproduces.
# msgsim-check with the seeded stream bug must catch it (exit 1) and
# write the shrunk schedule with --ce-out; --replay of that file must
# reproduce the recorded violation (exit 0).  The committed replays
# are ctest's check_replay_*.
#
# Variables (passed with -D):
#   CHECK     path to msgsim-check
#   WORK_DIR  a directory of this test's own (emptied first)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ce "${WORK_DIR}/ce.json")
execute_process(
    COMMAND "${CHECK}" --protocol=stream --packets=3 --faults=1 --depth=8
        --bug --quiet --ce-out=${ce}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT EXISTS "${ce}")
    message(FATAL_ERROR "msgsim-check --bug: exit status ${rc}, want 1 "
        "and ${ce} written\n${out}${err}")
endif()
execute_process(
    COMMAND "${CHECK}" --replay=${ce}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msgsim-check --replay=${ce}: exit status ${rc}, "
        "want 0\n${out}${err}")
endif()
message(STATUS "${out}")
