# ctest helper: msgsim-prof writes every artifact it is asked for.
# A profiled transfer with --flame-out, --waterfall-out and
# --trace-out must exit 0 and write the folded stacks (a base_cost
# frame), the waterfall text (its send_sw segment) and a Chrome trace
# that parses.  What the artifacts hold on each substrate is
# test_prof's FoldedStacks.*, Waterfall.* and TraceSchema.*.
#
# Variables (passed with -D):
#   PROF      path to msgsim-prof
#   WORK_DIR  a directory of this test's own (emptied first)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(folded "${WORK_DIR}/xfer.folded")
set(waterfall "${WORK_DIR}/xfer.waterfall")
set(trace "${WORK_DIR}/xfer.trace.json")
execute_process(
    COMMAND "${PROF}" --protocol=xfer --flame-out=${folded}
        --waterfall-out=${waterfall} --trace-out=${trace}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msgsim-prof: exit status ${rc}\n${out}${err}")
endif()

# expect_written(<file> <marker>): <file> was written and holds <marker>.
function(expect_written file marker)
    if(NOT EXISTS "${file}")
        message(FATAL_ERROR "msgsim-prof wrote no ${file}")
    endif()
    file(READ "${file}" doc)
    string(FIND "${doc}" "${marker}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${file} lacks '${marker}'")
    endif()
endfunction()

expect_written("${folded}" ";base_cost;")
expect_written("${waterfall}" "send_sw")
expect_written("${trace}" "\"traceEvents\"")
file(READ "${trace}" doc)
string(JSON type ERROR_VARIABLE error TYPE "${doc}")
if(error)
    message(FATAL_ERROR "${trace}: ${error}")
endif()
message(STATUS "msgsim-prof wrote its folded, waterfall and trace files")
