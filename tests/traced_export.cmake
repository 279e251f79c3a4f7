# ctest helper: a traced example exports a valid timeline and
# metrics dump.  bulk_transfer 64 with --trace-out and --metrics-out
# must pass its integrity check; both files must parse; the trace
# must hold the six finite_xfer protocol steps, the bridged hardware
# inject and deliver instants and complete ("ph":"X") spans, each
# with its duration; the metrics must hold the span phase counters
# and the event loop's dispatch counter.
#
# Variables (passed with -D):
#   BIN       path to bulk_transfer
#   WORK_DIR  a directory of this test's own (emptied first)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/trace.json")
set(metrics "${WORK_DIR}/metrics.json")
execute_process(
    COMMAND "${BIN}" 64 --trace-out=${trace} --metrics-out=${metrics}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "integrity: ok")
    message(FATAL_ERROR "bulk_transfer 64: exit status ${rc}\n${out}${err}")
endif()

foreach(name trace metrics)
    file(READ "${${name}}" ${name}_doc)
    string(JSON type ERROR_VARIABLE error TYPE "${${name}_doc}")
    if(error)
        message(FATAL_ERROR "${${name}}: ${error}")
    endif()
endforeach()

# Each string(JSON GET) re-parses the document, so the per-event
# checks search the exporter's text: it writes "name", then "cat",
# then "ph".
foreach(step alloc_req seg_alloc alloc_reply data seg_free ack)
    string(FIND "${trace_doc}" "\"name\":\"${step}\",\"cat\":\"finite_xfer\""
        at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${trace} lacks the finite_xfer step ${step}")
    endif()
endforeach()
foreach(event inject deliver)
    string(FIND "${trace_doc}" "\"name\":\"${event}\",\"cat\":\"hw\",\"ph\":\"i\""
        at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${trace} lacks the hw instant ${event}")
    endif()
endforeach()
string(REGEX MATCHALL "\"ph\":\"X\"" spans "${trace_doc}")
string(REGEX MATCHALL "\"ph\":\"X\",\"ts\":[0-9.e+-]+,\"dur\":[0-9.e+-]+"
    timed "${trace_doc}")
list(LENGTH spans spans)
list(LENGTH timed timed)
if(spans EQUAL 0 OR NOT spans EQUAL timed)
    message(FATAL_ERROR "${trace}: ${timed} of ${spans} complete spans "
        "carry ts and dur")
endif()

foreach(name "trace\\.span\\.finite_xfer[^\"]*" "[^\"]*events_dispatched")
    if(NOT metrics_doc MATCHES "\"name\":\"${name}\"")
        message(FATAL_ERROR "${metrics} names no metric ${name}")
    endif()
endforeach()
message(STATUS "trace ok: ${spans} spans; metrics ok")
