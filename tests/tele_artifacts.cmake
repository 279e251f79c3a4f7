# ctest helper: msgsim-tele end to end on the cm5 incast.  Its
# --json-out summary must be byte-identical across two runs; the
# heatmap and report it is asked for must be written, each with a
# .json sibling, and those and the --timeline-out file must parse.
# The heatmap must have bins and every row one value per bin; the
# report must find saturated windows and name the NI receive ring of
# node 0 as the top resource.
#
# Variables (passed with -D):
#   TELE      path to msgsim-tele
#   WORK_DIR  a directory of this test's own (emptied first)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run_tele(<flag>...): the cm5 incast with <flag>... must exit 0.
function(run_tele)
    execute_process(
        COMMAND "${TELE}" --scenario=incast --substrate=cm5 --quiet ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "msgsim-tele ${ARGN}: exit status ${rc}\n"
            "${out}${err}")
    endif()
endfunction()

run_tele(--json-out=${WORK_DIR}/a.json --heatmap-out=${WORK_DIR}/heat.txt
    --report-out=${WORK_DIR}/report.txt
    --timeline-out=${WORK_DIR}/timeline.json)
run_tele(--json-out=${WORK_DIR}/b.json)

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/a.json"
        "${WORK_DIR}/b.json"
    RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "two runs wrote different --json-out summaries")
endif()

foreach(name heat.txt report.txt heat.txt.json report.txt.json
        timeline.json)
    if(NOT EXISTS "${WORK_DIR}/${name}")
        message(FATAL_ERROR "msgsim-tele wrote no ${name}")
    endif()
    file(READ "${WORK_DIR}/${name}" doc)
    if(doc STREQUAL "")
        message(FATAL_ERROR "msgsim-tele wrote an empty ${name}")
    endif()
    if(name MATCHES "\\.json$")
        string(JSON type ERROR_VARIABLE error TYPE "${doc}")
        if(error)
            message(FATAL_ERROR "${name}: ${error}")
        endif()
    endif()
endforeach()

file(READ "${WORK_DIR}/heat.txt.json" heat)
string(JSON bins GET "${heat}" bins)
string(JSON rows LENGTH "${heat}" rows)
if(NOT bins GREATER 0 OR NOT rows GREATER 0)
    message(FATAL_ERROR "heatmap: ${bins} bins, ${rows} rows")
endif()
math(EXPR last "${rows} - 1")
foreach(i RANGE ${last})
    string(JSON values LENGTH "${heat}" rows ${i} values)
    if(NOT values EQUAL bins)
        string(JSON track GET "${heat}" rows ${i} track)
        message(FATAL_ERROR "heatmap row ${track}: ${values} values, "
            "${bins} bins")
    endif()
endforeach()

file(READ "${WORK_DIR}/report.txt.json" report)
string(JSON top GET "${report}" top_resource)
string(JSON saturated LENGTH "${report}" saturated)
if(NOT top STREQUAL "ni.recv_ring[0]" OR NOT saturated GREATER 0)
    message(FATAL_ERROR "report: top resource '${top}', ${saturated} "
        "saturated windows")
endif()
message(STATUS "tele ok: ${rows} heatmap rows x ${bins} bins, top "
    "resource ${top}")
