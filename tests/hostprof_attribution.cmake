# ctest helper: a fabric's host time lands in its own subsystem.
# rdma runs CR's engine and nicam the CM-5's, so msgsim-selfprof's
# pump of FABRIC (a 16-node Stack's network, node 1's sink replaced)
# must enter FABRIC scopes and not one ENGINE scope.
#
# Variables (passed with -D):
#   SELFPROF  path to msgsim-selfprof
#   FABRIC    the pumped fabric (rdma, nicam)
#   ENGINE    the engine it runs (cr, cm5)
#   WORK_DIR  where the --json-out report is written

set(report "${WORK_DIR}/hostprof_${FABRIC}.json")
execute_process(
    COMMAND "${SELFPROF}" --workload=${FABRIC} --packets=2000
        --json-out=${report}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "0")
    message(FATAL_ERROR "msgsim-selfprof --workload=${FABRIC}: exit "
        "status ${rc}\n${out}${err}")
endif()
file(READ "${report}" doc)

string(JSON count LENGTH "${doc}" profile subsystems)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${doc}" profile subsystems ${i} subsystem)
    string(JSON enters GET "${doc}" profile subsystems ${i} enters)
    set(enters_${name} ${enters})
endforeach()

if(NOT DEFINED enters_${FABRIC} OR NOT DEFINED enters_${ENGINE})
    message(FATAL_ERROR "${report} lacks the ${FABRIC} or ${ENGINE} "
        "subsystem")
endif()
if(NOT enters_${FABRIC} GREATER 0)
    message(FATAL_ERROR "the ${FABRIC} pump entered no ${FABRIC} scope")
endif()
if(NOT enters_${ENGINE} EQUAL 0)
    message(FATAL_ERROR "the ${FABRIC} pump charged "
        "${enters_${ENGINE}} scopes to ${ENGINE}")
endif()
message(STATUS "${FABRIC} pump: ${enters_${FABRIC}} ${FABRIC} scopes, "
    "0 ${ENGINE}")
