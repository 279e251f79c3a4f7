# ctest helper: the lab sweep is byte-deterministic at any
# parallelism.  Runs `msgsim-lab --all` at -j 1 and at -j 8 and
# requires the same --json-out artifacts, byte for byte (the goldens
# themselves are the lab_golden test).
#
# Variables (passed with -D):
#   LAB       path to msgsim-lab
#   WORK_DIR  directory that receives the two artifact sets

foreach(jobs 1 8)
    file(REMOVE_RECURSE "${WORK_DIR}/j${jobs}")
    execute_process(
        COMMAND "${LAB}" --all -j ${jobs} --quiet
                "--json-out=${WORK_DIR}/j${jobs}"
        RESULT_VARIABLE rc)
    if(NOT "${rc}" STREQUAL "0")
        message(FATAL_ERROR "msgsim-lab --all -j ${jobs}: exit status ${rc}")
    endif()
    file(GLOB artifacts_${jobs} RELATIVE "${WORK_DIR}/j${jobs}"
        "${WORK_DIR}/j${jobs}/*")
endforeach()

if(NOT artifacts_1)
    message(FATAL_ERROR "msgsim-lab --all -j 1 wrote no artifacts")
endif()
if(NOT "${artifacts_1}" STREQUAL "${artifacts_8}")
    message(FATAL_ERROR "artifact sets differ:\n"
        "-j 1: ${artifacts_1}\n-j 8: ${artifacts_8}")
endif()
foreach(artifact ${artifacts_1})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK_DIR}/j1/${artifact}" "${WORK_DIR}/j8/${artifact}"
        RESULT_VARIABLE rc)
    if(NOT "${rc}" STREQUAL "0")
        message(FATAL_ERROR "${artifact} differs between -j 1 and -j 8")
    endif()
endforeach()
list(LENGTH artifacts_1 count)
message(STATUS "lab ok: ${count} artifacts byte-identical at -j 1 and -j 8")
