# ctest helper: the libraries hold no hidden shared state.  Lists the
# objects in the writable data sections (.data, .data.rel,
# .data.rel.local, .bss) of every msgsim static library with
# `objdump -t` and fails on any object the allowlist below does not
# name, and on an allowlist entry that names no object.
#
# Left out, as not shared state:
#   - guard variables: each guards a static local of the allowlist;
#   - DW.ref entries: the toolchain's pointer to the C++ personality
#     routine, set once at load;
#   - thread-locals (.tdata, .tbss; obs::context and
#     log_detail::throwOnError): each thread has its own.
#
# Variables (passed with -D):
#   OBJDUMP   objdump from binutils
#   LIB_DIR   the build's src/ directory, holding libmsgsim_*.a

# Each entry, and why a lab worker thread cannot race on it.
set(allowlist
    # Atomics: the replaced global operator new counts into them.
    "msgsim::hostprof::(anonymous namespace)::g_allocCount"
    "msgsim::hostprof::(anonymous namespace)::g_allocBytes"
    # Built by a thread-safe static initializer, then only read.
    "msgsim::lab::builtinRegistry()::reg")

file(GLOB_RECURSE libs "${LIB_DIR}/libmsgsim_*.a")
if(NOT libs)
    message(FATAL_ERROR "no libmsgsim_*.a under ${LIB_DIR}")
endif()

set(found "")
foreach(lib ${libs})
    execute_process(COMMAND "${OBJDUMP}" -t -C "${lib}"
        OUTPUT_VARIABLE table RESULT_VARIABLE rc)
    if(NOT "${rc}" STREQUAL "0")
        message(FATAL_ERROR "${OBJDUMP} -t ${lib}: exit status ${rc}")
    endif()
    # A symbol: value, seven flag characters, section, size, name.
    string(REGEX MATCHALL
        "[0-9a-f]+ [^\n]...... \\.(data|data\\.rel|data\\.rel\\.local|bss)\t[0-9a-f]+ [^\n]*"
        lines "${table}")
    set(symbol "^[0-9a-f]+ (.......) [^\t]+\t[0-9a-f]+ (.*)$")
    foreach(line ${lines})
        string(REGEX REPLACE "${symbol}" "\\1" flags "${line}")
        string(REGEX REPLACE "${symbol}" "\\2" name "${line}")
        if(flags MATCHES "d"
                OR name MATCHES "^guard variable for "
                OR name MATCHES "^DW\\.ref\\.")
            continue()
        endif()
        get_filename_component(libname "${lib}" NAME)
        list(APPEND found "${name}")
        list(FIND allowlist "${name}" at)
        if(at EQUAL -1)
            list(APPEND errors "${libname}: writable object '${name}' is "
                "not on the allowlist (make it const, thread_local or a "
                "member, or allowlist it and say why it is safe)\n")
        endif()
    endforeach()
endforeach()

foreach(entry ${allowlist})
    list(FIND found "${entry}" at)
    if(at EQUAL -1)
        list(APPEND errors
            "allowlist entry '${entry}' names no object: remove it\n")
    endif()
endforeach()

if(errors)
    string(REPLACE ";" "" errors "${errors}")
    message(FATAL_ERROR "${errors}")
endif()
list(LENGTH libs nlibs)
list(LENGTH found nfound)
message(STATUS "writable objects ok: ${nfound} in ${nlibs} libraries, "
    "all allowlisted")
