# Sanitizer wiring for the Zatel build.
#
# Usage:
#   -DZATEL_SANITIZE="address;undefined"   ASan + UBSan (the default CI combo)
#   -DZATEL_SANITIZE=thread                TSan (mutually exclusive with ASan)
#   -DZATEL_SANITIZE=memory                MSan (clang only)
#
# UBSan runs with -fno-sanitize-recover=all so any UB report is fatal and
# fails the test suite instead of scrolling past. Frame pointers are kept
# so sanitizer stacks stay readable in RelWithDebInfo builds.
#
# See docs/CORRECTNESS.md and CMakePresets.json (asan-ubsan / tsan presets).

set(ZATEL_SANITIZE "" CACHE STRING
    "Semicolon list of sanitizers: address;undefined | thread | memory")

if(NOT ZATEL_SANITIZE)
    return()
endif()

set(_zatel_san_flags "")
set(_zatel_has_thread FALSE)
set(_zatel_has_addr_or_mem FALSE)

foreach(_san IN LISTS ZATEL_SANITIZE)
    if(_san STREQUAL "address")
        list(APPEND _zatel_san_flags "-fsanitize=address")
        set(_zatel_has_addr_or_mem TRUE)
    elseif(_san STREQUAL "undefined")
        # GCC's -fsanitize=undefined leaves float-cast-overflow out; it
        # is the check that reports a double too large for its cast.
        list(APPEND _zatel_san_flags
             "-fsanitize=undefined" "-fsanitize=float-cast-overflow"
             "-fno-sanitize-recover=all")
    elseif(_san STREQUAL "thread")
        list(APPEND _zatel_san_flags "-fsanitize=thread")
        set(_zatel_has_thread TRUE)
    elseif(_san STREQUAL "memory")
        if(NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
            message(FATAL_ERROR
                "ZATEL_SANITIZE=memory requires clang; "
                "current compiler is ${CMAKE_CXX_COMPILER_ID}")
        endif()
        list(APPEND _zatel_san_flags
             "-fsanitize=memory" "-fsanitize-memory-track-origins")
        set(_zatel_has_addr_or_mem TRUE)
    else()
        message(FATAL_ERROR "Unknown sanitizer '${_san}' in ZATEL_SANITIZE "
                            "(expected address, undefined, thread or memory)")
    endif()
endforeach()

if(_zatel_has_thread AND _zatel_has_addr_or_mem)
    message(FATAL_ERROR
        "ZATEL_SANITIZE: 'thread' cannot be combined with "
        "'address'/'memory'; configure separate build trees (see the "
        "asan-ubsan and tsan presets)")
endif()

list(APPEND _zatel_san_flags "-fno-omit-frame-pointer" "-g")

message(STATUS "Zatel sanitizers enabled: ${ZATEL_SANITIZE}")
add_compile_options(${_zatel_san_flags})
add_link_options(${_zatel_san_flags})

unset(_zatel_san_flags)
unset(_zatel_has_thread)
unset(_zatel_has_addr_or_mem)
