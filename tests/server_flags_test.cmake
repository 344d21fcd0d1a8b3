# Copyright (c) 2026 The siri Authors. MIT license.
#
# siri-server must reject every malformed flag value with exit code 2 and
# its usage text, before it opens a store or a socket. Exit code 2 exactly:
# an abort (e.g. an uncaught std::length_error) is non-zero too.
#
#   cmake -DSERVER=path/to/siri-server -P tests/server_flags_test.cmake

if(NOT SERVER)
  message(FATAL_ERROR "pass -DSERVER=<path to siri-server>")
endif()

set(bad_flags
  --mbt-buckets=-1
  --mbt-buckets=0
  --mbt-buckets=1048577
  --mbt-buckets=18446744073709551615
  --window-micros=-1
  --window-micros=+5
  "--window-micros= 5"
  --window-micros=
  --port=-1
  --port=65536
  --workers=-1
  --workers=0
  --max-connections=-1
  --idle-timeout-ms=-1
  --page-cache-bytes=-1
  --page-cache-bytes=1e9
  --page-cache-bytes=99999999999999999999999
  --no-such-flag=1
)

foreach(flag IN LISTS bad_flags)
  execute_process(
    COMMAND "${SERVER}" "--port=0" "${flag}"
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 20)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR "siri-server ${flag}: exit '${code}', want 2\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "siri-server ${flag}: no usage text\n${err}")
  endif()
endforeach()
list(LENGTH bad_flags n)
message(STATUS "siri-server rejected ${n} bad flags with exit code 2")
