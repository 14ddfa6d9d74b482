# CLI exit-status gate, run under ctest (label: tools).
#
# Runs `memdis <CLI_ARGS>` and fails unless it exits with EXPECTED_STATUS
# and its stderr contains EXPECTED_STDERR. Required variables: MEMDIS_CLI,
# CLI_ARGS (one space-separated string), EXPECTED_STATUS, EXPECTED_STDERR.
foreach(var MEMDIS_CLI CLI_ARGS EXPECTED_STATUS EXPECTED_STDERR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_status.cmake requires -D${var}=...")
  endif()
endforeach()

separate_arguments(cli_args UNIX_COMMAND "${CLI_ARGS}")
execute_process(
  COMMAND ${MEMDIS_CLI} ${cli_args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECTED_STATUS)
  message(FATAL_ERROR "memdis ${CLI_ARGS} exited ${rc}, expected ${EXPECTED_STATUS}:\n${err}")
endif()
string(FIND "${err}" "${EXPECTED_STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "memdis ${CLI_ARGS} stderr lacks '${EXPECTED_STDERR}':\n${err}")
endif()
