# Runs `BIN FLAG VALUE` and fails unless it exits with the usage code 2 and
# its stderr contains EXPECTED. Invoked by the flag-rejection tests in
# tools/CMakeLists.txt:
#   cmake -DBIN=... -DFLAG=... -DVALUE=... -DEXPECTED=... -P expect_usage_error.cmake
execute_process(
  COMMAND "${BIN}" "${FLAG}" "${VALUE}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr
  TIMEOUT 30)
if(NOT exit_code STREQUAL "2")
  message(FATAL_ERROR
    "${BIN} ${FLAG} '${VALUE}' exited with '${exit_code}', expected 2\n"
    "stderr: ${stderr}")
endif()
string(FIND "${stderr}" "${EXPECTED}" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "${BIN} ${FLAG} '${VALUE}': stderr lacks '${EXPECTED}'\n"
    "stderr: ${stderr}")
endif()
