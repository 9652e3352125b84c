# Runs `flexopt_cli solve` on one fixture and checks its report:
#
#   cmake -DCLI=<flexopt_cli> -DSYSTEM=<system file> -DARGS="<solve flags>"
#         -DEXPECT=<regex> -P check_solve.cmake
#
# Passes only when the CLI exits 0 (schedulable) or 1 (not schedulable) —
# a crash or a usage error fails even after printing — and its standard
# output matches EXPECT, which spans the report's WCRT rows.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${CLI}" solve "${SYSTEM}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "0" AND NOT rc STREQUAL "1")
  message(FATAL_ERROR "flexopt_cli exited with '${rc}'\n${out}\n${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "report does not match '${EXPECT}'\n${out}\n${err}")
endif()
