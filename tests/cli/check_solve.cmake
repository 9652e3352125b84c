# Runs `flexopt_cli solve` on one fixture and checks its report:
#
#   cmake -DCLI=<flexopt_cli> -DSYSTEM=<system file> -DARGS="<solve flags>"
#         -DEXPECT=<regex> [-DEXIT=<code>] [-DREJECT=<regex>]
#         [-DCOMMAND=<subcommand>] [-DEXPECT_ERR=<regex>] -P check_solve.cmake
#
# COMMAND runs another subcommand (e.g. simulate) in place of solve.
# Without EXIT, passes only when the CLI exits 0 (schedulable) or 1 (not
# schedulable) — a crash or a usage error fails even after printing — and
# its standard output matches EXPECT, which spans the report's WCRT rows.
# With EXIT, passes only when the CLI exits with exactly that code and its
# standard error matches EXPECT (a rejected command line, or a system with
# no analysable configuration).  With REJECT, standard output must not
# match that regex either way.  Without EXIT, EXPECT_ERR must also match
# standard error.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED COMMAND)
  set(COMMAND solve)
endif()
execute_process(
  COMMAND "${CLI}" ${COMMAND} "${SYSTEM}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(DEFINED REJECT AND out MATCHES "${REJECT}")
  message(FATAL_ERROR "report matches '${REJECT}'\n${out}\n${err}")
endif()
if(DEFINED EXIT)
  if(NOT rc STREQUAL "${EXIT}")
    message(FATAL_ERROR "flexopt_cli exited with '${rc}', expected '${EXIT}'\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "diagnostic does not match '${EXPECT}'\n${out}\n${err}")
  endif()
  return()
endif()
if(NOT rc STREQUAL "0" AND NOT rc STREQUAL "1")
  message(FATAL_ERROR "flexopt_cli exited with '${rc}'\n${out}\n${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "report does not match '${EXPECT}'\n${out}\n${err}")
endif()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "standard error does not match '${EXPECT_ERR}'\n${out}\n${err}")
endif()
