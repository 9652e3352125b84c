# Runs `flexopt_cli simulate --trace` on one fixture and checks that the
# trace's hyper-period count is the one simulated, not the one requested:
#
#   cmake -DCLI=<flexopt_cli> -DSYSTEM=<system file> -DARGS="<simulate flags>"
#         -DHYPERPERIOD=<hyper-period in ns> -DOUT=<trace file> -P check_trace_hyperperiods.cmake
#
# Passes when the CLI exits 0 or 1, writes the trace, and the trace's
# `hyperperiods` times HYPERPERIOD equals its `horizon`.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${OUT}")
execute_process(
  COMMAND "${CLI}" simulate "${SYSTEM}" ${args} --trace "${OUT}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "0" AND NOT rc STREQUAL "1")
  message(FATAL_ERROR "flexopt_cli exited with '${rc}'\n${out}\n${err}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "flexopt_cli wrote no trace to ${OUT}\n${out}\n${err}")
endif()
file(READ "${OUT}" trace)
string(JSON hyperperiods GET "${trace}" hyperperiods)
string(JSON horizon GET "${trace}" horizon)
math(EXPR covered "${hyperperiods} * ${HYPERPERIOD}")
if(NOT covered STREQUAL horizon)
  message(FATAL_ERROR "trace says ${hyperperiods} hyper-periods of ${HYPERPERIOD} ns, "
                      "but its horizon is ${horizon} ns")
endif()
