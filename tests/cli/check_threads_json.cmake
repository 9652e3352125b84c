# Runs `flexopt_cli solve --json` on one fixture at two --threads values and
# checks that the two reports are byte-identical:
#
#   cmake -DCLI=<flexopt_cli> -DSYSTEM=<system file> -DARGS="<solve flags>"
#         -DTHREADS="<n> <m>" -DOUT=<file prefix> -P check_threads_json.cmake
#
# Each run must exit 0 or 1 (schedulable or not) and write its report.
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(thread_counts UNIX_COMMAND "${THREADS}")
set(reports "")
foreach(n IN LISTS thread_counts)
  set(json "${OUT}-threads${n}.json")
  file(REMOVE "${json}")
  execute_process(
    COMMAND "${CLI}" solve "${SYSTEM}" ${args} --threads ${n} --json "${json}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0" AND NOT rc STREQUAL "1")
    message(FATAL_ERROR "flexopt_cli --threads ${n} exited with '${rc}'\n${out}\n${err}")
  endif()
  if(NOT EXISTS "${json}")
    message(FATAL_ERROR "flexopt_cli --threads ${n} wrote no report to ${json}")
  endif()
  file(READ "${json}" report)
  list(APPEND reports "${n}")
  set(report_${n} "${report}")
endforeach()
list(GET reports 0 first)
foreach(n IN LISTS reports)
  if(NOT report_${n} STREQUAL report_${first})
    message(FATAL_ERROR "--threads ${n} report differs from --threads ${first}:\n"
                        "${report_${first}}\n---\n${report_${n}}")
  endif()
endforeach()
