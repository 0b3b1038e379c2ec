# Report smoke test: record a modified-engine run (with the accelerator
# sim), run hjsvd_report over the artifacts, and exercise the
# --compare exit-code contract — 0 on identical runs, 3 on an injected
# regression, 2 on malformed or wrong-schema inputs.
execute_process(
  COMMAND ${CLI} --generate 48x24 --seed 11 --output ${WORKDIR}/report.mtx
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${out}${err}")
endif()

# Record + analyze: table on stdout, hjsvd.report.v2 document on disk.
execute_process(
  COMMAND ${CLI} --input ${WORKDIR}/report.mtx --method hestenes
          --fpga-sim true
          --trace-out ${WORKDIR}/report_trace.json
          --metrics-out ${WORKDIR}/report_metrics.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "recorded run failed: ${out}${err}")
endif()
execute_process(
  COMMAND ${REPORT} --trace ${WORKDIR}/report_trace.json
          --metrics ${WORKDIR}/report_metrics.json
          --out ${WORKDIR}/report.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hjsvd_report failed (${rc}): ${out}${err}")
endif()
file(READ ${WORKDIR}/report.json report_body)
if(NOT report_body MATCHES "\"schema\": \"hjsvd.report.v2\"")
  message(FATAL_ERROR "report.json lacks the hjsvd.report.v2 schema tag")
endif()
if(report_body MATCHES "\"pipeline\":")
  message(FATAL_ERROR "report.json still carries the v1 pipeline section")
endif()

# Built with the instrumentation compiled out (-DHJSVD_OBS=OFF), the
# artifacts are valid but empty: no phases, sim or convergence to report.
if(OBS)
  if(NOT out MATCHES "Per-phase wall-clock breakdown")
    message(FATAL_ERROR "report table lacks the phase breakdown: ${out}")
  endif()
  foreach(needle "\"sim\":" "\"convergence\":")
    if(NOT report_body MATCHES "${needle}")
      message(FATAL_ERROR "report.json lacks ${needle}")
    endif()
  endforeach()

  # The trace must carry the Perfetto counter track of the simulator FIFO
  # occupancy.
  file(READ ${WORKDIR}/report_trace.json trace_body)
  if(NOT trace_body MATCHES "\"ph\":\"C\",\"name\":\"sim.param_fifo.occupancy\"")
    message(FATAL_ERROR "trace lacks the sim FIFO counter track")
  endif()
endif()

# Compare mode, identical runs: exit 0, no regression.
execute_process(
  COMMAND ${REPORT} --compare ${WORKDIR}/report.json ${WORKDIR}/report.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "self-compare exited ${rc}, want 0: ${out}${err}")
endif()
if(NOT out MATCHES "RESULT: no regression")
  message(FATAL_ERROR "self-compare verdict missing: ${out}")
endif()

# An empty run has no wall time to inflate, so the regression cases need
# the instrumentation.
if(OBS)
  # Inject a synthetic 2x wall-clock regression into a copy of the report and
  # require exit code 3.
  string(REGEX MATCH "\"wall_s\": ([0-9.e+-]+)" wall_match "${report_body}")
  if(NOT wall_match)
    message(FATAL_ERROR "report.json has no run wall_s")
  endif()
  set(old_wall ${CMAKE_MATCH_1})
  math(EXPR dummy "0")
  string(REPLACE "\"wall_s\": ${old_wall}" "\"wall_s\": ${old_wall}e1"
         slow_body "${report_body}")
  file(WRITE ${WORKDIR}/report_slow.json "${slow_body}")
  execute_process(
    COMMAND ${REPORT} --compare ${WORKDIR}/report.json
            ${WORKDIR}/report_slow.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 3)
    message(FATAL_ERROR "injected regression exited ${rc}, want 3: ${out}${err}")
  endif()
  if(NOT out MATCHES "FAIL wall_s" OR NOT out MATCHES "RESULT: regression")
    message(FATAL_ERROR "regression verdict missing: ${out}")
  endif()

  # A loosened threshold must wave the same regression through.
  execute_process(
    COMMAND ${REPORT} --compare ${WORKDIR}/report.json
            ${WORKDIR}/report_slow.json --max-wall-regress-frac 100
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "loosened threshold exited ${rc}, want 0: ${out}${err}")
  endif()
endif()

# Malformed and wrong-schema inputs: exit 2 with the usage text.
file(WRITE ${WORKDIR}/report_bad.json "{ this is not json")
foreach(bad_case
    "--trace;${WORKDIR}/report_bad.json;--metrics;${WORKDIR}/report_metrics.json"
    "--trace;${WORKDIR}/report_metrics.json;--metrics;${WORKDIR}/report_metrics.json"
    "--trace;${WORKDIR}/no_such_file.json;--metrics;${WORKDIR}/report_metrics.json"
    "--compare;${WORKDIR}/report_bad.json;${WORKDIR}/report.json"
    "--compare;${WORKDIR}/report_trace.json;${WORKDIR}/report.json"
    "--trace;${WORKDIR}/report_trace.json")
  execute_process(
    COMMAND ${REPORT} ${bad_case}
    RESULT_VARIABLE rc_bad OUTPUT_VARIABLE out_bad ERROR_VARIABLE err_bad)
  if(NOT rc_bad EQUAL 2)
    message(FATAL_ERROR "'${bad_case}' exited ${rc_bad}, want 2: "
                        "${out_bad}${err_bad}")
  endif()
  if(NOT err_bad MATCHES "--compare")
    message(FATAL_ERROR "'${bad_case}' did not print usage: ${err_bad}")
  endif()
endforeach()
