# Live-telemetry smoke test: run a batch workload under --obs-live with a
# bounded flight-recorder ring, deliver SIGUSR1 mid-run, and validate every
# artifact the live directory accumulates — the snapshot JSONL stream, the
# Prometheus exposition, the signal-triggered dump pair, and the final
# hjsvd.trace.v3 / metrics documents — first structurally here, then through
# scripts/validate_obs.py and hjsvd_report when available.
set(LIVE ${WORKDIR}/live_smoke)

find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  # No POSIX shell, no signals: still exercise the live directory end to
  # end; the dump checks below are gated on `signaled`.
  set(signaled FALSE)
  file(REMOVE_RECURSE ${LIVE})
  file(MAKE_DIRECTORY ${LIVE})
  execute_process(
    COMMAND ${CLI} --batch 96x64*6 --obs-live ${LIVE}
            --obs-ring-events 512 --obs-snapshot-ms 10
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "live batch run failed (${rc}): ${out}${err}")
  endif()
else()
  # The signal must land while the batch is still decomposing; on a fast or
  # lightly loaded host the first workload can finish before the sleep
  # expires, so grow the batch (bounded: 2, 16, then 54 large items)
  # instead of failing on a race.
  set(signaled FALSE)
  foreach(attempt RANGE 1 3)
    file(REMOVE_RECURSE ${LIVE})
    file(MAKE_DIRECTORY ${LIVE})
    math(EXPR nbig "2 * ${attempt} * ${attempt} * ${attempt}")
    set(script "'${CLI}' --batch '128x96*8,192x128*${nbig}' \
--obs-live '${LIVE}' --obs-ring-events 512 --obs-snapshot-ms 10 & \
pid=$!; sleep 0.05; \
if kill -USR1 $pid 2>/dev/null; then sig=1; else sig=0; fi; \
wait $pid; rc=$?; echo SIGNALED=$sig; exit $rc")
    execute_process(
      COMMAND ${BASH_PROGRAM} -c "${script}"
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "live batch run failed (${rc}): ${out}${err}")
    endif()
    if(out MATCHES "SIGNALED=1" AND EXISTS ${LIVE}/dump_0001.trace.json)
      set(signaled TRUE)
      break()
    endif()
    message(STATUS "attempt ${attempt}: batch finished before SIGUSR1 "
                   "landed, growing the workload")
  endforeach()
  if(NOT signaled)
    message(FATAL_ERROR "could not deliver SIGUSR1 mid-run in 3 attempts")
  endif()
endif()

if(NOT out MATCHES "live telemetry")
  message(FATAL_ERROR "CLI did not announce live telemetry: ${out}")
endif()

# The final artifacts: a flight-recorder (v3) trace with ring metadata, a
# metrics document, and at least one snapshot line.
file(READ ${LIVE}/final_trace.json trace_body)
if(NOT trace_body MATCHES "\"schema\": \"hjsvd.trace.v3\"")
  message(FATAL_ERROR "final trace is not hjsvd.trace.v3")
endif()
if(NOT trace_body MATCHES "\"flight_recorder\": true")
  message(FATAL_ERROR "final trace lacks flight-recorder metadata")
endif()
if(NOT trace_body MATCHES "\"ring_capacity_events\": 512")
  message(FATAL_ERROR "final trace does not record the configured ring size")
endif()
if(NOT EXISTS ${LIVE}/final_metrics.json)
  message(FATAL_ERROR "final metrics document missing")
endif()
file(READ ${LIVE}/snapshots.jsonl snapshots_body)
if(NOT snapshots_body MATCHES "hjsvd.metrics-snapshots.v1")
  message(FATAL_ERROR "snapshot stream is empty or untagged")
endif()
if(NOT EXISTS ${LIVE}/metrics.prom)
  message(FATAL_ERROR "Prometheus exposition file missing")
endif()
file(READ ${LIVE}/metrics.prom prom_body)
if(NOT prom_body MATCHES "# TYPE hjsvd_")
  message(FATAL_ERROR "Prometheus exposition lacks typed hjsvd_ metrics")
endif()

# The SIGUSR1 dump pair: a valid v3 core sample taken mid-run.
if(signaled)
  file(READ ${LIVE}/dump_0001.trace.json dump_body)
  if(NOT dump_body MATCHES "\"schema\": \"hjsvd.trace.v3\"")
    message(FATAL_ERROR "signal dump trace is not hjsvd.trace.v3")
  endif()
  if(NOT EXISTS ${LIVE}/dump_0001.metrics.json)
    message(FATAL_ERROR "signal dump metrics document missing")
  endif()
  if(NOT out MATCHES "1 dumps")
    message(FATAL_ERROR "CLI summary did not count the signal dump: ${out}")
  endif()
endif()

# scripts/validate_obs.py applies the full structural contract (span
# nesting, ring-metadata consistency, snapshot monotonicity).
if(PYTHON AND VALIDATE)
  execute_process(
    COMMAND ${PYTHON} ${VALIDATE}
            --trace ${LIVE}/final_trace.json
            --metrics ${LIVE}/final_metrics.json
            --snapshots ${LIVE}/snapshots.jsonl
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "validate_obs rejected the live artifacts (${rc}): "
                        "${out}${err}")
  endif()
  if(signaled)
    execute_process(
      COMMAND ${PYTHON} ${VALIDATE}
              --trace ${LIVE}/dump_0001.trace.json
              --metrics ${LIVE}/dump_0001.metrics.json
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "validate_obs rejected the signal dump (${rc}): "
                          "${out}${err}")
    endif()
  endif()
endif()

# hjsvd_report must ingest the v3 trace and emit the live section.
if(REPORT)
  execute_process(
    COMMAND ${REPORT} --trace ${LIVE}/final_trace.json
            --metrics ${LIVE}/final_metrics.json
            --out ${LIVE}/live_report.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hjsvd_report failed on live artifacts (${rc}): "
                        "${out}${err}")
  endif()
  file(READ ${LIVE}/live_report.json report_body)
  set(needles "\"live\": {\"ring_enabled\": true"
              "\"ring_capacity_events\": 512")
  # The batch section comes from the batch spans and metrics, which only an
  # instrumented build (-DHJSVD_OBS=ON) records.
  if(OBS)
    list(APPEND needles "\"batch\":")
  endif()
  foreach(needle ${needles})
    if(NOT report_body MATCHES "${needle}")
      message(FATAL_ERROR "live_report.json lacks ${needle}")
    endif()
  endforeach()
  # Self-compare of a report with a live section: exit 0, no regression.
  execute_process(
    COMMAND ${REPORT} --compare ${LIVE}/live_report.json
            ${LIVE}/live_report.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "live self-compare exited ${rc}, want 0: ${out}${err}")
  endif()
endif()
