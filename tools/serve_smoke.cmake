# hjsvd_serve smoke test: the stdio protocol round trip.  A hand-rolled
# frame exercises the server without python; when python is available the
# reference client drives the full matrix -- success counts, thread-count
# bit identity, deterministic overload rejection, malformed frames, and
# metrics validation.

# --- No-python baseline: one ok frame, one malformed frame. ---------------
file(WRITE ${WORKDIR}/serve_in.jsonl
  "{\"schema\":\"hjsvd.serve.v1\",\"id\":\"a\",\"rows\":2,\"cols\":2,\"data\":[3,0,0,4]}\n"
  "{\"id\":\"b\",\"rows\":2,\"cols\":2}\n")
execute_process(
  COMMAND ${SERVE} --threads 2 --metrics-out ${WORKDIR}/serve_metrics.json
  INPUT_FILE ${WORKDIR}/serve_in.jsonl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve run failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "\"id\":\"a\",\"status\":\"ok\"")
  message(FATAL_ERROR "missing ok reply for id a: ${out}")
endif()
# 2x2 diag(3,4) has exact singular values 4, 3.
if(NOT out MATCHES "\"sigma\":\\[4,3\\]")
  message(FATAL_ERROR "wrong sigma for diag(3,4): ${out}")
endif()
if(NOT out MATCHES "\"id\":\"b\",\"status\":\"error\",\"code\":\"bad_request\"")
  message(FATAL_ERROR "missing bad_request reply for id b: ${out}")
endif()
if(NOT EXISTS ${WORKDIR}/serve_metrics.json)
  message(FATAL_ERROR "serve did not write --metrics-out")
endif()
# With the instrumentation compiled out (-DHJSVD_OBS=OFF) the artifact is
# written but holds no serve counters.
if(OBS)
  file(READ ${WORKDIR}/serve_metrics.json metrics)
  if(NOT metrics MATCHES "serve.requests_total")
    message(FATAL_ERROR "metrics artifact lacks serve.* entries: ${metrics}")
  endif()
  if(NOT metrics MATCHES "serve.workspace.reuse_total")
    message(FATAL_ERROR "metrics artifact lacks workspace counters")
  endif()
endif()

if(NOT PYTHON)
  message(STATUS "python3 not found; skipping serve client checks")
  return()
endif()

# --- Reference client: success counts + warm-workspace metrics. -----------
execute_process(
  COMMAND ${PYTHON} ${CLIENT} --serve ${SERVE} --requests 8 --threads 2
          --expect-ok 8
          --server-arg=--metrics-out=${WORKDIR}/serve_metrics2.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "client round trip failed: ${out}${err}")
endif()

# --- Bit identity across thread counts (sigma and V, 17-digit wire). ------
execute_process(
  COMMAND ${PYTHON} ${CLIENT} --serve ${SERVE} --requests 6 --threads 1
          --compute-v --expect-ok 6 --dump ${WORKDIR}/serve_t1.json
  RESULT_VARIABLE rc1 OUTPUT_VARIABLE out1 ERROR_VARIABLE err1)
execute_process(
  COMMAND ${PYTHON} ${CLIENT} --serve ${SERVE} --requests 6 --threads 4
          --compute-v --expect-ok 6 --compare ${WORKDIR}/serve_t1.json
  RESULT_VARIABLE rc2 OUTPUT_VARIABLE out2 ERROR_VARIABLE err2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR
    "thread-count bit identity failed: ${out1}${err1}${out2}${err2}")
endif()

# --- Deterministic overload: hold dispatch until EOF so exactly the
# --- requests beyond the queue capacity are rejected. ---------------------
execute_process(
  COMMAND ${PYTHON} ${CLIENT} --serve ${SERVE} --requests 10
          --server-arg=--queue-capacity=4 --server-arg=--hold-until-eof
          --expect-ok 4 --expect-overload 6
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "overload drill failed: ${out}${err}")
endif()

# --- Metrics artifact passes the observability validator. -----------------
if(VALIDATE AND OBS)
  execute_process(
    COMMAND ${PYTHON} ${VALIDATE} --serve --metrics ${WORKDIR}/serve_metrics2.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "validate_obs --serve failed: ${out}${err}")
  endif()
endif()
