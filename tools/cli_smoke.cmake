# CLI smoke test: generate a matrix, decompose it with two methods, check
# both runs succeed and agree on the leading singular value.
execute_process(
  COMMAND ${CLI} --generate 24x16 --seed 7 --output ${WORKDIR}/smoke.mtx
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${out}${err}")
endif()

execute_process(
  COMMAND ${CLI} --input ${WORKDIR}/smoke.mtx --method hestenes --values 3
  RESULT_VARIABLE rc1 OUTPUT_VARIABLE out1 ERROR_VARIABLE err1)
execute_process(
  COMMAND ${CLI} --input ${WORKDIR}/smoke.mtx --method golub-kahan --values 3
  RESULT_VARIABLE rc2 OUTPUT_VARIABLE out2 ERROR_VARIABLE err2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "decompose failed: ${out1}${err1}${out2}${err2}")
endif()

string(REGEX MATCH "sigma\\[0\\] = ([0-9.e+-]+)" m1 "${out1}")
set(v1 ${CMAKE_MATCH_1})
string(REGEX MATCH "sigma\\[0\\] = ([0-9.e+-]+)" m2 "${out2}")
set(v2 ${CMAKE_MATCH_1})
if(NOT v1 OR NOT v2)
  message(FATAL_ERROR "missing sigma output: ${out1} / ${out2}")
endif()
math(EXPR dummy "0")  # keep CMake happy for float compare below
if(NOT v1 STREQUAL v2)
  # Allow tiny difference: compare to 6 significant digits.
  string(SUBSTRING "${v1}" 0 8 p1)
  string(SUBSTRING "${v2}" 0 8 p2)
  if(NOT p1 STREQUAL p2)
    message(FATAL_ERROR "methods disagree: ${v1} vs ${v2}")
  endif()
endif()

# The plain engine's rounds on a pool must print the digits of its inline
# run (--threads 1), and the parallel-modified alias those of hestenes.
# The pool check needs rounds of at least 16384 row-pairs (rows x
# floor(cols/2)); smaller inputs run inline at any --threads.
execute_process(
  COMMAND ${CLI} --generate 400x82 --seed 11 --output ${WORKDIR}/pooled.mtx
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate 400x82 failed: ${out}${err}")
endif()
function(sigma_lines out_var input)
  set(args ${ARGN})
  execute_process(
    COMMAND ${CLI} --input ${WORKDIR}/${input} ${args} --values 3
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${args}' decompose failed: ${out}${err}")
  endif()
  string(REGEX MATCHALL "sigma\\[[0-9]+\\] = [0-9.e+-]+" lines "${out}")
  if(NOT lines)
    message(FATAL_ERROR "'${args}' printed no sigma: ${out}")
  endif()
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()
sigma_lines(plain_t1 pooled.mtx --method plain --threads 1)
sigma_lines(plain_t3 pooled.mtx --method plain --threads 3)
if(NOT plain_t3 STREQUAL plain_t1)
  message(FATAL_ERROR "plain on 3 threads differs: ${plain_t3} vs ${plain_t1}")
endif()
sigma_lines(hestenes_lines smoke.mtx --method hestenes)
sigma_lines(alias_lines smoke.mtx --method parallel-modified)
if(NOT alias_lines STREQUAL hestenes_lines)
  message(FATAL_ERROR "parallel-modified differs from hestenes: "
                      "${alias_lines} vs ${hestenes_lines}")
endif()

# Observability outputs: the run must succeed, announce both files, and
# leave non-empty JSON documents with the right schema tags behind.
execute_process(
  COMMAND ${CLI} --input ${WORKDIR}/smoke.mtx --method hestenes
          --trace-out ${WORKDIR}/smoke_trace.json
          --metrics-out ${WORKDIR}/smoke_metrics.json
  RESULT_VARIABLE rc4 OUTPUT_VARIABLE out4 ERROR_VARIABLE err4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "trace/metrics run failed: ${out4}${err4}")
endif()
if(NOT out4 MATCHES "wrote trace to" OR NOT out4 MATCHES "wrote metrics to")
  message(FATAL_ERROR "trace/metrics run did not announce outputs: ${out4}")
endif()
foreach(obs_pair "smoke_trace.json;hjsvd.trace.v2"
                 "smoke_metrics.json;hjsvd.metrics.v1")
  list(GET obs_pair 0 obs_file)
  list(GET obs_pair 1 obs_schema)
  if(NOT EXISTS ${WORKDIR}/${obs_file})
    message(FATAL_ERROR "${obs_file} was not written")
  endif()
  file(READ ${WORKDIR}/${obs_file} obs_body)
  if(NOT obs_body MATCHES "\"schema\": \"${obs_schema}\"")
    message(FATAL_ERROR "${obs_file} lacks schema tag ${obs_schema}")
  endif()
endforeach()

# Numerical-health probes: the run must succeed, print the numerics summary
# line, and the sigma digits must match the probe-free sequential run
# bit-for-bit (read-only observer contract).
execute_process(
  COMMAND ${CLI} --input ${WORKDIR}/smoke.mtx --method hestenes
          --num-probes 4 --values 3
          --metrics-out ${WORKDIR}/smoke_num_metrics.json
  RESULT_VARIABLE rc6 OUTPUT_VARIABLE out6 ERROR_VARIABLE err6)
if(NOT rc6 EQUAL 0)
  message(FATAL_ERROR "--num-probes run failed: ${out6}${err6}")
endif()
if(NOT out6 MATCHES "numerics: [0-9]+ sampled pairs \\(stride 4\\)")
  message(FATAL_ERROR "--num-probes run printed no numerics summary: ${out6}")
endif()
string(REGEX MATCH "sigma\\[0\\] = ([0-9.e+-]+)" m6 "${out6}")
if(NOT CMAKE_MATCH_1 STREQUAL v1)
  message(FATAL_ERROR "probes perturbed sigma: ${CMAKE_MATCH_1} vs ${v1}")
endif()
# The sample counter is published only when the engines' recording sites
# are compiled in (-DHJSVD_OBS=ON).
if(OBS)
  file(READ ${WORKDIR}/smoke_num_metrics.json num_body)
  if(NOT num_body MATCHES "svd.num.samples")
    message(FATAL_ERROR "probe metrics lack svd.num.samples: ${num_body}")
  endif()
endif()

# --obs-live creates a missing directory one level deep instead of failing.
file(REMOVE_RECURSE ${WORKDIR}/fresh_live_dir)
execute_process(
  COMMAND ${CLI} --input ${WORKDIR}/smoke.mtx --method hestenes
          --obs-live ${WORKDIR}/fresh_live_dir --values 1
  RESULT_VARIABLE rc7 OUTPUT_VARIABLE out7 ERROR_VARIABLE err7)
if(NOT rc7 EQUAL 0)
  message(FATAL_ERROR "--obs-live with missing dir failed: ${out7}${err7}")
endif()
if(NOT EXISTS ${WORKDIR}/fresh_live_dir/snapshots.jsonl)
  message(FATAL_ERROR "--obs-live did not create ${WORKDIR}/fresh_live_dir")
endif()

# Bad usage must exit non-zero and print the usage text, not fall back.
# --tolerance rejects zero, negative, non-finite and non-numeric values as
# usage errors (exit 2) instead of silently running a decomposition that
# can never converge.  The retired mixed-precision engine's method tokens
# are unknown, not aliased to another engine.  A missing --obs-live
# *parent* stays a usage error — only one directory level is created.
foreach(bad_args "--threads;0" "--threads;-2" "--method;bogus"
        "--method;mixed" "--method;mixed-modified"
        "--tolerance;0" "--tolerance;-1e-10" "--tolerance;abc"
        "--tolerance;inf"
        "--num-probes;0" "--num-probes;-3" "--num-probes;maybe"
        "--trace-out;${WORKDIR}/no_such_dir/t.json"
        "--metrics-out;${WORKDIR}/no_such_dir/m.json"
        "--obs-live;${WORKDIR}/no_such_dir/live")
  execute_process(
    COMMAND ${CLI} --input ${WORKDIR}/smoke.mtx ${bad_args}
    RESULT_VARIABLE rc_bad OUTPUT_VARIABLE out_bad ERROR_VARIABLE err_bad)
  if(rc_bad EQUAL 0)
    message(FATAL_ERROR "'${bad_args}' unexpectedly succeeded")
  endif()
  if(NOT rc_bad EQUAL 2)
    message(FATAL_ERROR "'${bad_args}' exited ${rc_bad}, want usage error 2")
  endif()
  if(NOT err_bad MATCHES "--method")
    message(FATAL_ERROR "'${bad_args}' did not print usage: ${err_bad}")
  endif()
endforeach()

# Batch mode: a generated spec runs through the work-stealing scheduler and
# prints the per-item table plus the scheduler summary line.
execute_process(
  COMMAND ${CLI} --batch 12x8*3,24x24 --seed 5 --threads 2 --values 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--batch run failed (${rc}): ${out}${err}")
endif()
foreach(needle "batch of 4 matrices" "work-stealing batch pool"
               "12x8#0" "24x24#0" "scheduler: 2 workers")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "--batch output lacks '${needle}': ${out}")
  endif()
endforeach()

# --batch with a directory holding zero .mtx files is a usage error (exit 2
# + usage text), never a silent success with an empty stats line.
file(REMOVE_RECURSE ${WORKDIR}/empty_batch_dir)
file(MAKE_DIRECTORY ${WORKDIR}/empty_batch_dir)
execute_process(
  COMMAND ${CLI} --batch ${WORKDIR}/empty_batch_dir
  RESULT_VARIABLE rc_empty OUTPUT_VARIABLE out_empty ERROR_VARIABLE err_empty)
if(NOT rc_empty EQUAL 2)
  message(FATAL_ERROR "--batch on an empty directory exited ${rc_empty}, "
                      "want usage error 2: ${out_empty}${err_empty}")
endif()
if(NOT err_empty MATCHES "no .mtx files" OR NOT err_empty MATCHES "--method")
  message(FATAL_ERROR "--batch on an empty directory did not print the "
                      "usage text: ${err_empty}")
endif()

# Batch usage errors: mutually exclusive flags and malformed specs are
# usage errors (exit 2), not crashes.
foreach(bad_batch
    "--batch;12x8;--input;${WORKDIR}/smoke.mtx"
    "--batch;12x8;--write-u;${WORKDIR}/u.mtx"
    "--batch;12x8;--fpga-sim;true"
    "--batch;10xbad"
    "--batch;12x8*0")
  execute_process(
    COMMAND ${CLI} ${bad_batch}
    RESULT_VARIABLE rc_bad OUTPUT_VARIABLE out_bad ERROR_VARIABLE err_bad)
  if(NOT rc_bad EQUAL 2)
    message(FATAL_ERROR "'${bad_batch}' exited ${rc_bad}, want usage error 2: "
                        "${out_bad}${err_bad}")
  endif()
endforeach()
