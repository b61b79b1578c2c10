# Observability smoke over the real CLI, in three acts:
#
#  1. `--batch @fig11:20 --trace-out --profile` must exit 0. The binary
#     itself re-reads and re-parses the trace file before exiting (the
#     --trace-out epilogue fails the process on invalid JSON), so rc=0
#     already certifies a loadable Chrome trace; on top we require the
#     file to contain real span names from the taxonomy and the run to
#     print the profile table.
#  2. The traced+profiled outcome bytes must equal an untraced run's —
#     the end-to-end form of the out-of-band invariant (observability
#     may never perturb analysis results).
#  3. A `metrics` verb round-trip through the `--serve` stdin protocol
#     must return the snapshot schema.
#
# Usage: cmake -DHIPTNT=<path-to-hiptnt> -DWORKDIR=<scratch-dir> -P TraceSmoke.cmake

if(NOT HIPTNT)
  message(FATAL_ERROR "TraceSmoke: pass -DHIPTNT=<path to the hiptnt binary>")
endif()
if(NOT WORKDIR)
  set(WORKDIR ${CMAKE_CURRENT_BINARY_DIR})
endif()
set(TRACE_FILE ${WORKDIR}/trace_smoke.json)
file(REMOVE ${TRACE_FILE})

# --- Act 1: traced + profiled batch run ----------------------------------
execute_process(
  COMMAND ${HIPTNT} --batch @fig11:20 --outcomes --threads 2
          --trace-out ${TRACE_FILE} --profile
  OUTPUT_VARIABLE TRACED_OUT
  RESULT_VARIABLE TRACED_RC)
if(NOT TRACED_RC EQUAL 0)
  message(FATAL_ERROR
          "TraceSmoke: traced run failed (rc=${TRACED_RC}) — either the "
          "batch failed or the --trace-out epilogue rejected its own JSON")
endif()
if(NOT EXISTS ${TRACE_FILE})
  message(FATAL_ERROR "TraceSmoke: ${TRACE_FILE} was not written")
endif()
file(READ ${TRACE_FILE} TRACE_JSON)
foreach(NEEDLE "\"traceEvents\"" "\"solveGroup\"" "\"omegaSat\""
        "\"displayTimeUnit\"")
  string(FIND "${TRACE_JSON}" "${NEEDLE}" HIT)
  if(HIT EQUAL -1)
    message(FATAL_ERROR
            "TraceSmoke: trace file is missing ${NEEDLE} — spans are not "
            "reaching the trace buffers")
  endif()
endforeach()
string(FIND "${TRACED_OUT}" "Slowest groups" HIT)
if(HIT EQUAL -1)
  message(FATAL_ERROR "TraceSmoke: --profile printed no profile table")
endif()

# --- Act 2: outcome bytes identical to an untraced run -------------------
execute_process(
  COMMAND ${HIPTNT} --batch @fig11:20 --outcomes --threads 2
  OUTPUT_VARIABLE PLAIN_OUT
  RESULT_VARIABLE PLAIN_RC)
if(NOT PLAIN_RC EQUAL 0)
  message(FATAL_ERROR "TraceSmoke: untraced run failed (rc=${PLAIN_RC})")
endif()
# Compare only the rendered per-program outcomes: everything after the
# "Batch:" summary header is timing (and, traced, the profile table),
# which legitimately varies. The outcome bytes above it are the
# out-of-band contract.
foreach(VAR TRACED_OUT PLAIN_OUT)
  string(FIND "${${VAR}}" "\nBatch: " CUT)
  if(CUT EQUAL -1)
    message(FATAL_ERROR
            "TraceSmoke: missing batch summary header in ${VAR} — "
            "the CLI output format changed under this smoke")
  endif()
  string(SUBSTRING "${${VAR}}" 0 ${CUT} ${VAR})
endforeach()
if(NOT TRACED_OUT STREQUAL PLAIN_OUT)
  message(FATAL_ERROR
          "TraceSmoke: outcome bytes differ between the traced+profiled "
          "run and the plain run — observability perturbed analysis")
endif()

# --- Act 3: metrics verb over the --serve protocol -----------------------
set(REQ_FILE ${WORKDIR}/trace_smoke_requests.ndjson)
file(WRITE ${REQ_FILE}
     "{\"id\":1,\"verb\":\"metrics\"}\n{\"id\":2,\"verb\":\"shutdown\"}\n")
execute_process(
  COMMAND ${HIPTNT} --serve
  INPUT_FILE ${REQ_FILE}
  OUTPUT_VARIABLE SERVE_OUT
  RESULT_VARIABLE SERVE_RC)
if(NOT SERVE_RC EQUAL 0)
  message(FATAL_ERROR "TraceSmoke: --serve run failed (rc=${SERVE_RC})")
endif()
foreach(NEEDLE "\"metrics\":{\"counters\":" "\"gauges\":" "\"histograms\":"
        "solver.sat_queries")
  string(FIND "${SERVE_OUT}" "${NEEDLE}" HIT)
  if(HIT EQUAL -1)
    message(FATAL_ERROR
            "TraceSmoke: metrics verb response is missing ${NEEDLE}")
  endif()
endforeach()

string(LENGTH "${TRACE_JSON}" TRACE_BYTES)
message(STATUS
        "TraceSmoke: ${TRACE_BYTES}-byte trace valid; outcome bytes "
        "identical traced/untraced; metrics verb schema OK")
