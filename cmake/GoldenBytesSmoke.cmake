# Golden-bytes smoke over the real CLI: the rendered per-program
# outcomes of the full corpus and of the conditional-termination run
# over the loop-based corpus (@fig11 --cond-term), each pinned by a
# SHA-256 digest committed below. The other smokes compare two runs of
# the same build with each other, so a change that moves every run the
# same way — an LP that returns a different but still sound vertex, say
# — passes them all; this one does not. Outcomes are thread-count
# independent, so --threads 2 pins every configuration.
#
# An intended change to the rendered outcomes re-pins the digests here;
# on a mismatch the message prints the new digest and byte count.
#
# Usage: cmake -DHIPTNT=<path-to-hiptnt> -P GoldenBytesSmoke.cmake

if(NOT HIPTNT)
  message(FATAL_ERROR
          "GoldenBytesSmoke: pass -DHIPTNT=<path to the hiptnt binary>")
endif()

# Each case: a name, the digest of its cut output, then the CLI flags.
set(CORPUS_SHA256
    "185cc5ec16ab9e55cb4128179e932a1d1109c30e4e6475282c103d86bc5ab681")
set(FIG11_COND_SHA256
    "21ae795d1f3fd229d0b465fd19ade0430e611bde8517f663c83040e841703c9f")

function(check_golden NAME EXPECTED)
  execute_process(
    COMMAND ${HIPTNT} --batch ${ARGN} --outcomes --threads 2
    OUTPUT_VARIABLE OUT
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "GoldenBytesSmoke: ${NAME} run failed (rc=${RC})")
  endif()
  # Everything after the "Batch:" summary header is the timing table,
  # which legitimately varies run to run.
  string(FIND "${OUT}" "\nBatch: " CUT)
  if(CUT EQUAL -1)
    message(FATAL_ERROR
            "GoldenBytesSmoke: missing batch summary header in ${NAME} — "
            "the CLI output format changed under this smoke")
  endif()
  string(SUBSTRING "${OUT}" 0 ${CUT} OUT)
  string(LENGTH "${OUT}" BYTES)
  string(SHA256 DIGEST "${OUT}")
  if(NOT DIGEST STREQUAL EXPECTED)
    message(FATAL_ERROR
            "GoldenBytesSmoke: ${NAME} outcome bytes changed: "
            "${BYTES} bytes, sha256 ${DIGEST}, pinned ${EXPECTED}")
  endif()
  message(STATUS "GoldenBytesSmoke: ${NAME} ${BYTES} bytes match the pin")
endfunction()

check_golden("@corpus" ${CORPUS_SHA256} @corpus)
check_golden("@fig11 --cond-term" ${FIG11_COND_SHA256} @fig11 --cond-term)
