# SHA-256 dispatch parity gate, run as the `digest_parity` ctest (label:
# parity; `ctest --test-dir build -L parity` runs it alone):
#
#   cmake -DPARITY_BIN=<digest_parity> -DGOLDEN=<digest_parity.sha256>
#         -DOUT_DIR=<dir> -P tools/parity_check.cmake
#
# Runs the 24-seed verification-point transcript once with the default
# (auto-dispatched) SHA-256 backend and once with
# CLUSTERBFT_SHA256_BACKEND=scalar. Passes only if the two transcripts
# are identical — the accelerated kernels must match the scalar
# reference bit for bit — and their SHA-256 equals the golden hash, which
# pins the canonical bytes, the digest framing and the sweep across
# commits. Update the golden file only for an intended format change.

foreach(var PARITY_BIN GOLDEN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "parity_check: -D${var}=... is required")
  endif()
endforeach()

set(dispatch "${OUT_DIR}/parity_dispatch.txt")
set(scalar "${OUT_DIR}/parity_scalar.txt")

execute_process(COMMAND "${PARITY_BIN}"
  OUTPUT_FILE "${dispatch}" RESULT_VARIABLE rc_dispatch)
execute_process(COMMAND "${CMAKE_COMMAND}" -E env
                        CLUSTERBFT_SHA256_BACKEND=scalar "${PARITY_BIN}"
  OUTPUT_FILE "${scalar}" RESULT_VARIABLE rc_scalar)
if(NOT rc_dispatch EQUAL 0 OR NOT rc_scalar EQUAL 0)
  message(FATAL_ERROR "parity_check: digest_parity failed "
                      "(default dispatch: ${rc_dispatch}, scalar: ${rc_scalar})")
endif()

file(SHA256 "${dispatch}" hash_dispatch)
file(SHA256 "${scalar}" hash_scalar)
if(NOT hash_dispatch STREQUAL hash_scalar)
  message(FATAL_ERROR "parity_check: PARITY FAILURE — dispatched SHA-256 "
                      "diverges from the scalar reference (diff ${scalar} "
                      "${dispatch})")
endif()

file(READ "${GOLDEN}" golden)
string(STRIP "${golden}" golden)
if(NOT hash_dispatch STREQUAL golden)
  message(FATAL_ERROR "parity_check: PARITY FAILURE — transcript SHA-256 "
                      "${hash_dispatch} differs from the golden ${golden} "
                      "(${GOLDEN})")
endif()

file(STRINGS "${dispatch}" lines)
list(LENGTH lines count)
message(STATUS "parity_check: OK (${count} digest lines identical, "
               "golden hash matches)")
