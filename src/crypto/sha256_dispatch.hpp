// Runtime dispatch for the SHA-256 compression function. The scalar
// reference path (sha256.cpp) is always available; on x86 hosts with the
// SHA extensions the SHA-NI path (sha256_shani.cpp) replaces it, and on
// AVX2-only hosts an 8-way multi-buffer kernel (sha256_avx2.cpp)
// accelerates batch hashing. Every backend computes bit-identical
// FIPS 180-4 digests — backend choice is a wall-clock decision only, so
// the determinism contract (same seed -> same digest bytes) holds on any
// host. CPUID probing and the CLUSTERBFT_SHA256_BACKEND environment
// override are confined to sha256_dispatch.cpp (enforced by the
// cpu-dispatch lint rule): no other translation unit may fork behaviour
// on host features.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "crypto/sha256.hpp"

namespace clusterbft::crypto {

/// Available SHA-256 compression backends, ordered by preference.
enum class Sha256Backend : std::uint8_t {
  kScalar = 0,  ///< portable unrolled reference path (always available)
  kShani = 1,   ///< x86 SHA extensions, one _mm_sha256rnds2 round pair
  kAvx2 = 2,    ///< scalar single-stream + 8-way AVX2 multi-buffer batch
};

const char* to_string(Sha256Backend b);

/// Whether `b` can run on this host (kScalar is always true).
bool sha256_backend_available(Sha256Backend b);

/// The backend new hashers pick up. Selected once per process: the best
/// available backend, unless CLUSTERBFT_SHA256_BACKEND
/// (scalar|shani|avx2|auto) overrides it.
Sha256Backend sha256_backend();

/// Force the backend for subsequently constructed hashers — the knob the
/// dispatch tests and bench_micro use. Aborts if `b` is not available on
/// this host.
void force_sha256_backend(Sha256Backend b);

/// Multi-block compression: fold `nblocks` consecutive 64-byte blocks
/// into `state`, using the active backend's kernel.
using Sha256CompressFn = void (*)(std::uint32_t state[8],
                                  const std::uint8_t* blocks,
                                  std::size_t nblocks);

/// Resolve the active backend's compression function. Called by the
/// Sha256 constructor; everything downstream is an indirect call with no
/// further host-feature decisions.
Sha256CompressFn sha256_compress_fn();

/// The always-available reference kernel (defined in sha256.cpp).
void sha256_compress_scalar(std::uint32_t state[8],
                            const std::uint8_t* blocks, std::size_t nblocks);

/// Hash `n` independent messages: out[i] = SHA-256(msgs[i]). With the
/// AVX2 backend the messages run through an 8-lane multi-buffer kernel in
/// lockstep; otherwise they hash sequentially with the active single-
/// stream kernel. Digests are bit-identical across backends.
void sha256_batch(const std::string_view* msgs, Sha256::Digest* out,
                  std::size_t n);

namespace detail {

/// SHA-NI kernel (sha256_shani.cpp). Only callable when
/// sha256_backend_available(kShani); calling it elsewhere is #UD.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                           std::size_t nblocks);

/// 8-lane AVX2 multi-buffer batch kernel (sha256_avx2.cpp). Only callable
/// when sha256_backend_available(kAvx2).
void sha256_batch_avx2(const std::string_view* msgs, Sha256::Digest* out,
                       std::size_t n);

}  // namespace detail

}  // namespace clusterbft::crypto
