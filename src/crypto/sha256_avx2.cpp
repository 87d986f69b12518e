// 8-way multi-buffer SHA-256 over AVX2: eight independent messages run
// the FIPS 180-4 rounds in lockstep, one message per 32-bit lane of a
// __m256i. There is no cross-lane arithmetic, so each lane computes
// exactly the scalar algorithm and the digests are bit-identical to the
// reference path; lanes whose (padded) message is shorter than the
// longest in the group replay their final block and have the result
// blended away. Pure computation — host-feature probing lives in
// sha256_dispatch.cpp only.
#include "crypto/sha256_dispatch.hpp"

#include <algorithm>
#include <vector>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)

#include <immintrin.h>

namespace clusterbft::crypto::detail {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::size_t kLanes = 8;

__attribute__((target("avx2")))
inline __m256i rotr32(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n),
                         _mm256_slli_epi32(x, 32 - n));
}

/// Load big-endian word `word` of block `block` from each lane's padded
/// buffer. Finished lanes replay their last block (result blended away).
__attribute__((target("avx2")))
inline __m256i gather_word(const std::uint8_t* const lane_data[kLanes],
                           const std::size_t lane_blocks[kLanes],
                           std::size_t block, std::size_t word) {
  alignas(32) std::uint32_t v[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::size_t b =
        block < lane_blocks[l] ? block
                               : (lane_blocks[l] > 0 ? lane_blocks[l] - 1 : 0);
    const std::uint8_t* p = lane_data[l] + 64 * b + 4 * word;
    v[l] = static_cast<std::uint32_t>(p[0]) << 24 |
           static_cast<std::uint32_t>(p[1]) << 16 |
           static_cast<std::uint32_t>(p[2]) << 8 |
           static_cast<std::uint32_t>(p[3]);
  }
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(v));
}

/// Run all blocks of up to 8 padded messages in lockstep and write each
/// lane's final state words into `state_out[lane][8]`.
__attribute__((target("avx2")))
void run_lanes(const std::uint8_t* const lane_data[kLanes],
               const std::size_t lane_blocks[kLanes], std::size_t max_blocks,
               std::uint32_t state_out[kLanes][8]) {
  __m256i h[8];
  static constexpr std::uint32_t kInit[8] = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (std::size_t i = 0; i < 8; ++i) h[i] = _mm256_set1_epi32(
      static_cast<int>(kInit[i]));

  for (std::size_t block = 0; block < max_blocks; ++block) {
    // Lanes still inside their message absorb this block; the rest keep
    // their state (all-zero mask lanes blend the old value back in).
    alignas(32) std::uint32_t mask_words[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      mask_words[l] = block < lane_blocks[l] ? 0xffffffffu : 0u;
    }
    const __m256i active =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_words));

    __m256i w[16];
    for (std::size_t t = 0; t < 16; ++t) {
      w[t] = gather_word(lane_data, lane_blocks, block, t);
    }

    __m256i a = h[0], b = h[1], c = h[2], d = h[3];
    __m256i e = h[4], f = h[5], g = h[6], hh = h[7];

    for (std::size_t t = 0; t < 64; ++t) {
      if (t >= 16) {
        const __m256i w15 = w[(t - 15) & 15];
        const __m256i w2 = w[(t - 2) & 15];
        const __m256i s0 = _mm256_xor_si256(
            _mm256_xor_si256(rotr32(w15, 7), rotr32(w15, 18)),
            _mm256_srli_epi32(w15, 3));
        const __m256i s1 = _mm256_xor_si256(
            _mm256_xor_si256(rotr32(w2, 17), rotr32(w2, 19)),
            _mm256_srli_epi32(w2, 10));
        w[t & 15] = _mm256_add_epi32(
            _mm256_add_epi32(w[(t - 16) & 15], s0),
            _mm256_add_epi32(w[(t - 7) & 15], s1));
      }
      const __m256i big_s1 = _mm256_xor_si256(
          _mm256_xor_si256(rotr32(e, 6), rotr32(e, 11)), rotr32(e, 25));
      const __m256i ch = _mm256_xor_si256(
          _mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
      const __m256i t1 = _mm256_add_epi32(
          _mm256_add_epi32(_mm256_add_epi32(hh, big_s1), ch),
          _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(kK[t])),
                           w[t & 15]));
      const __m256i big_s0 = _mm256_xor_si256(
          _mm256_xor_si256(rotr32(a, 2), rotr32(a, 13)), rotr32(a, 22));
      const __m256i maj = _mm256_xor_si256(
          _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
          _mm256_and_si256(b, c));
      const __m256i t2 = _mm256_add_epi32(big_s0, maj);

      hh = g;
      g = f;
      f = e;
      e = _mm256_add_epi32(d, t1);
      d = c;
      c = b;
      b = a;
      a = _mm256_add_epi32(t1, t2);
    }

    const __m256i n0 = _mm256_add_epi32(h[0], a);
    const __m256i n1 = _mm256_add_epi32(h[1], b);
    const __m256i n2 = _mm256_add_epi32(h[2], c);
    const __m256i n3 = _mm256_add_epi32(h[3], d);
    const __m256i n4 = _mm256_add_epi32(h[4], e);
    const __m256i n5 = _mm256_add_epi32(h[5], f);
    const __m256i n6 = _mm256_add_epi32(h[6], g);
    const __m256i n7 = _mm256_add_epi32(h[7], hh);
    h[0] = _mm256_blendv_epi8(h[0], n0, active);
    h[1] = _mm256_blendv_epi8(h[1], n1, active);
    h[2] = _mm256_blendv_epi8(h[2], n2, active);
    h[3] = _mm256_blendv_epi8(h[3], n3, active);
    h[4] = _mm256_blendv_epi8(h[4], n4, active);
    h[5] = _mm256_blendv_epi8(h[5], n5, active);
    h[6] = _mm256_blendv_epi8(h[6], n6, active);
    h[7] = _mm256_blendv_epi8(h[7], n7, active);
  }

  for (std::size_t i = 0; i < 8; ++i) {
    alignas(32) std::uint32_t lanes[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), h[i]);
    for (std::size_t l = 0; l < kLanes; ++l) state_out[l][i] = lanes[l];
  }
}

/// FIPS 180-4 padding: message + 0x80 + zeros + 64-bit big-endian bit
/// length, to a whole number of 64-byte blocks.
std::vector<std::uint8_t> pad_message(std::string_view msg) {
  const std::size_t rem = msg.size() % 64;
  const std::size_t pad = (rem < 56) ? (56 - rem) : (120 - rem);
  std::vector<std::uint8_t> out(msg.begin(), msg.end());
  out.resize(msg.size() + pad + 8);
  out[msg.size()] = 0x80;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    out[out.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  return out;
}

}  // namespace

void sha256_batch_avx2(const std::string_view* msgs, Sha256::Digest* out,
                       std::size_t n) {
  for (std::size_t base = 0; base < n; base += kLanes) {
    const std::size_t group = std::min(kLanes, n - base);

    std::vector<std::uint8_t> padded[kLanes];
    const std::uint8_t* lane_data[kLanes];
    std::size_t lane_blocks[kLanes];
    std::size_t max_blocks = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      // Unused tail lanes alias lane 0 with zero blocks: they never pass
      // the active mask, so they only feed the (discarded) replay reads.
      const std::size_t src = l < group ? l : 0;
      if (l < group) padded[l] = pad_message(msgs[base + src]);
      const std::vector<std::uint8_t>& buf = l < group ? padded[l] : padded[0];
      lane_data[l] = buf.data();
      lane_blocks[l] = l < group ? buf.size() / 64 : 0;
      max_blocks = std::max(max_blocks, lane_blocks[l]);
    }

    std::uint32_t state[kLanes][8];
    run_lanes(lane_data, lane_blocks, max_blocks, state);

    for (std::size_t l = 0; l < group; ++l) {
      for (std::size_t i = 0; i < 8; ++i) {
        out[base + l][4 * i] = static_cast<std::uint8_t>(state[l][i] >> 24);
        out[base + l][4 * i + 1] =
            static_cast<std::uint8_t>(state[l][i] >> 16);
        out[base + l][4 * i + 2] = static_cast<std::uint8_t>(state[l][i] >> 8);
        out[base + l][4 * i + 3] = static_cast<std::uint8_t>(state[l][i]);
      }
    }
  }
}

}  // namespace clusterbft::crypto::detail

#else  // non-x86 build: keep the symbol, delegate to the reference path.

namespace clusterbft::crypto::detail {

void sha256_batch_avx2(const std::string_view* msgs, Sha256::Digest* out,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = Sha256::hash(msgs[i]);
}

}  // namespace clusterbft::crypto::detail

#endif
