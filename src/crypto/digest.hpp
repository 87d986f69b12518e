// Digest value type and chunked record digesting.
//
// ClusterBFT's verification function streams records through a verification
// point and emits SHA-256 digests. §6.4 ("approximation accuracy") varies
// the number of records per digest d: smaller d = more digests = finer
// localisation of corrupt output, at the cost of more verifier traffic.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"

namespace clusterbft::crypto {

/// Value-type wrapper around a SHA-256 digest, usable as a map key.
struct Digest256 {
  Sha256::Digest bytes{};

  friend auto operator<=>(const Digest256&, const Digest256&) = default;

  std::string hex() const { return to_hex(bytes); }

  static Digest256 of(std::string_view data) { return {Sha256::hash(data)}; }
};

struct Digest256Hash {
  std::size_t operator()(const Digest256& d) const {
    // The digest is already uniform; fold the first 8 bytes.
    std::size_t h = 0;
    for (int i = 0; i < 8; ++i) h = (h << 8) | d.bytes[static_cast<std::size_t>(i)];
    return h;
  }
};

/// A digest for one chunk of a verification-point stream.
struct ChunkDigest {
  std::uint64_t chunk_index = 0;  ///< 0-based chunk number within the stream
  std::uint64_t record_count = 0; ///< records folded into this digest
  Digest256 digest;

  friend bool operator==(const ChunkDigest&, const ChunkDigest&) = default;
};

/// Folds a stream of canonically-serialised records into one digest per
/// `records_per_digest` records (d in the paper; d == 0 means a single
/// digest over the whole stream).
///
/// Each record is hashed as its length (8 bytes, big-endian) followed by
/// its bytes. Records are staged back to back in one buffer, which is
/// hashed once it holds kStageBytes and at every chunk close: one
/// Sha256::update per few KiB instead of two per record, over the same
/// bytes.
class ChunkedDigester {
 public:
  explicit ChunkedDigester(std::uint64_t records_per_digest = 0);

  /// Absorb one record's canonical serialisation.
  void add_record(std::string_view serialized);

  /// Flush the trailing partial chunk (if any) and return all digests.
  /// The digester must not be reused afterwards.
  std::vector<ChunkDigest> finish();

  std::uint64_t records_seen() const { return records_seen_; }

 private:
  static constexpr std::size_t kStageBytes = 4096;

  void close_chunk();

  std::uint64_t records_per_digest_;
  std::uint64_t records_seen_ = 0;
  std::uint64_t records_in_chunk_ = 0;
  std::uint64_t chunk_index_ = 0;
  Sha256 hasher_;
  std::string stage_;  ///< framed records not yet handed to hasher_
  std::vector<ChunkDigest> out_;
  bool finished_ = false;
};

}  // namespace clusterbft::crypto
