#include "crypto/digest.hpp"

#include "common/check.hpp"

namespace clusterbft::crypto {

ChunkedDigester::ChunkedDigester(std::uint64_t records_per_digest)
    : records_per_digest_(records_per_digest) {}

void ChunkedDigester::add_record(std::string_view serialized) {
  CBFT_CHECK(!finished_);
  // Length-prefix each record so the framing is unambiguous (otherwise
  // "ab"+"c" and "a"+"bc" would hash identically).
  const std::uint64_t len = serialized.size();
  char len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<char>(len >> (56 - 8 * i));
  }
  stage_.append(len_bytes, 8);
  stage_.append(serialized);
  if (stage_.size() >= kStageBytes) {
    hasher_.update(stage_);
    stage_.clear();
  }
  ++records_seen_;
  ++records_in_chunk_;
  if (records_per_digest_ > 0 && records_in_chunk_ == records_per_digest_) {
    close_chunk();
  }
}

void ChunkedDigester::close_chunk() {
  ChunkDigest cd;
  cd.chunk_index = chunk_index_++;
  cd.record_count = records_in_chunk_;
  hasher_.update(stage_);
  stage_.clear();
  cd.digest = Digest256{hasher_.finalize()};
  out_.push_back(cd);
  hasher_ = Sha256();
  records_in_chunk_ = 0;
}

std::vector<ChunkDigest> ChunkedDigester::finish() {
  CBFT_CHECK(!finished_);
  finished_ = true;
  // Always emit at least one digest (even for an empty stream) so the
  // verifier can distinguish "empty output" from "no digest received"
  // (an omission fault).
  if (records_in_chunk_ > 0 || out_.empty()) close_chunk();
  return std::move(out_);
}

}  // namespace clusterbft::crypto
