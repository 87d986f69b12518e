// The trusted distributed file system.
//
// The paper assumes a trusted storage layer (§2.3, citing DepSky for
// feasibility) and focuses on computation. We model it as an in-memory
// store of relations split into fixed-size blocks, with byte accounting
// for the metrics Table 3 reports (file read/write, HDFS write).
//
// Each job *replica* writes its outputs under a replica-scoped prefix so
// that a Byzantine replica cannot clobber its siblings' data.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataflow/relation.hpp"

namespace clusterbft::mapreduce {

/// Byte counters accumulated by the DFS; Table 3's "HDFS write" column.
struct DfsMetrics {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

class Dfs {
 public:
  /// `block_size` controls how many input bytes go to one map split.
  explicit Dfs(std::uint64_t block_size = 1 << 20)
      : block_size_(block_size) {}

  std::uint64_t block_size() const { return block_size_; }

  bool exists(const std::string& path) const;

  /// Store a relation at `path`, replacing any previous content.
  void write(const std::string& path, dataflow::Relation rel);

  /// Read the whole relation (accounts bytes_read).
  const dataflow::Relation& read(const std::string& path);

  /// Read the whole relation WITHOUT accounting — control-tier metadata
  /// access (result-cache input fingerprints) that must not perturb the
  /// Table 3 byte counters.
  const dataflow::Relation& peek(const std::string& path) const {
    return file_at(path).rel;
  }

  /// Size in canonical bytes without accounting a read.
  std::uint64_t size_of(const std::string& path) const;

  /// Number of map splits `path` yields (>= 1 for non-empty files).
  std::size_t num_splits(const std::string& path) const;

  /// Rows of split `index` (accounts bytes_read for the split's share).
  dataflow::Relation read_split(const std::string& path, std::size_t index);

  void remove(const std::string& path);

  const DfsMetrics& metrics() const { return metrics_; }
  void reset_metrics() { metrics_ = DfsMetrics{}; }

  std::vector<std::string> list() const;

 private:
  /// Byte counts are taken once, in write(); every read accounts from
  /// them instead of re-serialising rows.
  struct File {
    dataflow::Relation rel;
    std::uint64_t byte_size = 0;
    /// Row index where each split begins (split i = [starts[i], starts[i+1])).
    std::vector<std::size_t> split_starts;
    /// Canonical bytes of each split; they sum to byte_size.
    std::vector<std::uint64_t> split_bytes;
  };

  const File& file_at(const std::string& path) const;

  std::uint64_t block_size_;
  std::map<std::string, File> files_;
  DfsMetrics metrics_;
};

}  // namespace clusterbft::mapreduce
