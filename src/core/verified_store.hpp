// Content-addressed store of verified relations — the one object behind
// both the verified-result cache (ClientRequest::use_result_cache; Yoon &
// Liu, arXiv 2002.09560: reusing already-checked work is where the
// assurance-vs-cost curve bends) and the adaptive checkpoint store
// (ClientRequest::adaptive_checkpoints; Chinnathambi & Santhanam, arXiv
// 1802.00951: durable verified restart boundaries).
//
// The key is a job's recursive sub-graph cache key (canonical logical-
// plan fingerprint, LOAD input content digests, r-policy). An entry is
// created only when the sub-graph *verified* (f+1 completed replicas
// agreed on its whole digest vector) and records the agreed digest-
// vector fingerprint, the path holding the verified bytes, and the
// contributor set — every node whose corruption could have influenced
// the result (the majority runs' fault clusters plus the contributors of
// every verified dependency). The first insert under a key wins: the key
// is a pure function of the sub-graph and its inputs, so a second
// verified result under it is identical. Convicting a contributing node
// drops every dependent entry (the bytes stay on the DFS — in-flight
// readers may still hold the path — but no future adoption sees it).
//
// The controller keeps two instances: the result cache, whose entries
// point at one majority replica's wave-scoped output, and the checkpoint
// store, whose entries point at a trusted run-independent copy
// (`ckpt/<key-hex>`). They stay separate because a cache lookup must
// never adopt a checkpoint-only entry: a checkpoint exists only for the
// cost-model-selected jobs of a checkpointing session, and a request
// with the cache off must not populate what cached requests adopt.
// Conviction invalidates both. The conviction paths (kSuspicionUpdate,
// kProbeOutcome) are journaled stimuli and every adoption is journaled,
// so both instances are rebuilt bit-identically by journal replay and
// never persisted separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "cluster/resource_table.hpp"
#include "common/guarded.hpp"
#include "crypto/digest.hpp"

namespace clusterbft::core {

class VerifiedStore {
 public:
  struct Entry {
    /// Fingerprint of the agreed digest vector — the verified evidence an
    /// adoption takes over instead of re-deriving.
    crypto::Digest256 fingerprint;
    /// DFS path holding the verified bytes.
    std::string path;
    /// Size of a materialised checkpoint (the cost model's write side);
    /// 0 for cache entries, which only point at a replica's output.
    std::uint64_t bytes = 0;
    /// Nodes whose conviction invalidates this entry.
    std::set<cluster::NodeId> contributors;
  };

  struct Stats {
    std::size_t lookups = 0;
    std::size_t hits = 0;                ///< lookups that found an entry
    std::size_t insertions = 0;          ///< first inserts (fresh entries)
    std::uint64_t bytes_written = 0;     ///< Entry::bytes across insertions
    std::size_t adoptions = 0;           ///< committed reuses (adopted())
    std::size_t invalidated = 0;         ///< entries dropped by conviction
  };

  /// Entry for `key`, or null. Counts a lookup (and a hit).
  const Entry* lookup(const crypto::Digest256& key)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// First insert wins; a duplicate key is ignored and not counted.
  void insert(const crypto::Digest256& key, Entry entry)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// Count one committed adoption of an entry found by lookup().
  void adopted() CLUSTERBFT_REQUIRES(common::scheduler_thread_role) {
    ++stats_.adoptions;
  }

  /// Drop every entry `node` contributed to; returns how many died.
  std::size_t invalidate_node(cluster::NodeId node)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  const Stats& stats() const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role) {
    return stats_;
  }
  std::size_t size() const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role) {
    return entries_.size();
  }

 private:
  std::map<crypto::Digest256, Entry> entries_
      CLUSTERBFT_GUARDED_BY(common::scheduler_thread_role);
  Stats stats_ CLUSTERBFT_GUARDED_BY(common::scheduler_thread_role);
};

}  // namespace clusterbft::core
