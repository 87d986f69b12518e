#include "core/verified_store.hpp"

namespace clusterbft::core {

const VerifiedStore::Entry* VerifiedStore::lookup(
    const crypto::Digest256& key) {
  ++stats_.lookups;
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  ++stats_.hits;
  return &it->second;
}

void VerifiedStore::insert(const crypto::Digest256& key, Entry entry) {
  if (entries_.count(key) != 0) return;
  ++stats_.insertions;
  stats_.bytes_written += entry.bytes;
  entries_.emplace(key, std::move(entry));
}

std::size_t VerifiedStore::invalidate_node(cluster::NodeId node) {
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.contributors.count(node) != 0) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidated += dropped;
  return dropped;
}

}  // namespace clusterbft::core
