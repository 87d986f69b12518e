#include "calibrate.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

/// Keys per call: enough that the table and the sort spill out of the
/// core's private caches, as the program's relations do, and that one
/// call takes about 0.1 s.
constexpr std::size_t kKeys = 150'000;

std::uint64_t next(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

double reference_once(std::uint64_t& sink) {
  const auto t0 = Clock::now();
  std::uint64_t s = 0x2545f4914f6cdd1dULL;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back("user-" + std::to_string(next(s) % (kKeys / 2)) + "-" +
                   std::to_string(next(s) % 97));
  }
  std::unordered_map<std::string, std::uint64_t> counts;
  for (const std::string& k : keys) counts[k] += k.size();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kKeys; i += 3) {
    const auto it = counts.find(keys[(i * 7919) % kKeys]);
    acc += it == counts.end() ? 0 : it->second;
  }
  std::sort(keys.begin(), keys.end());
  for (const std::string& k : keys) acc = acc * 31 + static_cast<unsigned char>(k.back());
  sink += acc + counts.size();
  return seconds_since(t0);
}

}  // namespace perfbench
