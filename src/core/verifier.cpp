#include "core/verifier.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/check.hpp"
#include "common/wire.hpp"
#include "crypto/sha256_dispatch.hpp"

namespace clusterbft::core {

namespace {

/// Canonical encoding of a complete digest vector: the map iterates in
/// DigestKey order and the wire encoding of (key, digest) is injective,
/// so the byte stream determines the map.
std::vector<std::uint8_t> fingerprint_bytes(
    const std::map<mapreduce::DigestKey, crypto::Digest256>& digests) {
  common::WireWriter w;
  for (const auto& [key, digest] : digests) {
    mapreduce::encode(w, key);
    w.raw(digest.bytes.data(), digest.bytes.size());
  }
  return w.take();
}

/// SHA-256 over the canonical encoding. Two runs have equal fingerprints
/// iff their digest maps are equal.
crypto::Digest256 fingerprint_of(
    const std::map<mapreduce::DigestKey, crypto::Digest256>& digests) {
  const auto bytes = fingerprint_bytes(digests);
  return crypto::Digest256::of(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

}  // namespace

void Verifier::expect_run(const std::string& sid, std::size_t run_id,
                          bool gating) {
  const common::RoleGuard held(common::scheduler_thread_role);
  JobState& job = jobs_[sid];
  job.gating = job.gating || gating;
  job.runs[run_id];  // default-construct
}

void Verifier::add_report(const std::string& sid, std::size_t run_id,
                          const mapreduce::DigestReport& report) {
  const common::RoleGuard held(common::scheduler_thread_role);
  JobState& job = jobs_[sid];
  auto it = job.runs.find(run_id);
  CBFT_CHECK_MSG(it != job.runs.end(), "digest from an unexpected run");
  CBFT_CHECK_MSG(!it->second.complete, "digest after run completion");
  // A Byzantine task could double-report a key; last write wins, and the
  // resulting vector simply won't match honest replicas.
  it->second.digests[report.key] = report.digest;
}

void Verifier::mark_run_complete(const std::string& sid, std::size_t run_id) {
  const common::RoleGuard held(common::scheduler_thread_role);
  JobState& job = jobs_[sid];
  auto it = job.runs.find(run_id);
  CBFT_CHECK_MSG(it != job.runs.end(), "completion of an unexpected run");
  it->second.complete = true;
}

void Verifier::forget_run(const std::string& sid, std::size_t run_id) {
  const common::RoleGuard held(common::scheduler_thread_role);
  JobState* job = find(sid);
  if (job == nullptr) return;
  job->runs.erase(run_id);
}

const crypto::Digest256& Verifier::fingerprint(RunState& run) {
  CBFT_CHECK_MSG(run.complete, "fingerprint of an incomplete run");
  if (!run.fingerprint) run.fingerprint = fingerprint_of(run.digests);
  return *run.fingerprint;
}

const Verifier::JobState* Verifier::find(const std::string& sid) const {
  auto it = jobs_.find(sid);
  return it == jobs_.end() ? nullptr : &it->second;
}

Verifier::JobState* Verifier::find(const std::string& sid) {
  auto it = jobs_.find(sid);
  return it == jobs_.end() ? nullptr : &it->second;
}

std::vector<std::vector<std::size_t>> Verifier::agreement_groups(
    JobState& job) {
  // Multi-buffer prefold: completed runs still missing a fingerprint
  // hash as one sha256_batch call, so an AVX2 host folds the digest
  // vectors in 8-lane lockstep instead of one at a time. The fingerprint
  // is a pure function of the digest vector, so this changes wall-clock
  // only.
  std::vector<RunState*> need;
  for (auto& [run_id, state] : job.runs) {
    if (state.complete && !state.fingerprint) need.push_back(&state);
  }
  if (need.size() > 1) {
    std::vector<std::vector<std::uint8_t>> bufs;
    std::vector<std::string_view> views;
    bufs.reserve(need.size());
    views.reserve(need.size());
    for (RunState* run : need) {
      bufs.push_back(fingerprint_bytes(run->digests));
      views.emplace_back(reinterpret_cast<const char*>(bufs.back().data()),
                         bufs.back().size());
    }
    std::vector<crypto::Sha256::Digest> folded(need.size());
    crypto::sha256_batch(views.data(), folded.data(), need.size());
    for (std::size_t i = 0; i < need.size(); ++i) {
      need[i]->fingerprint = crypto::Digest256{folded[i]};
    }
  }

  std::vector<std::vector<std::size_t>> groups;
  std::vector<crypto::Digest256> reps;
  for (auto& [run_id, state] : job.runs) {
    if (!state.complete) continue;
    const crypto::Digest256& fp = fingerprint(state);
    bool placed = false;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (reps[g] == fp) {
        groups[g].push_back(run_id);
        placed = true;
        break;
      }
    }
    if (!placed) {
      groups.push_back({run_id});
      reps.push_back(fp);
    }
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });
  return groups;
}

std::optional<Verifier::Decision> Verifier::try_decide(
    const std::string& sid) {
  const common::RoleGuard held(common::scheduler_thread_role);
  JobState* job = find(sid);
  CBFT_CHECK_MSG(job != nullptr, "deciding an unknown sid");
  if (!job->gating) return std::nullopt;

  const auto groups = agreement_groups(*job);
  if (groups.empty() || groups.front().size() < f_ + 1) return std::nullopt;

  Decision d;
  d.verified = true;
  d.majority_runs = groups.front();
  d.fingerprint = fingerprint(job->runs.at(d.majority_runs.front()));
  for (std::size_t g = 1; g < groups.size(); ++g) {
    d.deviant_runs.insert(d.deviant_runs.end(), groups[g].begin(),
                          groups[g].end());
  }
  return d;
}

std::vector<std::size_t> Verifier::current_deviants(const std::string& sid) {
  const common::RoleGuard held(common::scheduler_thread_role);
  JobState* job = find(sid);
  CBFT_CHECK(job != nullptr);
  const auto groups = agreement_groups(*job);
  std::vector<std::size_t> out;
  for (std::size_t g = 1; g < groups.size(); ++g) {
    out.insert(out.end(), groups[g].begin(), groups[g].end());
  }
  return out;
}

bool Verifier::run_agrees(const std::string& sid, std::size_t a,
                          std::size_t b) {
  const common::RoleGuard held(common::scheduler_thread_role);
  JobState* job = find(sid);
  CBFT_CHECK(job != nullptr);
  auto ia = job->runs.find(a);
  auto ib = job->runs.find(b);
  CBFT_CHECK_MSG(ia != job->runs.end() && ib != job->runs.end(),
                 "agreement query for an unknown run");
  return fingerprint(ia->second) == fingerprint(ib->second);
}

bool Verifier::is_gating(const std::string& sid) const {
  const common::RoleGuard held(common::scheduler_thread_role);
  const JobState* job = find(sid);
  return job != nullptr && job->gating;
}

std::size_t Verifier::expected_runs(const std::string& sid) const {
  const common::RoleGuard held(common::scheduler_thread_role);
  const JobState* job = find(sid);
  return job ? job->runs.size() : 0;
}

std::size_t Verifier::completed_runs(const std::string& sid) const {
  const common::RoleGuard held(common::scheduler_thread_role);
  const JobState* job = find(sid);
  if (!job) return 0;
  std::size_t n = 0;
  for (const auto& [run_id, state] : job->runs) {
    if (state.complete) ++n;
  }
  return n;
}

std::vector<std::size_t> Verifier::incomplete_runs(
    const std::string& sid) const {
  const common::RoleGuard held(common::scheduler_thread_role);
  const JobState* job = find(sid);
  std::vector<std::size_t> out;
  if (!job) return out;
  for (const auto& [run_id, state] : job->runs) {
    if (!state.complete) out.push_back(run_id);
  }
  return out;
}

}  // namespace clusterbft::core
