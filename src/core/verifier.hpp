// The output verifier (§4.1/§4.2): collects digests streamed from tasks
// at verification points and, per sub-graph, asserts that at least f+1
// replicas produced byte-identical digest vectors.
//
// Comparison is *offline*: replicas report digests as their tasks run and
// downstream jobs of a replica chain proceed without waiting; the verifier
// decides as soon as enough complete, matching replicas exist. Each
// completed run's digest vector is folded once into a single SHA-256
// fingerprint, on the scheduler thread: the runs a decision finds still
// unfolded hash together as one multi-buffer sha256_batch call, and
// decision time only compares fingerprints.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/guarded.hpp"
#include "crypto/digest.hpp"
#include "mapreduce/job.hpp"

namespace clusterbft::core {

class Verifier {
 public:
  explicit Verifier(std::size_t f) : f_(f) {}

  std::size_t f() const { return f_; }

  /// Announce that `run_id` executes a replica of sub-graph `sid` and
  /// whether that job carries verification points ("gating": only gating
  /// jobs can be declared verified — a job without digests offers no
  /// evidence).
  void expect_run(const std::string& sid, std::size_t run_id, bool gating);

  /// Digest message from a task of `run_id`.
  void add_report(const std::string& sid, std::size_t run_id,
                  const mapreduce::DigestReport& report);

  /// The run finished (its digest vector is complete).
  void mark_run_complete(const std::string& sid, std::size_t run_id);

  /// Drop every record of `run_id` (it was rolled back: its inputs were
  /// tainted, so its digests are not evidence about `sid`). No-op for
  /// unknown runs.
  void forget_run(const std::string& sid, std::size_t run_id);

  struct Decision {
    bool verified = false;
    std::vector<std::size_t> majority_runs;  ///< agreeing, completed runs
    std::vector<std::size_t> deviant_runs;   ///< completed, disagreeing
    /// Fingerprint of the majority's digest vector — the evidence the
    /// result cache and the checkpoint store key verified relations by.
    crypto::Digest256 fingerprint;
  };

  /// Decide `sid` if possible: verified when >= f+1 completed runs agree
  /// on the entire digest vector. Returns nullopt for non-gating jobs and
  /// for jobs without enough agreement yet (deviants are still reported
  /// through `current_deviants`).
  std::optional<Decision> try_decide(const std::string& sid);

  /// Completed runs that disagree with the (possibly not yet sufficient)
  /// plurality — used for eager fault attribution.
  std::vector<std::size_t> current_deviants(const std::string& sid);

  /// Whether two completed runs of `sid` produced identical digest
  /// vectors — used to classify a replica that completes only after its
  /// job was already verified.
  bool run_agrees(const std::string& sid, std::size_t a, std::size_t b);

  bool is_gating(const std::string& sid) const;
  std::size_t expected_runs(const std::string& sid) const;
  std::size_t completed_runs(const std::string& sid) const;
  std::vector<std::size_t> incomplete_runs(const std::string& sid) const;

 private:
  struct RunState {
    std::map<mapreduce::DigestKey, crypto::Digest256> digests;
    bool complete = false;
    /// Fingerprint of `digests`, once computed.
    std::optional<crypto::Digest256> fingerprint;
  };
  struct JobState {
    bool gating = false;
    std::map<std::size_t, RunState> runs;  ///< by run id
  };

  /// The run's fingerprint, computed on first use. Requires a complete
  /// run (digest vector frozen).
  const crypto::Digest256& fingerprint(RunState& run)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// Group completed runs by identical digest vectors (fingerprint
  /// equality); returns groups of run ids, largest first.
  std::vector<std::vector<std::size_t>> agreement_groups(JobState& job)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  const JobState* find(const std::string& sid) const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  JobState* find(const std::string& sid)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  std::size_t f_;
  /// Thread-confined to the scheduler thread.
  std::map<std::string, JobState> jobs_
      CLUSTERBFT_GUARDED_BY(common::scheduler_thread_role);
};

}  // namespace clusterbft::core
