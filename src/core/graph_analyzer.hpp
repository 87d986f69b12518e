// The graph analyzer (§4.1): decides where in the data-flow graph to
// verify, using input ratios (Fig. 5) and the marker function (Fig. 3).
//
// Interpretation notes (the paper leaves two details open):
//  * min(v, M) with an empty M is undefined in Fig. 3. Final outputs are
//    always verified (that is the baseline even for the "P" configuration),
//    so we seed M with the STORE vertices: the marker then trades input
//    ratio against distance from the already-verified sinks, which yields
//    exactly the "mid point" behaviour the paper's Fig. 4 walkthrough
//    describes.
//  * LOAD vertices read trusted storage and STORE vertices are seeded, so
//    neither is a candidate. Under the strong adversary model candidates
//    are further restricted to vertices materialised at job boundaries
//    (blocking operators), per §4.1.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "dataflow/plan.hpp"
#include "mapreduce/job.hpp"

namespace clusterbft::core {

/// Fig. 5: input ratios. Load vertices get their share of the total input
/// bytes (`input_sizes` keyed by LOAD path); inner vertices get the sum of
/// their parents' ratios normalised by the total ratio of the previous
/// level. Indexed by vertex id.
std::vector<double> compute_input_ratios(
    const dataflow::LogicalPlan& plan,
    const std::map<std::string, std::uint64_t>& input_sizes);

/// Fig. 3: pick `n` verification vertices greedily by
/// score(v) = ir[v] + min-edge-distance(v, M), M seeded with the sinks.
/// Returns at most n vertices (fewer if the candidate set is smaller).
std::vector<dataflow::OpId> mark_verification_points(
    const dataflow::LogicalPlan& plan, const std::vector<double>& input_ratios,
    std::size_t n, AdversaryModel adversary);

/// Convenience: ratios + marking + digest granularity, ready for the
/// compiler. Adds the final-output (STORE) points when
/// `verify_final_output` is set.
std::vector<mapreduce::VerificationPoint> analyze(
    const dataflow::LogicalPlan& plan,
    const std::map<std::string, std::uint64_t>& input_sizes,
    const ClientRequest& request);

/// Per-job length of the longest downstream job chain (sinks = 1). The
/// pipelined scheduler dispatches ready jobs deepest-first so a bounded
/// pipeline width is spent on the critical path, not on short side
/// branches. Indexed by job index.
std::vector<std::size_t> pipeline_depths(const mapreduce::JobDag& dag);

/// Conservative per-job output-size estimate: LOAD branches contribute
/// their known input bytes, dependency branches the producing job's
/// estimate, and a job passes its total input through (an upper bound —
/// blocking operators only shrink streams). Indexed by job index.
std::vector<std::uint64_t> estimate_job_output_bytes(
    const mapreduce::JobDag& dag,
    const std::map<std::string, std::uint64_t>& input_sizes);

/// Which gating jobs to checkpoint, plus the estimates the decision used.
struct CheckpointPlacement {
  std::vector<bool> selected;             ///< per job
  std::vector<std::uint64_t> est_bytes;   ///< per job output estimate
};

/// Cost-model checkpoint placement (Chinnathambi & Santhanam, arXiv
/// 1802.00951): checkpoint a verification point when the write is cheaper
/// than the re-execution it saves. For job j the expected saving is
///
///   risk x (pipeline_depth[j] - 1) x upstream_bytes[j]
///
/// — a rollback triggered anywhere in j's downstream cone (one chance per
/// downstream stage, weighted by the suspicion-derived risk prior) would
/// re-execute j's whole unverified-ancestor closure unless j's bytes are
/// checkpointed — against a write cost of est_bytes[j] scaled by how much
/// cheaper serialising a byte is than recomputing it. Candidates are the
/// `gating` jobs (internal verification points; final stores are promoted
/// anyway); every candidate with a positive net saving is selected.
/// Deterministic: pure function of its inputs, so replayed begin_script
/// calls re-derive the same placement.
CheckpointPlacement select_checkpoints(
    const mapreduce::JobDag& dag,
    const std::map<std::string, std::uint64_t>& input_sizes,
    const std::vector<std::size_t>& pipeline_depth,
    const std::vector<bool>& gating, double suspicion_prior);

/// What the placement policy knows about one cloud — a pure-value
/// snapshot of the membership mirror, so the ordering stays a pure
/// function (replayed decisions re-derive identically).
struct CloudInfo {
  std::uint64_t id = 0;
  std::uint64_t price_milli = 0;   ///< advertised, milli-units/CPU-second
  std::size_t healthy_nodes = 0;   ///< announced minus excluded
};

/// Multi-cloud placement order (ISSUE 10): the preference order replica
/// chains are assigned clouds in. kSingleCloud returns only the
/// lowest-id cloud (the pre-multi-cloud behaviour); kSpread returns
/// every cloud in id order (chain i runs in order[i % n]); and
/// kCheapestFirst sorts ascending by (price_milli, id) so ties stay
/// deterministic. Clouds with no healthy nodes are dropped — a fully
/// excluded or never-announced cloud is not a placement candidate.
std::vector<std::uint64_t> placement_order(Placement placement,
                                           std::vector<CloudInfo> clouds);

}  // namespace clusterbft::core
