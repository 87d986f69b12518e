// Convenience bundles wiring a full control<->computation seam around an
// execution tracker. Construction-site idiom:
//
//   cluster::ExecutionTracker tracker(sim, dfs, cfg);
//   protocol::LoopbackSeam seam(tracker);
//   core::ClusterBft controller(sim, dfs, seam.transport, seam.programs);
//
// This header lives on the *computation* side of the trust boundary (it
// includes the tracker); src/core never includes it — the controller only
// sees the Transport and ProgramRegistry references.
#pragma once

#include "cluster/tracker.hpp"
#include "protocol/chaos.hpp"
#include "protocol/loopback.hpp"
#include "protocol/registry.hpp"
#include "protocol/service.hpp"

namespace clusterbft::protocol {

/// The deterministic default: everything observable is bit-identical to
/// wiring the controller straight to the tracker.
struct LoopbackSeam {
  LoopbackTransport transport;
  ProgramRegistry programs;
  ComputationService service;

  explicit LoopbackSeam(cluster::ExecutionTracker& tracker)
      : service(tracker, transport, programs) {}
};

/// The same seam over the simulated network's link model plus the chaos
/// faults (drop/delay/duplicate/reorder/corrupt).
struct ChaosSeam {
  ChaosTransport transport;
  ProgramRegistry programs;
  ComputationService service;

  ChaosSeam(cluster::ExecutionTracker& tracker, ChaosConfig cfg)
      : transport(tracker.sim(), cfg),
        service(tracker, transport, programs) {}
};

}  // namespace clusterbft::protocol
