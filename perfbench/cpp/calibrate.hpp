// Host-speed reference for the end-to-end wall and CPU metrics.
//
// A shared host runs the benchmark at a speed that drifts by 50% and more
// over seconds to minutes, as other tenants come and go; a run's median
// follows the host as much as the program. The benchmark therefore runs a
// fixed reference workload between passes and reports each pass's time
// scaled to a host on which that workload takes exactly kReferenceS. The
// reference is the benchmark's own code — string keys built, counted in a
// hash table, looked up and sorted, the kind of work the program's
// dataflow does — so a change to the program never changes it.
#pragma once

#include <cstdint>

namespace perfbench {

/// What the reference workload takes, by definition, on the reference
/// host (about its time on an idle 4-vCPU Xeon VM).
inline constexpr double kReferenceS = 0.100;

/// Run the reference workload once and return its wall seconds. `sink`
/// keeps the compiler from dropping the work.
double reference_once(std::uint64_t& sink);

}  // namespace perfbench
