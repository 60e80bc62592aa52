// The benchmark's workloads: each is the list of RunSpecs one pass runs.
//
// Every spec seed and every seeded input (exact message sizes, skew and
// loss draws) derives from the workload seed, so one seed always gives the
// same specs.  Only default engine modes are used.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "harness/run_spec.hpp"

namespace perfbench {

/// The specs of one pass of `workload` (paper-figs, lossy64, clos-scale).
/// `tiny` keeps every family, size class and shard count but shrinks node
/// and iteration counts (self-test).  Sharded specs are labelled
/// "<point>@s<shards>", so the same point at 1 and N shards shares the
/// label before '@'.  Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::vector<nicmcast::harness::RunSpec> make_specs(
    std::string_view workload, std::uint64_t seed, bool tiny);

}  // namespace perfbench
