// One pass of a workload, and the metrics derived from a run's passes.
//
// A pass takes each spec in turn (closed loop, one spec at a time): it
// times the public setup calls that spec's run needs, each around the call
// from this file, then times harness::run_one(spec) and checks its output.
//
// Host times are calibrated.  A fixed calibration kernel owned by the
// benchmark (an event-heap loop, no simulator code) runs between specs, and
// each spec's times are scaled by kCalibrationNominalS / the kernel time
// bracketing it.  The result reads in seconds on a reference host that runs
// the kernel in exactly kCalibrationNominalS.  A shared host's speed drifts
// by tens of percent between runs, and the scaling cancels most of that
// drift; the raw times are reported too, as host.raw_*.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/run_result.hpp"
#include "harness/run_spec.hpp"
#include "spans.hpp"

namespace perfbench {

/// Host seconds of the public setup calls for one spec.
struct SetupTimes {
  double topology_s = 0.0;   // net::Topology::{clos,single_switch}
  double route_s = 0.0;      // net::RouteTable::route over the run's pairs
  double partition_s = 0.0;  // net::switch_cut (sharded specs)
  double cluster_s = 0.0;    // gm::Cluster (classic specs)
  double tree_s = 0.0;       // harness::build_tree / mcast::build_flat_tree
  double install_s = 0.0;    // mcast::install_group (classic NIC gm_mcast)
  std::size_t tree_depth = 0;
  std::size_t tree_max_fanout = 0;

  [[nodiscard]] double total() const {
    return topology_s + route_s + partition_s + cluster_s + tree_s +
           install_s;
  }
};

/// Nominal calibration-kernel time of the reference host.
inline constexpr double kCalibrationNominalS = 1e-3;

struct Outcome {
  SetupTimes setup;
  double run_s = 0.0;    // host seconds inside harness::run_one
  double calib_s = 0.0;  // calibration kernel, mean of the runs around it
  std::uint64_t order_hash = 0;
  std::vector<std::uint64_t> shard_hashes;
  std::string error;  // why the spec failed, empty when it passed

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct Pass {
  bool traced = false;
  double elapsed_s = 0.0;  // the whole pass: setup, runs, checks
  std::vector<Outcome> specs;
  /// Full results, kept by the first pass only, so that memory does not
  /// grow with the number of passes.
  std::vector<nicmcast::harness::RunResult> results;
};

/// Runs every spec once, in order; a throwing spec fails, it is never
/// dropped.
[[nodiscard]] Pass run_pass(
    const std::vector<nicmcast::harness::RunSpec>& specs, SpanLog& log,
    int pass);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Summary {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // empty unless some pass was traced
  /// Raw (uncalibrated) host times behind the calibrated ones; also part
  /// of per_layer.
  std::vector<Metric> host_raw;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed specs and determinism breaks, one line each.
  std::vector<std::string> problems;

  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// Derives every metric from a run's passes.  Host times are calibrated
/// per-spec medians, summed over the specs, across the untraced passes (end
/// to end) or the traced passes (per layer);
/// counts and simulated values come from the first pass, after checking
/// that every pass reproduced its event-order hashes.
[[nodiscard]] Summary summarize(
    const std::vector<nicmcast::harness::RunSpec>& specs,
    const std::vector<Pass>& passes, const SpanLog& log, double peak_rss_mb);

/// Peak resident memory of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
