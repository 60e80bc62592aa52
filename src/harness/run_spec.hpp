// Declarative experiment description.
//
// A RunSpec names one independent simulation — which experiment family to
// run and every knob it needs (cluster size and wiring, message size,
// algorithm, tree shape, fault rates, skew, seed, warmup/iteration counts).
// Specs are plain data: they can be generated by a Sweep, executed by a
// ParallelRunner on any thread, and serialised into the BENCH_*.json
// trajectory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "nic/config.hpp"
#include "nic/nic.hpp"

namespace nicmcast::harness {

/// The experiment families the stock runner (`run_one`) knows how to
/// execute.  kCustom specs carry their parameters in `label`/`aux` and are
/// executed by a caller-supplied run function.
enum class Experiment : std::uint8_t {
  kGmMulticast,  // GM-level broadcast over a spanning tree (Figs. 5, ablations)
  kMultisend,    // one source, k destinations, no forwarding (Fig. 3)
  kMpiBcast,     // MPI_Bcast latency (Fig. 4, RDMA extension)
  kSkewBcast,    // host CPU time in MPI_Bcast under process skew (Figs. 6-7)
  kBarrier,      // MPI_Barrier latency / blocked time (§7 extension)
  kAllreduce,    // NIC-level reduction (§7 extension)
  kCustom,       // bench-specific body run via a custom RunFn
};

enum class Algo : std::uint8_t { kNicBased, kHostBased };

/// Which stateful fault-injector family `install_faults` builds from
/// loss_rate/corrupt_rate.  kUniform is the historical i.i.d. model; the
/// others reuse the same knobs as intensity for bursty, ack-path-only and
/// time-windowed loss (src/net/fault_model.hpp).
enum class FaultFamily : std::uint8_t {
  kUniform,      // i.i.d. RandomFaults
  kBurst,        // Gilbert–Elliott with matching stationary drop rate
  kAckTargeted,  // loss restricted to the acknowledgment path
  kBlackout,     // periodic total outages with loss_rate duty cycle
};

enum class TreeShape : std::uint8_t { kPostal, kBinomial, kChain, kFlat };

/// kAuto picks single-switch up to 16 nodes and a radix-16 Clos above,
/// matching what the figure benches and the CLI have always done.
enum class Wiring : std::uint8_t { kAuto, kSingleSwitch, kClos, kBackToBack };

struct RunSpec {
  Experiment experiment = Experiment::kGmMulticast;
  /// Free-form tag: distinguishes kCustom variants and labels JSON rows.
  std::string label;

  std::size_t nodes = 16;
  Wiring wiring = Wiring::kAuto;
  std::size_t switch_radix = 16;

  std::size_t message_bytes = 128;
  Algo algo = Algo::kNicBased;
  TreeShape tree = TreeShape::kPostal;

  double loss_rate = 0.0;     // packet drop probability
  double corrupt_rate = 0.0;  // packet corruption probability
  FaultFamily faults = FaultFamily::kUniform;
  double avg_skew_us = 0.0;   // mean |skew|; the uniform window is 4x this

  std::size_t destinations = 0;  // kMultisend fan-out
  std::size_t lanes = 1;         // kAllreduce vector lanes (8 B each)
  bool rdma = false;             // kMpiBcast: RDMA multicast past the eager limit

  int warmup = 4;
  int iterations = 30;
  std::uint64_t seed = 1;
  /// Simulation shards (the --shards axis).  1 = the classic sequential
  /// engine, bit-identical to every run before this axis existed.  >1 =
  /// the conservative PDES engine over a switch-cut partition; supported
  /// for kGmMulticast, kMultisend, kMpiBcast, kSkewBcast and kBarrier
  /// (nic-based, uniform loss); kAllreduce and host-based algos throw.
  std::size_t shards = 1;
  /// Sharded runs only: advance each shard to its batched per-shard LBTS
  /// horizon instead of the global lbts + lookahead.  Same results and
  /// protocol totals, fewer LBTS rounds; event seq assignment differs,
  /// so determinism goldens are pinned per mode.
  bool batch_horizons = false;
  /// Experiment-specific integer knob for kCustom runners (e.g. the number
  /// of competing unicasts in the forwarding-policy ablation).
  std::uint64_t aux = 0;

  nic::NicConfig nic;
  nic::NicOptions nic_options;
};

[[nodiscard]] constexpr std::string_view to_string(Experiment e) {
  switch (e) {
    case Experiment::kGmMulticast: return "gm_mcast";
    case Experiment::kMultisend: return "multisend";
    case Experiment::kMpiBcast: return "mpi_bcast";
    case Experiment::kSkewBcast: return "skew_bcast";
    case Experiment::kBarrier: return "barrier";
    case Experiment::kAllreduce: return "allreduce";
    case Experiment::kCustom: return "custom";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(Algo a) {
  return a == Algo::kNicBased ? "nic" : "host";
}

[[nodiscard]] constexpr std::string_view to_string(FaultFamily f) {
  switch (f) {
    case FaultFamily::kUniform: return "uniform";
    case FaultFamily::kBurst: return "burst";
    case FaultFamily::kAckTargeted: return "ack-targeted";
    case FaultFamily::kBlackout: return "blackout";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(TreeShape t) {
  switch (t) {
    case TreeShape::kPostal: return "postal";
    case TreeShape::kBinomial: return "binomial";
    case TreeShape::kChain: return "chain";
    case TreeShape::kFlat: return "flat";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(Wiring w) {
  switch (w) {
    case Wiring::kAuto: return "auto";
    case Wiring::kSingleSwitch: return "single-switch";
    case Wiring::kClos: return "clos";
    case Wiring::kBackToBack: return "back-to-back";
  }
  return "?";
}

}  // namespace nicmcast::harness
