#include "workloads.hpp"

#include <stdexcept>
#include <thread>

#include "harness/parallel_runner.hpp"

namespace perfbench {

namespace {

using nicmcast::harness::Algo;
using nicmcast::harness::Experiment;
using nicmcast::harness::FaultFamily;
using nicmcast::harness::RunSpec;
using nicmcast::harness::Wiring;

constexpr Algo kBothAlgos[] = {Algo::kNicBased, Algo::kHostBased};

/// Shard count of the sharded points: the largest of {4, 2} not above the
/// host's core count (2 on fewer cores).
std::size_t sharded_count() {
  return std::thread::hardware_concurrency() >= 4 ? 4 : 2;
}

/// Builds a workload's specs and derives their seeds and seeded sizes.
class SpecList {
 public:
  SpecList(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  /// A message size near a paper grid point: `nominal` minus up to 1/64
  /// of it, drawn from the seed.  Never more than `nominal`, so a grid
  /// point that fills whole packets keeps its packet count on every seed.
  std::size_t size_near(std::size_t nominal) {
    return nominal - draw(nominal / 64 + 1);
  }

  /// A seeded value in [0, n).
  std::size_t draw(std::size_t n) {
    return nicmcast::harness::derive_seed(seed_, 1'000'000 + draws_++) % n;
  }

  RunSpec& add(Experiment experiment, std::size_t nodes, std::size_t bytes,
               Algo algo = Algo::kNicBased) {
    RunSpec spec;
    spec.experiment = experiment;
    spec.nodes = nodes;
    spec.message_bytes = bytes;
    spec.algo = algo;
    if (tiny_) {
      spec.warmup = 1;
      spec.iterations = 2;
    }
    spec.seed = nicmcast::harness::derive_seed(seed_, specs_.size());
    spec.label = std::string(to_string(experiment)) + "-" +
                 std::to_string(nodes) + "n-" + std::to_string(bytes) + "B-" +
                 std::string(to_string(algo));
    specs_.push_back(spec);
    return specs_.back();
  }

  [[nodiscard]] bool tiny() const { return tiny_; }
  std::vector<RunSpec> take() { return std::move(specs_); }

 private:
  std::uint64_t seed_;
  bool tiny_;
  std::size_t draws_ = 0;
  std::vector<RunSpec> specs_;
};

// The paper's 16-node single-switch testbed, lossless, classic engine.
std::vector<RunSpec> paper_figs(SpecList list) {
  constexpr std::size_t kNodes = 16;
  for (const std::size_t bytes : {4, 512, 4096, 16384}) {  // Fig. 3
    const std::size_t size = list.size_near(bytes);
    for (const Algo algo : kBothAlgos) {
      list.add(Experiment::kMultisend, kNodes, size, algo).destinations =
          kNodes - 1;
    }
  }
  // Fig. 4 spans the eager/rendezvous boundary: 16287 B is the largest
  // eager message, 32 KB is rendezvous.
  for (const std::size_t bytes : {4, 1024, 8192, 16287, 32768}) {
    const std::size_t size = list.size_near(bytes);
    for (const Algo algo : kBothAlgos) {
      list.add(Experiment::kMpiBcast, kNodes, size, algo);
    }
  }
  // Fig. 5, plus one full packet and a 1-64 B tail: on a lossless run
  // such a short last packet has cost ~900 us of spurious retransmission
  // stall, a defect this point keeps visible on every seed.
  const std::size_t tail = 4096 + 1 + list.draw(64);
  for (const std::size_t bytes : {4, 512, 4096, 16384, 0}) {
    const std::size_t size = bytes == 0 ? tail : list.size_near(bytes);
    for (const Algo algo : kBothAlgos) {
      list.add(Experiment::kGmMulticast, kNodes, size, algo);
    }
  }
  for (const double skew : {0.0, 100.0, 400.0}) {  // Fig. 6
    for (const Algo algo : kBothAlgos) {
      list.add(Experiment::kSkewBcast, kNodes, 4, algo).avg_skew_us = skew;
    }
  }
  for (const Algo algo : kBothAlgos) {  // NIC vs host barrier
    list.add(Experiment::kBarrier, kNodes, 4, algo);
  }
  for (const std::size_t nodes : {32, 64}) {  // Fig. 7 scaling, 400 us skew
    for (const Algo algo : kBothAlgos) {
      list.add(Experiment::kSkewBcast, nodes, 4, algo).avg_skew_us = 400.0;
    }
  }
  return list.take();
}

// gm_mcast and mpi_bcast through the recovery path on a 64-endpoint
// radix-16 Clos, under each fault family at about 1-2% loss.  Sizes are
// exact: the seed drives the loss draws, and a seeded size would shift
// every iteration against the fixed blackout windows, which swamps them.
std::vector<RunSpec> lossy64(SpecList list) {
  const std::size_t nodes = list.tiny() ? 32 : 64;
  const std::pair<FaultFamily, double> faults[] = {
      {FaultFamily::kUniform, 0.01},
      {FaultFamily::kBurst, 0.015},
      {FaultFamily::kAckTargeted, 0.02},
      {FaultFamily::kBlackout, 0.01},
  };
  for (const auto& [family, loss] : faults) {
    for (const Experiment experiment :
         {Experiment::kGmMulticast, Experiment::kMpiBcast}) {
      for (const std::size_t bytes : {4096, 16384}) {
        RunSpec& spec = list.add(experiment, nodes, bytes);
        spec.wiring = Wiring::kClos;
        spec.faults = family;
        spec.loss_rate = loss;
        spec.label += "-" + std::string(to_string(family));
      }
    }
  }
  return list.take();
}

// Thousands of endpoints: each point runs on the classic engine (1 shard)
// and on the sharded engine, same spec otherwise.  Few iterations, as in
// the scale benches: setup and per-iteration cost both grow with the
// endpoint count.
std::vector<RunSpec> clos_scale(SpecList list) {
  const int iterations = list.tiny() ? 2 : 4;
  const std::size_t mcast_nodes = list.tiny() ? 256 : 4096;
  const std::size_t msend_nodes = list.tiny() ? 128 : 1024;
  const std::size_t mcast_bytes = list.size_near(16384);
  const std::size_t msend_bytes = list.size_near(4096);
  for (const std::size_t shards : {std::size_t{1}, sharded_count()}) {
    RunSpec& mcast =
        list.add(Experiment::kGmMulticast, mcast_nodes, mcast_bytes);
    mcast.wiring = Wiring::kClos;
    mcast.warmup = 1;
    mcast.iterations = iterations;
    mcast.shards = shards;
    mcast.label += "@s" + std::to_string(shards);

    RunSpec& msend = list.add(Experiment::kMultisend, msend_nodes, msend_bytes);
    msend.wiring = Wiring::kClos;
    msend.warmup = 1;
    msend.iterations = iterations;
    msend.destinations = msend_nodes - 1;
    msend.shards = shards;
    msend.label += "@s" + std::to_string(shards);
  }
  return list.take();
}

}  // namespace

std::vector<RunSpec> make_specs(std::string_view workload, std::uint64_t seed,
                                bool tiny) {
  SpecList list(seed, tiny);
  if (workload == "paper-figs") return paper_figs(std::move(list));
  if (workload == "lossy64") return lossy64(std::move(list));
  if (workload == "clos-scale") return clos_scale(std::move(list));
  throw std::invalid_argument("unknown workload '" + std::string(workload) +
                              "'");
}

}  // namespace perfbench
