// A lossless run never retransmits: no packet is ever dropped, so the only
// way Go-back-N could fire is a packet overtaking its predecessor on the
// wire.  Message sizes straddle the packet boundary (4096 B) so every run
// leaves a short tail packet, a full one or something in between.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/parallel_runner.hpp"

namespace nicmcast::harness {
namespace {

RunSpec lossless(Experiment experiment, std::size_t nodes, Wiring wiring,
                 std::size_t bytes, Algo algo) {
  RunSpec spec;
  spec.experiment = experiment;
  spec.nodes = nodes;
  spec.wiring = wiring;
  spec.message_bytes = bytes;
  spec.algo = algo;
  spec.warmup = 1;
  spec.iterations = 3;
  return spec;
}

std::string describe(const RunSpec& spec) {
  return std::string(to_string(spec.experiment)) + " " +
         std::to_string(spec.nodes) + " nodes " +
         std::string(to_string(spec.wiring)) + " " +
         std::to_string(spec.message_bytes) + " B " +
         std::string(to_string(spec.algo));
}

void expect_no_recovery(const RunSpec& spec) {
  SCOPED_TRACE(describe(spec));
  const RunResult r = run_one(spec);
  EXPECT_EQ(r.nic_totals.retransmissions, 0u);
  EXPECT_EQ(r.nic_totals.out_of_order_drops, 0u);
}

TEST(Lossless, GmMulticastNeverRetransmitsAtPacketBoundaries) {
  struct Fabric {
    std::size_t nodes;
    Wiring wiring;
  };
  const std::vector<Fabric> fabrics{{2, Wiring::kSingleSwitch},
                                    {16, Wiring::kSingleSwitch},
                                    {64, Wiring::kClos}};
  for (const Fabric& f : fabrics) {
    for (const std::size_t bytes : {4095, 4096, 4097, 4160, 8193, 16400}) {
      for (const Algo algo : {Algo::kNicBased, Algo::kHostBased}) {
        expect_no_recovery(lossless(Experiment::kGmMulticast, f.nodes,
                                    f.wiring, bytes, algo));
      }
    }
  }
}

TEST(Lossless, MpiBcastAndMultisendNeverRetransmitATailPacket) {
  expect_no_recovery(lossless(Experiment::kMpiBcast, 16,
                              Wiring::kSingleSwitch, 4097, Algo::kNicBased));
  RunSpec multisend = lossless(Experiment::kMultisend, 16,
                               Wiring::kSingleSwitch, 4097, Algo::kNicBased);
  multisend.destinations = 15;
  expect_no_recovery(multisend);
}

// perfbench's clos-scale multisend point at 1 shard (perfbench/workloads.cpp,
// clos_scale): 1,023 destinations on a radix-16 Clos, a seeded size just
// under 4 KB, 1 warm-up + 4 iterations.  Size and run seed are derived
// from the workload seed exactly as perfbench derives them.
RunSpec clos_scale_multisend(std::uint64_t workload_seed) {
  RunSpec spec = lossless(Experiment::kMultisend, 1024, Wiring::kClos, 0,
                          Algo::kNicBased);
  const std::size_t nominal = 4096;
  spec.message_bytes =
      nominal - derive_seed(workload_seed, 1'000'001) % (nominal / 64 + 1);
  spec.destinations = 1023;
  spec.switch_radix = 16;
  spec.warmup = 1;
  spec.iterations = 4;
  spec.seed = derive_seed(workload_seed, 1);
  return spec;
}

TEST(Lossless, MultisendToAThousandDestinationsNeverRetransmits) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("workload seed " + std::to_string(seed));
    expect_no_recovery(clos_scale_multisend(seed));
  }
}

TEST(Lossless, OneByteTailCostsAboutOnePacketNotATimeout) {
  const RunResult full = run_one(lossless(
      Experiment::kGmMulticast, 16, Wiring::kSingleSwitch, 4096,
      Algo::kNicBased));
  const RunResult tail = run_one(lossless(
      Experiment::kGmMulticast, 16, Wiring::kSingleSwitch, 4097,
      Algo::kNicBased));
  EXPECT_LE(tail.mean_us(), full.mean_us() * 1.10);
}

}  // namespace
}  // namespace nicmcast::harness
