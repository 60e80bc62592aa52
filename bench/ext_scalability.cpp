// Extension — scalability study (paper §7: the scheme "requires minimum
// memory and processor resources at the NIC, which promises good
// scalability"; GM "can support clusters of over 10,000 nodes").
//
// Two phases:
//  1. the latency sweep: GM-level multicast from 8 to 128 nodes on radix-16
//     Clos fabrics — NIC-based improvement factor, tree shapes, NIC barrier
//     vs host dissemination barrier;
//  2. the scale sweep: single NIC-based multicasts on 128 -> 512 -> 2048 ->
//     4096-node Clos fabrics at radix 16 and 32, timed sequentially, with
//     per-point events/sec, per-point peak RSS, and the engine's route /
//     timing-wheel counters in the JSON ("scale-<nodes>x<radix>" labels).
//     The 128/512 points are pinned (exact event_order_hash + events/sec
//     floor) by scripts/check_bench_regression.py --scale in CI, which caps
//     the sweep with --max-nodes to stay fast; the larger points document
//     wall clock and memory.  A full all-pairs route table at 4096 nodes
//     would hold 4096*4095 routes; the engine's routes_materialized counter
//     in the JSON shows that the closed-form RouteTable stores none.
//     --only LABEL runs just the sweep point with that label.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "harness/bench_io.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/run_spec.hpp"
#include "harness/runners.hpp"

namespace nicmcast::bench {
namespace {

using namespace nicmcast::harness;

/// Resets the kernel's peak-RSS mark (VmHWM) so the next peak_rss_kb()
/// reading covers one sweep point.  False where /proc/self/clear_refs is
/// missing or not writable.
bool reset_peak_rss() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
#else
  return false;
#endif
}

/// Peak RSS in KiB since the last successful reset_peak_rss() — `VmHWM`
/// from /proc/self/status — so each sweep point reports its own peak.
/// Without a reset (`reset` false) it falls back to getrusage's
/// ru_maxrss, the process-wide mark, which only ratchets up over a sweep.
/// 0 where neither source exists.
std::uint64_t peak_rss_kb(bool reset) {
#if defined(__linux__)
  if (reset) {
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
      char line[256];
      unsigned long long kb = 0;
      bool found = false;
      while (!found && std::fgets(line, sizeof line, f) != nullptr) {
        found = std::sscanf(line, "VmHWM: %llu kB", &kb) == 1;
      }
      std::fclose(f);
      if (found) return kb;
    }
  }
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::uint64_t>(usage.ru_maxrss);
  }
#else
  static_cast<void>(reset);
#endif
  return 0;
}

// Seven runs per node count; a hand-built spec list (not a cartesian grid).
constexpr std::size_t kRunsPerScale = 7;

std::vector<RunSpec> specs_for(std::size_t nodes, int iterations) {
  RunSpec mcast;
  mcast.experiment = Experiment::kGmMulticast;
  mcast.nodes = nodes;
  mcast.warmup = 2;
  mcast.iterations = iterations;

  std::vector<RunSpec> specs;
  for (auto [bytes, algo, tree] :
       {std::tuple{std::size_t{512}, Algo::kHostBased, TreeShape::kBinomial},
        std::tuple{std::size_t{512}, Algo::kNicBased, TreeShape::kPostal},
        std::tuple{std::size_t{16384}, Algo::kHostBased, TreeShape::kBinomial},
        std::tuple{std::size_t{16384}, Algo::kNicBased, TreeShape::kPostal},
        std::tuple{std::size_t{16384}, Algo::kNicBased, TreeShape::kChain}}) {
    RunSpec s = mcast;
    s.message_bytes = bytes;
    s.algo = algo;
    s.tree = tree;
    specs.push_back(std::move(s));
  }

  RunSpec barrier;
  barrier.experiment = Experiment::kBarrier;
  barrier.nodes = nodes;
  barrier.iterations = 10;
  barrier.algo = Algo::kHostBased;  // dissemination
  specs.push_back(barrier);
  barrier.algo = Algo::kNicBased;
  specs.push_back(barrier);
  return specs;
}

/// One scale-sweep point: a NIC-based multicast on an `nodes`-endpoint
/// radix-`radix` Clos, run sequentially so wall clock and RSS are its own.
RunResult run_scale_point(const BenchOptions& options, std::string label,
                          std::size_t nodes, std::size_t radix,
                          std::size_t index) {
  RunSpec spec;
  spec.experiment = Experiment::kGmMulticast;
  spec.label = std::move(label);
  spec.nodes = nodes;
  spec.wiring = Wiring::kClos;
  spec.switch_radix = radix;
  spec.message_bytes = 512;
  spec.algo = Algo::kNicBased;
  spec.tree = TreeShape::kPostal;
  spec.warmup = 1;
  spec.iterations = 2;
  spec.seed = derive_seed(options.base_seed, 1000 + index);

  const bool rss_reset = reset_peak_rss();
  // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
  const auto start = std::chrono::steady_clock::now();
  RunResult result = run_gm_mcast(spec);
  const double wall_s =
      // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto events = static_cast<double>(result.engine.events_executed);
  const double full_pairs =
      static_cast<double>(nodes) * static_cast<double>(nodes - 1);
  result.set_metric("events", events);
  result.set_metric("wall_ms", wall_s * 1e3);
  result.set_metric("events_per_sec", events / wall_s);
  result.set_metric("peak_rss_kb", static_cast<double>(peak_rss_kb(rss_reset)));
  result.set_metric("full_pairs", full_pairs);
  return result;
}

/// One sharded-sweep point.  shards == 1 goes through run_one and thus the
/// classic sequential engine — the bit-identical baseline the determinism
/// contract pins — while shards > 1 runs the conservative-PDES fabric.
RunResult run_sharded_point(const BenchOptions& options, std::string label,
                            std::size_t nodes, std::size_t radix,
                            std::size_t shards) {
  RunSpec spec;
  spec.experiment = Experiment::kGmMulticast;
  spec.label = std::move(label);
  spec.nodes = nodes;
  spec.wiring = Wiring::kClos;
  spec.switch_radix = radix;
  spec.message_bytes = 512;
  spec.algo = Algo::kNicBased;
  // Binomial, not postal: flat-array construction stays trivial at 65536
  // endpoints and both engines build the identical tree.
  spec.tree = TreeShape::kBinomial;
  spec.warmup = 1;
  spec.iterations = 2;
  spec.shards = shards;
  // Seeded per node count (not per point): every shard count of one fabric
  // answers for the same seeded scenario, which is what makes the
  // cross-shard-count invariance rows in BENCH_scale.json comparable.
  spec.seed = derive_seed(options.base_seed, 3000 + nodes);

  const bool rss_reset = reset_peak_rss();
  // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
  const auto start = std::chrono::steady_clock::now();
  RunResult result = run_one(spec);
  const double wall_s =
      // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto events = static_cast<double>(result.engine.events_executed);
  result.set_metric("events", events);
  result.set_metric("wall_ms", wall_s * 1e3);
  result.set_metric("events_per_sec", events / wall_s);
  result.set_metric("peak_rss_kb", static_cast<double>(peak_rss_kb(rss_reset)));
  result.set_metric("full_pairs",
                    static_cast<double>(nodes) *
                        static_cast<double>(nodes - 1));
  return result;
}

void run_sharded_sweep(const BenchOptions& options,
                       std::vector<RunResult>& results) {
  struct Point {
    std::size_t nodes;
    std::size_t shards;
  };
  // shards == 1 points are the classic-engine baselines.  65536 keeps no
  // classic baseline: it dates from the 16-bit NodeId days (the coroutine
  // stack topped out one node short), and re-baselining now would redate
  // every recorded comparison — the widened id is covered by the multisend
  // family sweep below instead.  The blocked_waits column is the
  // synchronization-stall report.
  const std::vector<Point> points{
      {512, 1},   {512, 4},  // CI-pinned pair
      {4096, 1},  {4096, 4},
      {16384, 1}, {16384, 2}, {16384, 4}, {16384, 8},
      {32768, 1}, {32768, 4},
      {65536, 2}, {65536, 4}, {65536, 8},
  };

  std::printf("\n%22s | %10s | %9s | %12s | %11s | %9s | %9s\n",
              "sharded point", "events", "wall ms", "events/s", "x-shard msg",
              "lbts rnds", "blk waits");
  std::size_t skipped = 0;
  for (const auto& [nodes, shards] : points) {
    if (options.max_nodes != 0 && nodes > options.max_nodes) {
      ++skipped;
      continue;
    }
    const std::size_t effective = options.shards_or(shards);
    std::string label = "pshard-" + std::to_string(nodes) + "x16-s" +
                        std::to_string(effective);
    if (!options.selected(label)) continue;
    RunResult r =
        run_sharded_point(options, std::move(label), nodes, 16, effective);
    std::printf(
        "%11zux16-s%-6zu | %10.0f | %9.1f | %12.0f | %11llu | %9llu | %9llu\n",
        nodes, effective, r.metric("events"), r.metric("wall_ms"),
        r.metric("events_per_sec"),
        static_cast<unsigned long long>(r.engine.cross_shard_msgs),
        static_cast<unsigned long long>(r.engine.lbts_rounds),
        static_cast<unsigned long long>(r.engine.blocked_waits));
    results.push_back(std::move(r));
  }
  if (skipped > 0) {
    std::printf("  (%zu points above --max-nodes %zu skipped)\n", skipped,
                options.max_nodes);
  }
}

/// One migrated-coroutine-family point: the paper's flat NIC-based
/// multisend (Fig. 3's star, no forwarding) on the sharded fabric.
/// shards == 1 dispatches to the classic gm::Cluster coroutine stack, the
/// bit-identical baseline.
RunResult run_multisend_point(const BenchOptions& options, std::string label,
                              std::size_t nodes, std::size_t radix,
                              std::size_t shards) {
  RunSpec spec;
  spec.experiment = Experiment::kMultisend;
  spec.label = std::move(label);
  spec.nodes = nodes;
  spec.destinations = nodes - 1;
  spec.wiring = Wiring::kClos;
  spec.switch_radix = radix;
  spec.message_bytes = 512;
  spec.algo = Algo::kNicBased;
  spec.warmup = 1;
  spec.iterations = 2;
  spec.shards = shards;
  // Seeded per node count, like the pshard points: every shard count of
  // one fabric answers for the same seeded scenario.
  spec.seed = derive_seed(options.base_seed, 5000 + nodes);

  const bool rss_reset = reset_peak_rss();
  // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
  const auto start = std::chrono::steady_clock::now();
  RunResult result = run_one(spec);
  const double wall_s =
      // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto events = static_cast<double>(result.engine.events_executed);
  result.set_metric("events", events);
  result.set_metric("wall_ms", wall_s * 1e3);
  result.set_metric("events_per_sec", events / wall_s);
  result.set_metric("peak_rss_kb", static_cast<double>(peak_rss_kb(rss_reset)));
  result.set_metric("full_pairs",
                    static_cast<double>(nodes) *
                        static_cast<double>(nodes - 1));
  return result;
}

void run_family_sweep(const BenchOptions& options,
                      std::vector<RunResult>& results) {
  struct Point {
    std::size_t nodes;
    std::size_t shards;
  };
  // The msend-512 s1/s4 pair is CI-pinned like the pshard pair.  16384 and
  // 65536 document the migrated family at fabric sizes the coroutine stack
  // reaches slowly (16384) or only since the 32-bit NodeId (65536).
  const std::vector<Point> points{
      {512, 1}, {512, 4},  // CI-pinned pair
      {16384, 1}, {16384, 4}, {65536, 4},
  };

  std::printf("\n%25s | %10s | %9s | %12s | %11s | %9s | %9s\n",
              "multisend point", "events", "wall ms", "events/s",
              "x-shard msg", "lbts rnds", "blk waits");
  std::size_t skipped = 0;
  for (const auto& [nodes, shards] : points) {
    if (options.max_nodes != 0 && nodes > options.max_nodes) {
      ++skipped;
      continue;
    }
    const std::size_t effective = options.shards_or(shards);
    std::string label = "msend-" + std::to_string(nodes) + "x16-s" +
                        std::to_string(effective);
    if (!options.selected(label)) continue;
    RunResult r =
        run_multisend_point(options, std::move(label), nodes, 16, effective);
    std::printf(
        "%12zux16-s%-10zu | %10.0f | %9.1f | %12.0f | %11llu | %9llu | %9llu\n",
        nodes, effective, r.metric("events"),
        r.metric("wall_ms"), r.metric("events_per_sec"),
        static_cast<unsigned long long>(r.engine.cross_shard_msgs),
        static_cast<unsigned long long>(r.engine.lbts_rounds),
        static_cast<unsigned long long>(r.engine.blocked_waits));
    results.push_back(std::move(r));
  }
  if (skipped > 0) {
    std::printf("  (%zu points above --max-nodes %zu skipped)\n", skipped,
                options.max_nodes);
  }
}

void run_scale_sweep(const BenchOptions& options,
                     std::vector<RunResult>& results) {
  struct Point {
    std::size_t nodes;
    std::size_t radix;
  };
  const std::vector<Point> points{{128, 16}, {128, 32}, {512, 16}, {512, 32},
                                  {2048, 16}, {2048, 32}, {4096, 16},
                                  {4096, 32}};

  std::printf("\n%12s | %10s | %9s | %12s | %12s | %11s\n", "scale point",
              "events", "wall ms", "events/s", "routes stored", "peak RSS");
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [nodes, radix] = points[i];
    if (options.max_nodes != 0 && nodes > options.max_nodes) {
      ++skipped;
      continue;
    }
    std::string label =
        "scale-" + std::to_string(nodes) + "x" + std::to_string(radix);
    if (!options.selected(label)) continue;
    RunResult r = run_scale_point(options, std::move(label), nodes, radix, i);
    std::printf("%8zux%-3zu | %10.0f | %9.1f | %12.0f | %6llu/%-6.0f | %8.0f KB\n",
                nodes, radix, r.metric("events"), r.metric("wall_ms"),
                r.metric("events_per_sec"),
                static_cast<unsigned long long>(r.engine.routes_materialized),
                r.metric("full_pairs"), r.metric("peak_rss_kb"));
    results.push_back(std::move(r));
  }
  if (skipped > 0) {
    std::printf("  (%zu points above --max-nodes %zu skipped)\n", skipped,
                options.max_nodes);
  }
}

/// The unlabelled latency table (phase 1).
std::vector<RunResult> run_latency_sweep(const BenchOptions& options) {
  print_header(
      "Extension — scalability sweep (Clos fabrics up to 128 nodes)",
      "Paper §7: minimal NIC state, no centralized manager => the benefit "
      "should grow with system size.");
  const std::vector<std::size_t> scales{8, 16, 32, 64, 128};
  const int iterations = options.iterations_or(10);

  std::vector<RunSpec> specs;
  for (std::size_t nodes : scales) {
    auto batch = specs_for(nodes, iterations);
    specs.insert(specs.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
  }
  auto results = ParallelRunner(runner_options(options)).run(specs);

  std::printf("%6s | %26s | %36s | %21s\n", "nodes",
              "512B mcast HB/NB/factor",
              "16KB mcast HB/NB-postal/NB-chain/best", "barrier host/NIC");
  for (std::size_t ni = 0; ni < scales.size(); ++ni) {
    const std::size_t at = ni * kRunsPerScale;
    const double hb_s = results[at + 0].mean_us();
    const double nb_s = results[at + 1].mean_us();
    const double hb_l = results[at + 2].mean_us();
    const double nb_postal = results[at + 3].mean_us();
    const double nb_chain = results[at + 4].mean_us();
    const double nb_best = std::min(nb_postal, nb_chain);
    const double bar_host = results[at + 5].metric("wall_us_per_round");
    const double bar_nic = results[at + 6].metric("wall_us_per_round");
    std::printf(
        "%6zu | %8.1f %7.1f %7.2fx | %8.1f %8.1f %8.1f %6.2fx | %8.1f %8.1f\n",
        scales[ni], hb_s, nb_s, hb_s / nb_s, hb_l, nb_postal, nb_chain,
        hb_l / nb_best, bar_host, bar_nic);
  }
  std::printf(
      "\nShape check: the small-message factor and the NIC barrier's edge\n"
      "persist at every scale.  For 16KB the fan-out-2 postal tree leaves\n"
      "no wire headroom (each hop emits twice its input rate), so Clos\n"
      "spine contention past 16 nodes saturates it; a fan-out-1 chain\n"
      "restores the win at 32 nodes, and past 64 nodes large-message NB\n"
      "needs topology-aware trees — construction the paper explicitly\n"
      "scopes out ('our intent is not to study the effects of hardware\n"
      "topology', §5).\n");
  return results;
}

void run(const BenchOptions& options) {
  // --only names one labelled sweep point; the latency table has none.
  std::vector<RunResult> results;
  if (options.only.empty()) results = run_latency_sweep(options);

  print_header(
      "Extension — scale sweep (128 -> 4096-node Clos, radix 16/32)",
      "Timing-wheel scheduler + closed-form routes: memory and events/sec "
      "at fabric sizes the eager all-pairs table could not reach.");
  run_scale_sweep(options, results);

  print_header(
      "Extension — sharded PDES sweep (512 -> 65536-node Clos, radix 16)",
      "Conservative synchronization at switch-cut granularity: s1 = the "
      "classic sequential engine, s>1 = the sharded fabric "
      "(DESIGN.md 4.5).");
  run_sharded_sweep(options, results);

  print_header(
      "Extension — migrated-family sharded sweep (flat multisend, 512 -> "
      "65536-node Clos)",
      "The coroutine experiment families on the conservative-PDES fabric "
      "(DESIGN.md 4.6): s1 = the gm::Cluster stack, s>1 = the sharded "
      "fabric.");
  run_family_sweep(options, results);

  write_bench_json("ext_scalability", options, results);
}

}  // namespace
}  // namespace nicmcast::bench

int main(int argc, char** argv) {
  nicmcast::bench::run(
      nicmcast::harness::parse_bench_options(argc, argv, "ext_scalability",
                                             /*label_filter=*/true));
  return 0;
}
