#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "gm/cluster.hpp"
#include "harness/experiment_util.hpp"
#include "harness/parallel_runner.hpp"
#include "mcast/bcast.hpp"
#include "mcast/tree.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"

namespace perfbench {

namespace {

namespace harness = nicmcast::harness;
namespace net = nicmcast::net;
using harness::Algo;
using harness::Experiment;
using harness::RunResult;
using harness::RunSpec;

// The families the workloads run, each reported as harness.run_s.<family>.
constexpr Experiment kFamilies[] = {
    Experiment::kGmMulticast, Experiment::kMultisend, Experiment::kMpiBcast,
    Experiment::kSkewBcast, Experiment::kBarrier};

std::string_view run_span_name(Experiment e) {
  switch (e) {
    case Experiment::kGmMulticast: return "harness::run_one/gm_mcast";
    case Experiment::kMultisend: return "harness::run_one/multisend";
    case Experiment::kMpiBcast: return "harness::run_one/mpi_bcast";
    case Experiment::kSkewBcast: return "harness::run_one/skew_bcast";
    case Experiment::kBarrier: return "harness::run_one/barrier";
    case Experiment::kAllreduce: return "harness::run_one/allreduce";
    case Experiment::kCustom: break;
  }
  return "harness::run_one/custom";
}

SetupTimes time_setup(const RunSpec& spec, SpanLog& log, int id, int pass) {
  SetupTimes t;
  std::optional<net::Topology> topo;
  switch (harness::resolve_wiring(spec)) {
    case nicmcast::gm::ClusterConfig::Wiring::kSingleSwitch:
      t.topology_s = timed(log, "net::Topology::single_switch", "net", id,
                           pass, [&] {
                             topo.emplace(
                                 net::Topology::single_switch(spec.nodes));
                           });
      break;
    case nicmcast::gm::ClusterConfig::Wiring::kClos:
      t.topology_s = timed(log, "net::Topology::clos", "net", id, pass, [&] {
        topo.emplace(net::Topology::clos(spec.nodes, spec.switch_radix));
      });
      break;
    case nicmcast::gm::ClusterConfig::Wiring::kBackToBack:
      t.topology_s =
          timed(log, "net::Topology::back_to_back", "net", id, pass,
                [&] { topo.emplace(net::Topology::back_to_back()); });
      break;
  }

  const std::vector<net::NodeId> dests = harness::everyone_but(0, spec.nodes);
  nicmcast::mcast::Tree tree;
  if (spec.experiment == Experiment::kMultisend) {
    t.tree_s = timed(log, "mcast::build_flat_tree", "mcast", id, pass, [&] {
      tree = nicmcast::mcast::build_flat_tree(0, dests);
    });
  } else {
    t.tree_s = timed(log, "harness::build_tree", "mcast", id, pass,
                     [&] { tree = harness::build_tree(spec, dests); });
  }
  t.tree_depth = tree.depth();
  t.tree_max_fanout = tree.max_fanout();

  // The run's pairs: both directions of every tree edge (data flows down,
  // acknowledgments flow up).
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (const net::NodeId node : tree.nodes()) {
    if (const auto parent = tree.parent(node)) {
      pairs.emplace_back(*parent, node);
      pairs.emplace_back(node, *parent);
    }
  }
  net::RouteTable routes(*topo);
  t.route_s = timed(log, "net::RouteTable::route", "net", id, pass, [&] {
    for (const auto& [from, to] : pairs) (void)routes.route(from, to);
  });

  if (spec.shards > 1) {
    net::FabricPartition partition;
    t.partition_s = timed(log, "net::switch_cut", "net", id, pass, [&] {
      partition = net::switch_cut(*topo, spec.shards);
    });
  } else {
    std::optional<nicmcast::gm::Cluster> cluster;
    t.cluster_s = timed(log, "gm::Cluster", "gm", id, pass, [&] {
      cluster.emplace(harness::cluster_config(spec));
    });
    if (spec.experiment == Experiment::kGmMulticast &&
        spec.algo == Algo::kNicBased) {
      t.install_s = timed(log, "mcast::install_group", "mcast", id, pass, [&] {
        nicmcast::mcast::install_group(*cluster, tree, 1);
      });
    }
  }
  return t;
}

/// The calibration kernel: a discrete-event-loop stand-in with a fixed
/// amount of work.  A binary heap of 2048 timestamped events; each popped
/// event updates a slot of a 512 KB table and schedules a successor.
/// Returns its host seconds (1.0-1.5 ms on a 4-vCPU Intel Xeon VM).
double calibration_kernel() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  static std::vector<std::uint64_t> table(std::size_t{1} << 16, 1);
  static std::vector<Event> heap;
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  heap.clear();
  for (std::uint32_t id = 0; id < 2048; ++id) {
    heap.emplace_back(next() % 100000, id);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  for (int k = 0; k < 8000; ++k) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [time, id] = heap.back();
    heap.pop_back();
    std::uint64_t& slot = table[(next() ^ id) & (table.size() - 1)];
    slot = slot * 6364136223846793005ull + time;
    heap.emplace_back(time + 1 + next() % 5000, id);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Empty when the run's output is correct, else why not.
std::string check(const RunSpec& spec, const RunResult& r) {
  const double delivered = r.metric("delivered");
  if (!std::isnan(delivered) && delivered != 1.0) {
    return "payload not delivered bit-exact";
  }
  if (spec.experiment == Experiment::kSkewBcast) {
    if (!std::isfinite(r.metric("avg_bcast_cpu_us"))) {
      return "no MPI_Bcast CPU time reported";
    }
  } else if (r.latency_us.count() == 0 || !std::isfinite(r.mean_us())) {
    return "no latency samples";
  }
  if (r.engine.events_executed == 0) return "no events executed";
  return {};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

template <typename F>
double median_over(const std::vector<Pass>& passes, bool traced, F&& of) {
  std::vector<double> v;
  for (const Pass& p : passes) {
    if (p.traced == traced) v.push_back(of(p));
  }
  return median(std::move(v));
}

/// A typical pass: the sum over specs of each spec's median `of(outcome)`
/// across the traced (or untraced) passes.
template <typename F>
double typical_pass(const std::vector<Pass>& passes, bool traced, F&& of) {
  double sum = 0.0;
  for (std::size_t i = 0; i < passes.front().specs.size(); ++i) {
    std::vector<double> v;
    for (const Pass& p : passes) {
      if (p.traced == traced) v.push_back(of(p.specs[i], i));
    }
    sum += median(std::move(v));
  }
  return sum;
}

/// typical_pass of a host time, calibrated (see measure.hpp).
template <typename F>
double calibrated(const std::vector<Pass>& passes, bool traced, F&& of) {
  return typical_pass(passes, traced, [&](const Outcome& o, std::size_t i) {
    return of(o, i) * kCalibrationNominalS / o.calib_s;
  });
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double geo_mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

bool lossless(const RunSpec& s) {
  return s.loss_rate == 0.0 && s.corrupt_rate == 0.0;
}

/// The point a spec runs, without its shard count: the label before '@'.
std::string point_of(const RunSpec& s) {
  return s.label.substr(0, s.label.rfind('@'));
}

}  // namespace

Pass run_pass(const std::vector<RunSpec>& specs, SpanLog& log, int pass) {
  Pass out;
  out.traced = log.enabled();
  out.specs.reserve(specs.size());
  SpanLog::Scope pass_span(log, "pass", "bench", -1, pass);
  const Clock::time_point start = Clock::now();
  double before = calibration_kernel();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int id =
        pass * static_cast<int>(specs.size()) + static_cast<int>(i);
    Outcome o;
    RunResult result;
    {
      SpanLog::Scope spec_span(log, "spec", "bench", id, pass);
      try {
        o.setup = time_setup(specs[i], log, id, pass);
        o.run_s = timed(log, run_span_name(specs[i].experiment), "harness",
                        id, pass, [&] { result = harness::run_one(specs[i]); });
        o.error = check(specs[i], result);
      } catch (const std::exception& e) {
        o.error = std::string("threw: ") + e.what();
      }
    }
    const double after = calibration_kernel();
    o.calib_s = 0.5 * (before + after);
    before = after;
    o.order_hash = result.engine.event_order_hash;
    o.shard_hashes = result.engine.shard_order_hashes;
    out.specs.push_back(std::move(o));
    if (pass == 0) out.results.push_back(std::move(result));
  }
  out.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Summary summarize(const std::vector<RunSpec>& specs,
                  const std::vector<Pass>& passes, const SpanLog& log,
                  double rss_mb) {
  Summary s;
  const Pass& first = passes.front();

  // Correctness gate: every spec of every pass succeeded and reproduced
  // the first pass's event order (traced and untraced passes alike).
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Outcome& o = passes[p].specs[i];
      ++s.attempted;
      std::string why = o.error;
      if (why.empty() && p > 0 && first.specs[i].ok() &&
          (o.order_hash != first.specs[i].order_hash ||
           o.shard_hashes != first.specs[i].shard_hashes)) {
        why = "event order hash differs from pass 0";
      }
      if (!why.empty()) {
        ++s.failed;
        s.problems.push_back("pass " + std::to_string(p) + " " +
                             specs[i].label + ": " + why);
      }
    }
  }

  // Deterministic totals over one pass.
  harness::EngineCounters eng;
  nicmcast::nic::NicStats nic;
  harness::EngineCounters shard_eng;  // sharded specs only
  std::vector<double> mcast_us, bcast_us, bcast_cpu_us, applied_skew_us;
  double max_cpu_us = 0.0;
  std::uint64_t spurious_retx = 0;
  std::size_t tree_depth = 0, tree_fanout = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    const RunResult& r = first.results[i];
    const harness::EngineCounters& e = r.engine;
    eng.events_executed += e.events_executed;
    eng.events_cancelled += e.events_cancelled;
    eng.heap_actions += e.heap_actions;
    eng.wheel_cascades += e.wheel_cascades;
    eng.overflow_scheduled += e.overflow_scheduled;
    eng.wheel_occupancy_peak =
        std::max(eng.wheel_occupancy_peak, e.wheel_occupancy_peak);
    eng.routes_materialized += e.routes_materialized;
    eng.route_links_stored += e.route_links_stored;
    eng.route_links_shared += e.route_links_shared;
    eng.cross_links += e.cross_links;
    accumulate(nic, r.nic_totals);
    if (lossless(spec)) spurious_retx += r.nic_totals.retransmissions;
    if (spec.shards > 1) {
      shard_eng.events_executed += e.events_executed;
      shard_eng.lbts_rounds += e.lbts_rounds;
      shard_eng.cross_shard_msgs += e.cross_shard_msgs;
      shard_eng.horizon_stalls += e.horizon_stalls;
      shard_eng.channel_spills += e.channel_spills;
      shard_eng.blocked_waits += e.blocked_waits;
      shard_eng.null_msgs_sent += e.null_msgs_sent;
    }
    if (spec.experiment == Experiment::kGmMulticast) {
      tree_depth = std::max(tree_depth, first.specs[i].setup.tree_depth);
      tree_fanout =
          std::max(tree_fanout, first.specs[i].setup.tree_max_fanout);
    }
    // Simulated end-to-end values: NIC-based, classic engine only.
    if (spec.algo != Algo::kNicBased || spec.shards > 1) continue;
    switch (spec.experiment) {
      case Experiment::kGmMulticast: mcast_us.push_back(r.mean_us()); break;
      case Experiment::kMpiBcast: bcast_us.push_back(r.mean_us()); break;
      case Experiment::kSkewBcast:
        bcast_cpu_us.push_back(r.metric("avg_bcast_cpu_us", 0.0));
        max_cpu_us = std::max(max_cpu_us, r.metric("max_bcast_cpu_us", 0.0));
        if (spec.avg_skew_us > 0) {
          applied_skew_us.push_back(r.metric("avg_applied_skew_us", 0.0));
        }
        break;
      default: break;
    }
  }

  const auto run_s = [](const Outcome& o, std::size_t) { return o.run_s; };
  const auto setup_s = [](const Outcome& o, std::size_t) {
    return o.setup.total();
  };
  const double wall_s = calibrated(passes, false, run_s);
  const auto events = static_cast<double>(eng.events_executed);
  s.end_to_end = {
      {"wall_s", wall_s, "s"},
      {"setup_s", calibrated(passes, false, setup_s), "s"},
      {"events_per_s", ratio(events, wall_s), "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"sim_mcast_us", mean(mcast_us), "us"},
  };
  std::vector<double> kernel_s;
  for (const Pass& p : passes) {
    for (const Outcome& o : p.specs) {
      if (!p.traced) kernel_s.push_back(o.calib_s);
    }
  }
  s.host_raw = {
      {"host.raw_wall_s", typical_pass(passes, false, run_s), "s"},
      {"host.raw_setup_s", typical_pass(passes, false, setup_s), "s"},
      {"host.calibration_s", median(std::move(kernel_s)), "s"},
  };

  const bool traced = std::any_of(passes.begin(), passes.end(),
                                  [](const Pass& p) { return p.traced; });
  if (!traced) return s;

  // Same point on the classic engine vs the sharded engine.
  std::vector<double> speedups, latency_ratios;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    if (specs[j].shards <= 1) continue;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].shards != 1 || point_of(specs[i]) != point_of(specs[j])) {
        continue;
      }
      std::vector<double> wall1, wallN;
      for (const Pass& p : passes) {
        wall1.push_back(p.specs[i].run_s);
        wallN.push_back(p.specs[j].run_s);
      }
      speedups.push_back(ratio(median(wall1), median(wallN)));
      latency_ratios.push_back(
          ratio(first.results[j].mean_us(), first.results[i].mean_us()));
    }
  }

  const auto traced_setup = [&](auto field) {
    return calibrated(passes, true, [&](const Outcome& o, std::size_t) {
      return field(o.setup);
    });
  };
  // Whole-pass time, calibrated by the pass's mean kernel time.
  const auto elapsed = [](const Pass& p) {
    double calib = 0.0;
    for (const Outcome& o : p.specs) calib += o.calib_s;
    return p.elapsed_s * kCalibrationNominalS *
           static_cast<double>(p.specs.size()) / calib;
  };
  const double trace_overhead_s =
      median_over(passes, true, elapsed) - median_over(passes, false, elapsed);
  std::size_t traced_passes = 0;
  for (const Pass& p : passes) traced_passes += p.traced ? 1 : 0;
  const auto per_pass = [&](double x) {
    return x / static_cast<double>(traced_passes);
  };
  const std::map<std::string, double> self = self_time_by_layer(log.spans());
  const auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return per_pass(it == self.end() ? 0.0 : it->second);
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  std::vector<Metric>& m = s.per_layer;
  // sim
  m.push_back({"sim.events_executed", events, "count"});
  m.push_back({"sim.events_cancelled", count(eng.events_cancelled), "count"});
  m.push_back({"sim.heap_actions", count(eng.heap_actions), "count"});
  m.push_back({"sim.wheel_cascades", count(eng.wheel_cascades), "count"});
  m.push_back(
      {"sim.overflow_scheduled", count(eng.overflow_scheduled), "count"});
  m.push_back(
      {"sim.wheel_occupancy_peak", count(eng.wheel_occupancy_peak), "count"});
  m.push_back({"sim.host_ns_per_event", ratio(wall_s * 1e9, events), "ns"});
  // shard
  m.push_back({"shard.lbts_rounds", count(shard_eng.lbts_rounds), "count"});
  m.push_back({"shard.events_per_round",
               ratio(count(shard_eng.events_executed),
                     count(shard_eng.lbts_rounds)),
               "count"});
  m.push_back(
      {"shard.cross_shard_msgs", count(shard_eng.cross_shard_msgs), "count"});
  m.push_back(
      {"shard.horizon_stalls", count(shard_eng.horizon_stalls), "count"});
  m.push_back(
      {"shard.channel_spills", count(shard_eng.channel_spills), "count"});
  m.push_back({"shard.blocked_waits", count(shard_eng.blocked_waits), "count"});
  m.push_back(
      {"shard.null_msgs_sent", count(shard_eng.null_msgs_sent), "count"});
  m.push_back({"shard.speedup", geo_mean(speedups), "ratio"});
  m.push_back({"shard.latency_ratio", geo_mean(latency_ratios), "ratio"});
  // net
  m.push_back({"net.topology_s",
               traced_setup([](const SetupTimes& t) { return t.topology_s; }),
               "s"});
  m.push_back({"net.route_warm_s",
               traced_setup([](const SetupTimes& t) { return t.route_s; }),
               "s"});
  m.push_back({"net.partition_s",
               traced_setup([](const SetupTimes& t) { return t.partition_s; }),
               "s"});
  m.push_back(
      {"net.routes_materialized", count(eng.routes_materialized), "count"});
  m.push_back(
      {"net.route_links_stored", count(eng.route_links_stored), "count"});
  m.push_back(
      {"net.route_links_shared", count(eng.route_links_shared), "count"});
  m.push_back({"net.cross_links", count(eng.cross_links), "count"});
  // nic
  m.push_back({"nic.packets_sent", count(nic.packets_sent), "count"});
  m.push_back({"nic.forwards", count(nic.forwards), "count"});
  m.push_back({"nic.acks_sent", count(nic.acks_sent), "count"});
  m.push_back({"nic.retransmissions", count(nic.retransmissions), "count"});
  m.push_back({"nic.retx_ratio",
               ratio(count(nic.retransmissions), count(nic.packets_sent)),
               "ratio"});
  m.push_back({"nic.no_token_drops", count(nic.no_token_drops), "count"});
  m.push_back({"nic.crc_drops", count(nic.crc_drops), "count"});
  m.push_back(
      {"nic.out_of_order_drops", count(nic.out_of_order_drops), "count"});
  m.push_back({"nic.duplicate_drops", count(nic.duplicate_drops), "count"});
  m.push_back({"nic.ctrl_packets", count(nic.ctrl_packets), "count"});
  m.push_back({"nic.conn_resets", count(nic.conn_resets), "count"});
  m.push_back({"nic.descriptor_reuse_ratio",
               ratio(count(nic.descriptor_reuses),
                     count(nic.descriptor_reuses + nic.descriptor_allocs)),
               "ratio"});
  m.push_back(
      {"nic.payload_bytes_copied", count(nic.payload_bytes_copied), "bytes"});
  m.push_back({"nic.payload_refs", count(nic.payload_refs), "count"});
  m.push_back({"nic.map_growths", count(nic.map_growths), "count"});
  // gm, mcast
  m.push_back({"gm.cluster_build_s",
               traced_setup([](const SetupTimes& t) { return t.cluster_s; }),
               "s"});
  m.push_back({"mcast.tree_build_s",
               traced_setup([](const SetupTimes& t) { return t.tree_s; }),
               "s"});
  m.push_back({"mcast.group_install_s",
               traced_setup([](const SetupTimes& t) { return t.install_s; }),
               "s"});
  m.push_back({"mcast.tree_depth", count(tree_depth), "count"});
  m.push_back({"mcast.tree_max_fanout", count(tree_fanout), "count"});
  // mpi: simulated MPI values, NIC-based on the classic engine
  m.push_back({"sim_bcast_us", mean(bcast_us), "us"});
  m.push_back({"sim_bcast_cpu_us", mean(bcast_cpu_us), "us"});
  m.push_back({"mpi.max_bcast_cpu_us", max_cpu_us, "us"});
  m.push_back({"mpi.avg_applied_skew_us", mean(applied_skew_us), "us"});
  // harness
  for (const Experiment family : kFamilies) {
    const double t =
        calibrated(passes, true, [&](const Outcome& o, std::size_t i) {
          return specs[i].experiment == family ? o.run_s : 0.0;
        });
    m.push_back(
        {"harness.run_s." + std::string(to_string(family)), t, "s"});
  }
  m.push_back({"harness.ops", count(s.attempted), "count"});
  m.push_back({"harness.ops_failed", count(s.failed), "count"});
  m.push_back({"ops_failed_frac", ratio(count(s.failed), count(s.attempted)),
               "ratio"});
  m.push_back({"spurious_retx", count(spurious_retx), "count"});
  m.insert(m.end(), s.host_raw.begin(), s.host_raw.end());
  // the traced run itself
  m.push_back({"trace.overhead_s", trace_overhead_s, "s"});
  m.push_back({"trace.spans_per_pass",
               per_pass(static_cast<double>(log.spans().size())), "count"});
  for (const char* layer : {"bench", "harness", "net", "gm", "mcast"}) {
    m.push_back({"self_s." + std::string(layer), self_of(layer), "s"});
  }
  return s;
}

}  // namespace perfbench
