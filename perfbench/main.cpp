// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--tiny]
//
// Runs one workload in this process: passes over the workload's specs,
// one spec at a time, until S seconds have passed (at least two passes, so
// every spec's event order is checked against a repeat).  With --trace 1
// every second pass records spans; the traced passes give the per-layer
// metrics and the Chrome trace file, the untraced ones the tracing
// overhead's baseline.  Prints a table of every metric, then, as the last
// line, one JSON object: correct, attempted, failed and the end-to-end
// (--trace 0) or per-layer (--trace 1) metrics.  Exits 1 when the
// correctness gate fails, 2 on a usage error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "harness/json.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

namespace json = nicmcast::harness::json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool tiny = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--tiny]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

json::Value metrics_json(const std::vector<perfbench::Metric>& metrics) {
  json::Value out = json::Value::object();
  for (const perfbench::Metric& m : metrics) {
    out[m.name]["value"] = m.value;
    out[m.name]["unit"] = m.unit;
  }
  return out;
}

void print_table(const char* title,
                 const std::vector<perfbench::Metric>& metrics) {
  std::printf("%s\n", title);
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-28s %18.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::vector<nicmcast::harness::RunSpec> specs;
  try {
    specs = perfbench::make_specs(args.workload, args.seed, args.tiny);
  } catch (const std::exception& e) {
    usage(e.what());
  }

  perfbench::SpanLog log;
  std::vector<perfbench::Pass> passes;
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  for (int pass = 0;; ++pass) {
    log.set_enabled(args.trace && pass % 2 == 1);
    passes.push_back(perfbench::run_pass(specs, log, pass));
    const double elapsed =
        std::chrono::duration<double>(perfbench::Clock::now() - start)
            .count();
    if (passes.size() >= 2 && elapsed >= args.seconds) break;
  }
  log.set_enabled(false);

  const perfbench::Summary summary = perfbench::summarize(
      specs, passes, log, perfbench::peak_rss_mb());

  std::printf("workload %s, seed %llu: %zu specs x %zu passes%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), specs.size(),
              passes.size(), args.trace ? " (odd passes traced)" : "");
  std::printf("  %-36s %10s %12s %8s\n", "spec (first pass)", "host_s",
              "sim_us", "retx");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const nicmcast::harness::RunResult& r = passes.front().results[i];
    std::printf("  %-36s %10.4f %12.2f %8llu\n", specs[i].label.c_str(),
                passes.front().specs[i].run_s, r.mean_us(),
                static_cast<unsigned long long>(r.nic_totals.retransmissions));
  }
  print_table("end-to-end (untraced passes; host times calibrated)",
              summary.end_to_end);
  if (args.trace) {
    print_table("per-layer (traced passes)", summary.per_layer);
  } else {
    print_table("raw host times (untraced passes)", summary.host_raw);
  }
  for (const std::string& problem : summary.problems) {
    std::printf("FAILED %s\n", problem.c_str());
  }
  if (args.trace && !args.trace_out.empty()) {
    const bool ok = perfbench::write_chrome_trace(
        args.trace_out, log.spans(),
        {{"workload", args.workload}, {"seed", std::to_string(args.seed)}});
    std::printf("trace: %s %s\n", ok ? "wrote" : "could not write",
                args.trace_out.c_str());
  }

  json::Value result = json::Value::object();
  result["correct"] = summary.correct();
  result["attempted"] = summary.attempted;
  result["failed"] = summary.failed;
  result["metrics"] =
      metrics_json(args.trace ? summary.per_layer : summary.end_to_end);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return summary.correct() ? 0 : 1;
}
