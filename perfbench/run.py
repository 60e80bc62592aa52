#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Run from the repository root.  Every call configures and builds perfbench
(the simulator libraries plus perfbench, perfbench/CMakeLists.txt) into
.bench_build/perfbench; only the first call compiles everything.  The last
line of standard output is perfbench's JSON result; build output goes to
standard error.  With --trace 1 the Chrome trace-event file is written to
.bench_build/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170

# The benchmark's specification, written to BENCHMARK.json by --write-spec.
# Bounds are the share of the baseline median a metric may worsen by.  The
# host-time bounds are the largest allowed (0.25): calibrated host times
# still spread by up to 13% over ten runs on a shared 4-vCPU VM (README.md).
SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "paper-figs",
         "why": "the paper's 16-node testbed (Figs. 3-7, NIC barrier), "
                "lossless: the per-event NIC/GM/MPI hot path with trivial "
                "setup and no reliability traffic"},
        {"name": "lossy64",
         "why": "gm_mcast and mpi_bcast at 4/16 KB on a 64-endpoint Clos "
                "under uniform, burst, ack-targeted and blackout loss: the "
                "same layers through the recovery path"},
        {"name": "clos-scale",
         "why": "16 KB gm_mcast on 4,096 and multisend on 1,024 endpoints "
                "at 1 and N shards: setup, route memory and shard sync "
                "dominate"},
    ],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "events_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.1},
        {"name": "sim_mcast_us", "unit": "us", "better": "lower",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in [
            ("sim.events_executed", "count", "lower"),
            ("sim.events_cancelled", "count", "lower"),
            ("sim.heap_actions", "count", "lower"),
            ("sim.wheel_cascades", "count", "lower"),
            ("sim.overflow_scheduled", "count", "lower"),
            ("sim.wheel_occupancy_peak", "count", "lower"),
            ("sim.host_ns_per_event", "ns", "lower"),
            ("shard.lbts_rounds", "count", "lower"),
            ("shard.events_per_round", "count", "higher"),
            ("shard.cross_shard_msgs", "count", "lower"),
            ("shard.horizon_stalls", "count", "lower"),
            ("shard.channel_spills", "count", "lower"),
            ("shard.blocked_waits", "count", "lower"),
            ("shard.null_msgs_sent", "count", "lower"),
            ("shard.speedup", "ratio", "higher"),
            ("shard.latency_ratio", "ratio", "lower"),
            ("net.topology_s", "s", "lower"),
            ("net.route_warm_s", "s", "lower"),
            ("net.partition_s", "s", "lower"),
            ("net.routes_materialized", "count", "lower"),
            ("net.route_links_stored", "count", "lower"),
            ("net.route_links_shared", "count", "higher"),
            ("net.cross_links", "count", "lower"),
            ("nic.packets_sent", "count", "lower"),
            ("nic.forwards", "count", "lower"),
            ("nic.acks_sent", "count", "lower"),
            ("nic.retransmissions", "count", "lower"),
            ("nic.retx_ratio", "ratio", "lower"),
            ("nic.no_token_drops", "count", "lower"),
            ("nic.crc_drops", "count", "lower"),
            ("nic.out_of_order_drops", "count", "lower"),
            ("nic.duplicate_drops", "count", "lower"),
            ("nic.ctrl_packets", "count", "lower"),
            ("nic.conn_resets", "count", "lower"),
            ("nic.descriptor_reuse_ratio", "ratio", "higher"),
            ("nic.payload_bytes_copied", "bytes", "lower"),
            ("nic.payload_refs", "count", "higher"),
            ("nic.map_growths", "count", "lower"),
            ("gm.cluster_build_s", "s", "lower"),
            ("mcast.tree_build_s", "s", "lower"),
            ("mcast.group_install_s", "s", "lower"),
            ("mcast.tree_depth", "count", "lower"),
            ("mcast.tree_max_fanout", "count", "lower"),
            ("sim_bcast_us", "us", "lower"),
            ("sim_bcast_cpu_us", "us", "lower"),
            ("mpi.max_bcast_cpu_us", "us", "lower"),
            ("mpi.avg_applied_skew_us", "us", "lower"),
            ("harness.run_s.gm_mcast", "s", "lower"),
            ("harness.run_s.multisend", "s", "lower"),
            ("harness.run_s.mpi_bcast", "s", "lower"),
            ("harness.run_s.skew_bcast", "s", "lower"),
            ("harness.run_s.barrier", "s", "lower"),
            ("harness.ops", "count", "higher"),
            ("harness.ops_failed", "count", "lower"),
            ("ops_failed_frac", "ratio", "lower"),
            ("spurious_retx", "count", "lower"),
            ("host.raw_wall_s", "s", "lower"),
            ("host.raw_setup_s", "s", "lower"),
            ("host.calibration_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.spans_per_pass", "count", "lower"),
            ("self_s.bench", "s", "lower"),
            ("self_s.harness", "s", "lower"),
            ("self_s.net", "s", "lower"),
            ("self_s.gm", "s", "lower"),
            ("self_s.mcast", "s", "lower"),
        ]
    ],
}


def build():
    """Configures and builds perfbench (incrementally); exits 1 on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            sys.exit(1)


def write_spec():
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(SPEC, indent=2) + "\n")
    print("wrote %s" % path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workload (self-test)")
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_spec:
        write_spec()
        return 0
    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of: " + ", ".join(names))

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    if args.tiny:
        cmd.append("--tiny")
    try:
        # perfbench's own output passes straight through; its last line is
        # the JSON result.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
