// Shared experiment plumbing: the paper's measurement methodology (warm-up
// iterations, averaged timed iterations, latency to the last destination)
// plus payload and tree helpers used by the stock runners, the benches and
// the CLI.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gm/cluster.hpp"
#include "harness/run_spec.hpp"
#include "mcast/postal_tree.hpp"
#include "mcast/tree.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace nicmcast::harness {

inline gm::Payload make_payload(std::size_t n, std::uint8_t salt = 0) {
  gm::Payload p(n);
  // i*131 mod 256 has period 256, so the pattern is one 256-byte block
  // repeated: compute the first period, then double it with memcpy —
  // soak workloads build and compare multi-KiB payloads in their inner
  // loop, where the per-byte multiply showed up in profiles.
  const std::size_t head = std::min<std::size_t>(n, 256);
  for (std::size_t i = 0; i < head; ++i) {
    p[i] = std::byte{static_cast<std::uint8_t>(i * 131u + salt)};
  }
  for (std::size_t filled = head; filled < n;) {
    const std::size_t copy = std::min(filled, n - filled);
    std::memcpy(p.data() + filled, p.data(), copy);
    filled += copy;
  }
  return p;
}

/// The payload iteration `iter` of a broadcast run sends,
/// make_payload(bytes, iter), shared by the root's send and every
/// receiver's check.  Only the current iteration's bytes are held; the
/// runners' per-iteration barrier keeps all nodes on one iteration, so each
/// is built once.  Use the reference before the caller next suspends.
class IterationPayload {
 public:
  explicit IterationPayload(std::size_t bytes) : bytes_(bytes) {}

  const gm::Payload& at(int iter) {
    if (iter != iter_) {
      payload_ = make_payload(bytes_, static_cast<std::uint8_t>(iter));
      iter_ = iter;
    }
    return payload_;
  }

 private:
  std::size_t bytes_;
  int iter_ = -1;
  gm::Payload payload_;
};

/// Whether two payloads hold the same bytes.  memcmp, because libstdc++'s
/// vector<std::byte>::operator== compares one byte at a time — a large
/// share of a 4096-endpoint multicast run, where every receiver checks.
[[nodiscard]] inline bool same_payload(const gm::Payload& a,
                                       const gm::Payload& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

inline std::vector<net::NodeId> everyone_but(net::NodeId root, std::size_t n) {
  std::vector<net::NodeId> v;
  // size_t index: a NodeId loop counter wraps (historically: infinite loop
  // at n == 65536 when NodeId was 16-bit) instead of terminating.
  for (std::size_t i = 0; i < n; ++i) {
    if (i != root) v.push_back(static_cast<net::NodeId>(i));
  }
  return v;
}

/// Zero-cost simulation-side barrier used to align iterations exactly
/// (the paper used warm-up rounds; determinism lets us do better).
class SimBarrier {
 public:
  explicit SimBarrier(std::size_t parties) : parties_(parties) {}
  sim::Task<void> arrive() {
    if (++count_ == parties_) {
      count_ = 0;
      gate_.release();
    } else {
      co_await gate_.wait();
    }
  }

 private:
  std::size_t parties_;
  std::size_t count_ = 0;
  sim::Gate gate_;
};

/// Standard message-size sweep used by the paper's figures.
inline std::vector<std::size_t> paper_sizes() {
  return {1, 4, 16, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};
}

/// Resolves Wiring::kAuto the way the benches always have: single switch up
/// to 16 nodes, radix-16 Clos above.
[[nodiscard]] gm::ClusterConfig::Wiring resolve_wiring(const RunSpec& spec);

/// Cluster configuration implied by a spec (nodes, wiring, NIC knobs, seed).
[[nodiscard]] gm::ClusterConfig cluster_config(const RunSpec& spec);

/// Builds the spanning tree a spec asks for, rooted at 0 over `dests`.
/// The postal shape is cost-modelled for the spec's message size and algo.
[[nodiscard]] mcast::Tree build_tree(const RunSpec& spec,
                                     const std::vector<net::NodeId>& dests);

}  // namespace nicmcast::harness
