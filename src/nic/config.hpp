// NIC cost model.
//
// Calibrated against the paper's testbed: 133 MHz LANai 9.1 on a 66 MHz /
// 64-bit PCI bus (528 MB/s), GM-2.0 alpha1.  The two numbers that drive the
// headline results are the per-send-token processing time (saved by the
// NIC-based multisend) and the header-rewrite cost (the "small overhead...
// wide bars" of the paper's Figure 2b).  DESIGN.md §5 records the
// calibration targets.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace nicmcast::nic {

struct NicConfig {
  /// Host-side cost of constructing + posting one send event ("the host
  /// overhead over GM is less than 1us", paper §5).
  sim::Duration host_post_overhead = sim::usec(0.4);
  /// PIO latency for a host write to reach NIC memory.
  sim::Duration host_to_nic_delay = sim::usec(0.3);

  /// LANai: translate a send event into a send token and set up the DMA.
  /// This is the per-request processing the multisend amortises.
  sim::Duration send_token_processing = sim::usec(3.6);
  /// LANai: per-packet handling inside a multi-packet message.
  sim::Duration per_packet_processing = sim::usec(0.3);
  /// LANai: translate a posted receive descriptor into a receive token.
  sim::Duration recv_token_processing = sim::usec(0.2);
  /// LANai: rewrite a queued packet descriptor's header for the next
  /// destination (the GM-2 callback-handler path; paper §5 alternative 2).
  sim::Duration header_rewrite = sim::usec(0.3);
  /// LANai: set up forwarding of a received multicast packet — group-table
  /// lookup, receive-token transform into a send token, send-record
  /// creation (paper §5, "Messages Forwarding").
  sim::Duration forward_processing = sim::usec(5.0);
  /// LANai: per received packet — sequence check, token lookup.
  sim::Duration recv_packet_processing = sim::usec(1.2);
  /// LANai: generate or absorb an acknowledgment.
  sim::Duration ack_processing = sim::usec(0.4);
  /// NIC -> host receive-event DMA plus host wakeup/poll cost.
  sim::Duration event_delivery = sim::usec(0.7);

  /// Host <-> NIC DMA bandwidth (66 MHz x 64 bit PCI).
  double host_dma_mbps = 528.0;
  /// DMA engine startup cost per transfer.
  sim::Duration dma_startup = sim::usec(0.5);

  /// Largest GM packet payload (paper §6.1: "maximum packet size in GM is
  /// 4096 bytes").
  std::size_t max_packet_payload = 4096;

  /// Go-back-N retransmission timeout.  Real GM uses ~50ms+; a smaller
  /// value keeps simulated fault-recovery runs short without changing the
  /// protocol's behaviour.
  sim::Duration retransmit_timeout = sim::msec(1.0);
  /// Retransmissions per record before the NIC declares the peer dead and
  /// fails the operation back to the host.
  std::size_t max_retries = 30;

  /// Idle sender-connection reclaim: once a connection has had no
  /// outstanding send records for this long, the NIC runs a kCtrl
  /// close handshake with the peer and erases both endpoints' Go-back-N
  /// state (the maps would otherwise grow with every peer ever talked to).
  /// Duration{0} (the default) disables reclaim.
  sim::Duration conn_idle_timeout = sim::Duration{0};

  /// LANai lane-combine bandwidth for NIC-level reduction (extension;
  /// paper §7 / "NIC-Based Reduction in Myrinet Clusters").  The 133 MHz
  /// LANai loads, adds and stores each 8-byte lane — slow enough that NIC
  /// reduction only pays off for small vectors, exactly as that paper
  /// found.
  double nic_combine_mbps = 100.0;

  /// Send tokens per port (paper §5: drawing forwarding tokens from this
  /// finite pool is the rejected, deadlock-prone alternative).
  std::size_t send_tokens_per_port = 16;

  /// Shard this NIC lives on in a sharded (PDES) run; 0 in sequential
  /// runs.  Tagged into trace output so a per-shard timeline can be teased
  /// apart when debugging cross-shard scheduling.
  std::uint32_t shard = 0;

  /// Expected peer-connection population: how many distinct (port, peer,
  /// peer port) connections this NIC is likely to hold at once.  The
  /// sender/receiver Go-back-N tables pre-reserve to this at construction
  /// so steady-state traffic never rehashes mid-packet; growth past the
  /// hint still works and is counted in NicStats::map_growths.  0 skips
  /// the reservation (gm::Cluster defaults it to min(nodes, 64)).
  std::size_t expected_peers = 0;

  /// NIC SRAM packet-staging buffers.  Each accepted data packet occupies
  /// one until its RDMA (and, at intermediate nodes, its forwarding
  /// transmissions) complete.  The paper's §5 rationale for releasing at
  /// forward-completion: "the NIC receive buffer is a limited resource,
  /// and holding on to one or more receive buffers will slow down the
  /// receiver or even block the network."
  std::size_t nic_rx_buffers = 32;
};

}  // namespace nicmcast::nic
