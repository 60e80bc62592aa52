// Sharded conservative-synchronization PDES engine.
//
// N independent Simulators (one timing wheel, RNG stream, and clock each)
// advance in LBTS rounds on worker threads.  Rounds are 1-based; round r
// of every shard is:
//
//   1. drain   — take, from each inbound SPSC channel, exactly the
//                messages its producer posted during rounds < r; sort them
//                by (when, src_shard, send_seq) and schedule them locally.
//                The sort makes local seq assignment — and therefore each
//                shard's event_order_hash — independent of thread timing.
//   2. reduce  — publish the earliest pending event time m(r) and read
//                every peer's m(r); each shard folds the identical
//                m-vector into LBTS = min over shards and its safe horizon
//                (LBTS + lookahead).
//   3. execute — run every event strictly BEFORE the horizon
//                (Simulator::run_before).  Cross-shard sends made while
//                executing must carry `when >= sender_now + lookahead`,
//                which post() enforces; combined with events never running
//                before LBTS, every send lands at or past the horizon, so
//                no shard can receive an event in its own past.
//
// There are no barriers.  Every wait is a data-flow wait on the one peer
// it depends on:
//
//   * Every shard store-releases its completed-round clock after the last
//     push of each round.  Round r's drain of channel src → me waits for
//     src's clock to read r - 1; the acquire read then covers every
//     message of the batch.
//   * Every cross-shard message is stamped with the sender's round.
//     Stamps are monotone along a FIFO channel, so the drain stops at the
//     first message from round >= r: that one and everything behind it
//     belong to the next batch.
//   * The reduce is a per-shard atomic (round, value) slot: each shard
//     publishes m(r) and reads every peer's slot.  One slot suffices: a
//     peer reaches its round r+1 publish only after its round r+1 drain,
//     which waits on this shard's clock reaching r — stored only after
//     this shard consumed every m(r) in its own reduce.
//
// Liveness: take any shard S at the least round r.  Every peer is at round
// >= r, so every clock reads >= r - 1 and S's drain is certified.  Every
// peer at round r passed the same drain, so it publishes m(r); a peer past
// round r already did, and cannot have overwritten it (see above).  S
// therefore finishes round r in finitely many steps.  Termination is
// symmetric: every shard folds the same m-vector, so all observe
// LBTS = kNever in the same round and exit together; a shard failure
// trips an abort flag that every spin loop polls.
//
// Determinism: with shard count fixed, the executed (when, seq) order of
// every shard is a pure function of the initial events and seeds — the
// drain takes a stamp-defined batch and sorts it, which removes the only
// interleaving-dependent input.  Across different shard counts the
// per-shard hash vector changes (seq values are assigned per queue);
// goldens therefore pin one vector per shard count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/spsc_channel.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace nicmcast::sim {

class ShardedEngine {
 public:
  /// Sentinel "no pending work" LBTS contribution.
  static constexpr TimePoint kNever{std::numeric_limits<std::int64_t>::max()};

  /// Per-shard synchronization counters, reported through RunResult.
  struct ShardStats {
    std::uint64_t cross_shard_msgs_sent = 0;
    std::uint64_t cross_shard_msgs_received = 0;
    std::uint64_t horizon_stalls = 0;  // rounds this shard ran zero events
    std::uint64_t channel_spills = 0;  // sends that overflowed the ring
    std::uint64_t blocked_waits = 0;   // drain/reduce waits that spun
  };

  ShardedEngine(std::size_t shard_count, Duration lookahead,
                std::uint64_t base_seed = 0x9e3779b97f4a7c15ULL)
      : lookahead_(checked_lookahead(lookahead, "lookahead")) {
    if (shard_count == 0) {
      throw std::invalid_argument("ShardedEngine: shard_count must be >= 1");
    }
    shards_.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      // Distinct odd seeds per shard: each wheel owns an independent
      // deterministic RNG stream, as the determinism contract requires.
      shards_.push_back(std::make_unique<Shard>(
          base_seed + 0x2545f4914f6cdd1dULL * (i + 1)));
    }
    channels_.resize(shard_count * shard_count);
    for (std::size_t from = 0; from < shard_count; ++from) {
      for (std::size_t to = 0; to < shard_count; ++to) {
        if (from != to) {
          channels_[from * shard_count + to] =
              std::make_unique<Channel>(lookahead_);
        }
      }
    }
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }
  [[nodiscard]] Simulator& shard(std::size_t i) { return shards_.at(i)->sim; }

  /// Overrides the lookahead of the ordered channel from → to.  post()
  /// enforces it as the send window, so a pair of shards joined only by
  /// slow cut links can promise more than the fabric-wide floor.  It must
  /// be >= the engine's global lookahead: safe horizons are derived from
  /// the global minimum, and a smaller per-channel value would let a send
  /// land inside a peer's already-released horizon.  Call before run().
  void set_channel_lookahead(std::size_t from, std::size_t to, Duration la) {
    if (from >= shards_.size() || to >= shards_.size() || from == to) {
      throw std::out_of_range(
          "ShardedEngine::set_channel_lookahead: bad channel");
    }
    checked_lookahead(la, "channel lookahead");
    if (la < lookahead_) {
      throw std::invalid_argument(
          "ShardedEngine: channel lookahead below the engine-wide lookahead "
          "— safe horizons derive from the global minimum");
    }
    channels_[from * shards_.size() + to]->lookahead = la;
  }

  [[nodiscard]] Duration channel_lookahead(std::size_t from,
                                           std::size_t to) const {
    if (from >= shards_.size() || to >= shards_.size() || from == to) {
      throw std::out_of_range("ShardedEngine::channel_lookahead: bad channel");
    }
    return channels_[from * shards_.size() + to]->lookahead;
  }

  /// Schedules `action` on shard `to` at absolute time `when`.  Same-shard
  /// posts schedule directly; cross-shard posts must respect the channel's
  /// lookahead (when >= sender's now + lookahead; every channel lookahead
  /// is validated > 0 by checked_lookahead) and travel through the channel
  /// matrix.  May only be called from shard `from`'s worker thread while
  /// run() is executing that shard (or from any thread before run()).
  void post(std::size_t from, std::size_t to, TimePoint when,
            EventQueue::Action action) {
    if (from >= shards_.size() || to >= shards_.size()) {
      throw std::out_of_range("ShardedEngine::post: bad shard index");
    }
    if (from == to) {
      shards_[to]->sim.schedule_at(when, std::move(action));
      return;
    }
    Shard& sender = *shards_[from];
    Channel& ch = *channels_[from * shards_.size() + to];
    if (when < sender.sim.now() + ch.lookahead) {
      throw std::logic_error(
          "ShardedEngine::post: cross-shard send inside the lookahead "
          "window — the conservative horizon would be violated");
    }
    CrossMsg msg;
    msg.when = when;
    msg.seq = ch.send_seq++;
    msg.src = static_cast<std::uint32_t>(from);
    // The round stamp cuts the receiver's drain batches (0 before run()).
    msg.round = sender.round;
    msg.action = std::move(action);
    ++sender.stats.cross_shard_msgs_sent;
    // post() runs on shard `from`'s worker thread (the method contract
    // above), which is by construction the single producer of this channel.
    RoleGuard produce(ch.ring.producer_role());
    if (!ch.ring.try_push(std::move(msg))) {
      ++sender.stats.channel_spills;
      MutexLock lock(ch.spill_mu);
      ch.spill.push_back(std::move(msg));
    }
  }

  /// Runs every shard to completion.  Worker 0 executes on the calling
  /// thread; shards 1..N-1 get their own threads.  Rethrows the first
  /// shard failure (by shard order) after all workers have stopped.
  void run() {
    const std::size_t n = shards_.size();
    errors_.assign(n, nullptr);
    {
      std::vector<std::jthread> workers;
      workers.reserve(n - 1);
      for (std::size_t i = 1; i < n; ++i) {
        workers.emplace_back([this, i] { worker_loop(i); });
      }
      worker_loop(0);
    }  // jthreads join here
    for (std::size_t i = 0; i < n; ++i) {
      if (errors_[i]) std::rethrow_exception(errors_[i]);
    }
  }

  [[nodiscard]] std::uint64_t lbts_rounds() const { return lbts_rounds_; }

  [[nodiscard]] const ShardStats& shard_stats(std::size_t i) const {
    return shards_.at(i)->stats;
  }

  /// The per-shard determinism contract: each shard's executed-order hash,
  /// in shard order.  Goldens pin this vector per (scenario, shard count).
  [[nodiscard]] std::vector<std::uint64_t> shard_order_hashes() const {
    std::vector<std::uint64_t> hashes;
    hashes.reserve(shards_.size());
    for (const auto& s : shards_) {
      hashes.push_back(s->sim.event_order_hash());
    }
    return hashes;
  }

  /// FNV-1a fold of the per-shard hashes in shard order — one pinnable
  /// value for bench JSON, same construction as EventQueue::order_hash.
  [[nodiscard]] std::uint64_t merged_order_hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& s : shards_) {
      std::uint64_t v = s->sim.event_order_hash();
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (byte * 8)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  }

 private:
  /// The one lookahead guard (constructor, per-channel overrides): a
  /// non-positive lookahead collapses the safe horizon onto LBTS itself
  /// and conservative PDES cannot guarantee progress, so every lookahead
  /// the engine accepts passes through here before post() relies on it.
  static Duration checked_lookahead(Duration la, const char* what) {
    if (la <= Duration{0}) {
      throw std::invalid_argument(std::string("ShardedEngine: ") + what +
                                  " must be > 0");
    }
    return la;
  }

  struct CrossMsg {
    TimePoint when{0};
    std::uint64_t seq = 0;   // per-channel send counter: the merge tiebreak
    std::uint32_t src = 0;
    std::uint64_t round = 0;  // sender's round at post time: the drain batch
    EventQueue::Action action;
  };

  struct Channel {
    explicit Channel(Duration la) : lookahead(la) {}
    SpscChannel<CrossMsg> ring{1024};
    // Guards `spill`: a producer may overflow the ring while the consumer
    // drains, so the hand-off vector is mutex-protected (rare path).
    Mutex spill_mu;
    std::vector<CrossMsg> spill NM_GUARDED_BY(spill_mu);  // ring overflow
    // Producer-owned monotone counter; writing it requires the ring's
    // producer role, which pins it to the single pushing thread.
    std::uint64_t send_seq NM_GUARDED_BY(ring.producer_role()){0};
    Duration lookahead;  // per-channel send window
  };

  struct Shard {
    explicit Shard(std::uint64_t seed) : sim(seed) {}
    Simulator sim;
    ShardStats stats;
    // Owner-written: the round in progress, stamped onto outbound messages.
    std::uint64_t round = 0;
    // The producer's clock: the last round whose sends are all pushed,
    // store-released after the final push of that round.  Consumers
    // wait on it (acquire) before draining.
    std::atomic<std::uint64_t> completed{0};
    // Single-slot reduce publication: value stored relaxed, round released
    // after it, so an acquire of m_round >= r sees the round-r value.  One
    // slot suffices — see the header's overwrite argument.
    std::atomic<std::int64_t> m_value{0};
    std::atomic<std::uint64_t> m_round{0};
    alignas(64) char pad_[1]{};  // keep shard hot state off shared lines
  };

  /// One shard's round loop.  Each phase waits only on the peers it
  /// depends on: a channel drain on that channel's producer, the reduce on
  /// peers whose slot has not reached this round yet.
  void worker_loop(std::size_t me) {
    Shard& my = *shards_[me];
    const std::size_t n = shards_.size();
    std::vector<CrossMsg> pending;
    std::vector<TimePoint> mins(n);
    for (std::uint64_t round = 1;; ++round) {
      my.round = round;
      // ---- Phase 1: drain each channel once its producer finished ----
      pending.clear();
      bool ok = true;  // false once a wait saw the abort flag
      try {
        for (std::size_t src = 0; src < n && ok; ++src) {
          if (src != me) ok = drain_channel(src, me, round, pending);
        }
        if (ok) merge_and_schedule(me, pending);
      } catch (...) {
        fail(me);
      }
      if (!ok || abort_.load(std::memory_order_relaxed)) break;
      // ---- Phase 2: slot-publish m(round); read every peer's m(round) ----
      const TimePoint local_min =
          my.sim.pending_events() > 0 ? my.sim.next_event_time() : kNever;
      my.m_value.store(local_min.nanoseconds(), std::memory_order_relaxed);
      my.m_round.store(round, std::memory_order_release);
      for (std::size_t j = 0; j < n && ok; ++j) {
        if (j == me) {
          mins[j] = local_min;
          continue;
        }
        const Shard& peer = *shards_[j];
        ok = wait_until(peer.m_round, round, my);
        mins[j] = TimePoint{peer.m_value.load(std::memory_order_relaxed)};
      }
      if (!ok) break;
      // Every shard folds the same m-vector: all observe the all-idle
      // LBTS at the same round and exit together.
      const TimePoint lbts = *std::min_element(mins.begin(), mins.end());
      if (lbts == kNever) break;
      if (me == 0) ++lbts_rounds_;
      // ---- Phase 3: execute strictly below the safe horizon ----
      try {
        const std::size_t executed = my.sim.run_before(lbts + lookahead_);
        if (executed == 0 && my.sim.pending_events() > 0) {
          // This shard's earliest event sits exactly at or beyond the
          // horizon (the lookahead-edge case); it waits for the next round.
          ++my.stats.horizon_stalls;
        }
      } catch (...) {
        fail(me);
      }
      // Round complete: every send of this round is pushed.  Release the
      // clock before re-entering the drain — blocked receivers certify off
      // it.
      my.completed.store(round, std::memory_order_release);
      if (abort_.load(std::memory_order_relaxed)) break;
    }
  }

  /// Spins until `clock` reaches `at_least`.  Returns false only when the
  /// global abort flag tripped while waiting.  The acquire load pairs with
  /// the clock's release store, so everything the peer did before that
  /// store is visible on return.
  bool wait_until(const std::atomic<std::uint64_t>& clock,
                  std::uint64_t at_least, Shard& my) {
    if (clock.load(std::memory_order_acquire) >= at_least) return true;
    ++my.stats.blocked_waits;
    unsigned spins = 0;
    while (clock.load(std::memory_order_acquire) < at_least) {
      if (abort_.load(std::memory_order_relaxed)) return false;
      spin_relax(spins);
    }
    return true;
  }

  /// Drains every message the producer sent during rounds < `round` from
  /// channel src → me into `pending`.  Returns false only when the global
  /// abort flag tripped while waiting.  The batch is complete once the
  /// producer's completed-round clock reaches round - 1: it is released
  /// after the last push of that round.  Popping only after that point
  /// keeps what the producer finds in the ring — and so its spill count —
  /// independent of thread timing within a round.
  bool drain_channel(std::size_t src, std::size_t me, std::uint64_t round,
                     std::vector<CrossMsg>& pending) {
    const std::uint64_t want = round - 1;  // newest round in this batch
    if (!wait_until(shards_[src]->completed, want, *shards_[me])) return false;
    Channel& ch = *channels_[src * shards_.size() + me];
    // The drain runs on shard `me`'s worker — the channel's one consumer.
    RoleGuard consume(ch.ring.consumer_role());
    // Stamps are FIFO-monotone: the first newer-round message ends the
    // batch, and everything behind it belongs to the next drain.
    while (const CrossMsg* head = ch.ring.try_peek()) {
      if (head->round > want) break;
      CrossMsg msg;
      const bool popped = ch.ring.try_pop(msg);
      (void)popped;  // cannot fail: the consumer just peeked this slot
      pending.push_back(std::move(msg));
    }
    // Spilled messages: lift this batch's rounds out under the spill
    // mutex.  Newer-round spills (the producer ran ahead while its ring
    // was full) stay behind for the next drain.
    MutexLock lock(ch.spill_mu);
    auto keep = ch.spill.begin();
    for (auto it = ch.spill.begin(); it != ch.spill.end(); ++it) {
      if (it->round > want) {
        if (keep != it) *keep = std::move(*it);
        ++keep;
      } else {
        pending.push_back(std::move(*it));
      }
    }
    ch.spill.erase(keep, ch.spill.end());
    return true;
  }

  /// The deterministic merge: sort the drained batch by (when, src_shard,
  /// send_seq) and schedule, so local seq assignment never depends on
  /// thread timing.
  void merge_and_schedule(std::size_t me, std::vector<CrossMsg>& pending) {
    Shard& my = *shards_[me];
    std::sort(pending.begin(), pending.end(),
              [](const CrossMsg& a, const CrossMsg& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    my.stats.cross_shard_msgs_received += pending.size();
    for (CrossMsg& msg : pending) {
      my.sim.schedule_at(msg.when, std::move(msg.action));
    }
  }

  /// One spin-wait step: a pause-class hint while the wait is short, a
  /// scheduler yield once it is clearly not (with more shards than cores a
  /// pure busy spin would starve the peer being waited on).
  static void spin_relax(unsigned& spins) {
    if (++spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#else
      std::this_thread::yield();
#endif
    } else {
      spins = 0;
      std::this_thread::yield();
    }
  }

  /// Records the shard's failure and trips the abort flag; every spin loop
  /// polls the flag and unwinds.
  void fail(std::size_t me) {
    if (!errors_[me]) errors_[me] = std::current_exception();
    abort_.store(true, std::memory_order_relaxed);
  }

  Duration lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Channel>> channels_;  // [from * N + to]
  // Indexed by shard; each slot written only by its own worker (fail()),
  // read after the workers joined.
  std::vector<std::exception_ptr> errors_;
  // Monotone false→true flag.  All accesses relaxed: readers act on it
  // only to stop early, and the join at the end of run() provides the
  // ordering for everything written before the abort.
  std::atomic<bool> abort_{false};
  std::uint64_t lbts_rounds_ = 0;  // written by worker 0, read after join
};

}  // namespace nicmcast::sim
