#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/time.hpp"

namespace nicmcast::sim {
namespace {

constexpr Duration kLookahead = usec(1);

// A message chain that hops `remaining` times, each hop `stride` shards
// further round the ring (stride shard_count - 1 walks it backwards).
void hop(ShardedEngine& engine, std::size_t at, int remaining,
         std::size_t stride = 1);

constexpr TimePoint t_us(double us) { return TimePoint{0} + usec(us); }

TEST(ShardedEngine, RejectsDegenerateConfigs) {
  EXPECT_THROW(ShardedEngine(0, kLookahead), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, Duration{0}), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(2, Duration{-1}), std::invalid_argument);
}

TEST(ShardedEngine, SingleShardRunsLikeAPlainSimulator) {
  ShardedEngine engine(1, kLookahead);
  std::vector<int> order;
  engine.shard(0).schedule_at(t_us(5), [&] { order.push_back(2); });
  engine.shard(0).schedule_at(t_us(1), [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  // Identical schedule on a plain Simulator: same executed-order hash.
  Simulator seq;
  seq.schedule_at(t_us(5), [] {});
  seq.schedule_at(t_us(1), [] {});
  seq.run();
  EXPECT_EQ(engine.shard(0).event_order_hash(), seq.event_order_hash());
}

TEST(ShardedEngine, CrossShardDeliveryLandsAtRequestedTime) {
  ShardedEngine engine(2, kLookahead);
  TimePoint delivered{-1};
  engine.shard(0).schedule_at(t_us(2), [&] {
    engine.post(0, 1, engine.shard(0).now() + kLookahead, [&] {
      delivered = engine.shard(1).now();
    });
  });
  engine.run();
  EXPECT_EQ(delivered, TimePoint{0} + usec(3));
  EXPECT_EQ(engine.shard_stats(0).cross_shard_msgs_sent, 1u);
  EXPECT_EQ(engine.shard_stats(1).cross_shard_msgs_received, 1u);
  EXPECT_GE(engine.lbts_rounds(), 2u);
}

TEST(ShardedEngine, PostInsideLookaheadWindowThrows) {
  ShardedEngine engine(2, kLookahead);
  engine.shard(0).schedule_at(t_us(2), [&] {
    // 0.5us ahead < 1us lookahead: the conservative contract is violated.
    engine.post(0, 1, engine.shard(0).now() + usec(0.5), [] {});
  });
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(ShardedEngine, SameShardPostIgnoresLookahead) {
  ShardedEngine engine(2, kLookahead);
  bool ran = false;
  engine.shard(0).schedule_at(t_us(2), [&] {
    engine.post(0, 0, engine.shard(0).now(), [&] { ran = true; });
  });
  engine.run();
  EXPECT_TRUE(ran);
}

// The lookahead edge: an event scheduled EXACTLY at the safe horizon of a
// round must not run in that round — it waits for the next LBTS advance.
TEST(ShardedEngine, EventExactlyAtHorizonWaitsForNextRound) {
  ShardedEngine engine(2, kLookahead);
  // Shard 0's only event is at t=10us, so round 1 has LBTS=10us and
  // horizon=11us.  Shard 1 holds events at exactly 11us (the horizon — must
  // stall) and at 12us.
  std::vector<int> order;
  engine.shard(0).schedule_at(t_us(10), [&] { order.push_back(0); });
  engine.shard(1).schedule_at(t_us(11), [&] { order.push_back(1); });
  engine.shard(1).schedule_at(t_us(12), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Round 1: shard 1 ran nothing (11us >= horizon 11us) — a horizon stall.
  EXPECT_GE(engine.shard_stats(1).horizon_stalls, 1u);
  EXPECT_GE(engine.lbts_rounds(), 2u);
}

// Cross-shard in-flight cancel: shard 0 arms a local retransmit timer and
// sends a packet to shard 1; shard 1 acks back; the ack cancels the timer
// before it fires.  This is the ARQ shape the sharded fabric relies on.
TEST(ShardedEngine, CrossShardAckCancelsInFlightTimer) {
  ShardedEngine engine(2, kLookahead);
  bool timer_fired = false;
  bool acked = false;
  EventId timer{};
  engine.shard(0).schedule_at(t_us(1), [&] {
    Simulator& s0 = engine.shard(0);
    timer = s0.schedule_at(s0.now() + usec(100), [&] { timer_fired = true; });
    engine.post(0, 1, s0.now() + kLookahead, [&] {
      Simulator& s1 = engine.shard(1);
      engine.post(1, 0, s1.now() + kLookahead, [&] {
        acked = true;
        EXPECT_TRUE(engine.shard(0).cancel(timer));
      });
    });
  });
  engine.run();
  EXPECT_TRUE(acked);
  EXPECT_FALSE(timer_fired);
  EXPECT_EQ(engine.shard_stats(0).cross_shard_msgs_sent, 1u);
  EXPECT_EQ(engine.shard_stats(1).cross_shard_msgs_sent, 1u);
}

// A ping-pong storm across 4 shards, run twice: per-shard hash vectors and
// counters must be bit-identical — thread scheduling may not leak into the
// executed order.
TEST(ShardedEngine, RepeatableAcrossRunsWithFourShards) {
  auto run_once = [](std::vector<std::uint64_t>& hashes,
                     std::uint64_t& merged, std::uint64_t& rounds) {
    ShardedEngine engine(4, kLookahead);
    // Every shard seeds a chain that hops to the next shard 50 times.
    for (std::size_t s = 0; s < 4; ++s) {
      engine.shard(s).schedule_at(t_us(static_cast<double>(s + 1)),
                                  [&engine, s] { hop(engine, s, 50); });
    }
    engine.run();
    hashes = engine.shard_order_hashes();
    merged = engine.merged_order_hash();
    rounds = engine.lbts_rounds();
  };

  std::vector<std::uint64_t> h1, h2;
  std::uint64_t m1 = 0, m2 = 0, r1 = 0, r2 = 0;
  run_once(h1, m1, r1);
  run_once(h2, m2, r2);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(r1, r2);
  ASSERT_EQ(h1.size(), 4u);
}

TEST(ShardedEngine, ShardFailurePropagatesWithoutDeadlock) {
  ShardedEngine engine(4, kLookahead);
  engine.shard(2).schedule_at(t_us(5), [] {
    throw std::runtime_error("shard 2 exploded");
  });
  // The healthy shards hold far-future events, so without abort polling in
  // the spin loops they would wait forever on shard 2's round.
  for (std::size_t s = 0; s < 4; ++s) {
    if (s == 2) continue;
    engine.shard(s).schedule_at(t_us(1), [] {});
    engine.shard(s).schedule_at(t_us(1000), [] {});
  }
  EXPECT_THROW(engine.run(), std::runtime_error);
}

// Channel-spill path: more in-flight messages in one round than the ring
// holds.  The spill vector must preserve the deterministic merge.
TEST(ShardedEngine, RingOverflowSpillsDeterministically) {
  constexpr int kBurst = 3000;  // ring capacity is 1024
  auto run_once = [](std::uint64_t& spills) {
    ShardedEngine engine(2, kLookahead);
    engine.shard(0).schedule_at(t_us(1), [&engine] {
      Simulator& s0 = engine.shard(0);
      for (int i = 0; i < kBurst; ++i) {
        engine.post(0, 1, s0.now() + kLookahead + nsec(i), [] {});
      }
    });
    engine.run();
    spills = engine.shard_stats(0).channel_spills;
    EXPECT_EQ(engine.shard_stats(1).cross_shard_msgs_received,
              static_cast<std::uint64_t>(kBurst));
    return engine.shard_order_hashes();
  };
  std::uint64_t spills1 = 0, spills2 = 0;
  const auto h1 = run_once(spills1);
  const auto h2 = run_once(spills2);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(spills1, spills2);
  EXPECT_GE(spills1, static_cast<std::uint64_t>(kBurst) - 1024);
}

// Both shards overflow their rings toward each other across several
// waves, so a producer is pushing into its spill vector while the peer —
// the consumer of the opposite direction — drains its own.  Spills follow
// one locking discipline (spill_mu, NM_GUARDED_BY); under the TSan job
// this test is the regression net for that discipline, and the hash
// comparison keeps the merge deterministic besides.
TEST(ShardedEngine, BidirectionalSpillWavesStayDeterministic) {
  constexpr int kBurst = 3000;  // ring capacity is 1024
  constexpr int kWaves = 3;
  auto run_once = [] {
    ShardedEngine engine(2, kLookahead);
    for (std::size_t from = 0; from < 2; ++from) {
      const std::size_t to = 1 - from;
      for (int wave = 0; wave < kWaves; ++wave) {
        engine.shard(from).schedule_at(
            t_us(1 + wave), [&engine, from, to] {
              Simulator& s = engine.shard(from);
              for (int i = 0; i < kBurst; ++i) {
                engine.post(from, to, s.now() + kLookahead + nsec(i),
                            [] {});
              }
            });
      }
    }
    engine.run();
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(engine.shard_stats(r).cross_shard_msgs_received,
                static_cast<std::uint64_t>(kBurst) * kWaves);
      EXPECT_GT(engine.shard_stats(r).channel_spills, 0u);
    }
    return engine.shard_order_hashes();
  };
  EXPECT_EQ(run_once(), run_once());
}

void hop(ShardedEngine& engine, std::size_t at, int remaining,
         std::size_t stride) {
  if (remaining == 0) return;
  const std::size_t next = (at + stride) % engine.shard_count();
  engine.post(at, next, engine.shard(at).now() + kLookahead,
              [&engine, next, remaining, stride] {
                hop(engine, next, remaining - 1, stride);
              });
}

// More shards than hardware threads: every data-flow wait must yield so
// the peer it waits on gets a core.  Chains walk the ring both ways, so
// each shard produces into and consumes from both neighbours every few
// rounds.  Capped at 32 shards because the channel matrix holds n² rings.
TEST(ShardedEngine, OversubscribedShardsRepeatAndFailCleanly) {
  const std::size_t n = std::clamp<std::size_t>(
      2 * std::thread::hardware_concurrency(), 8, 32);
  auto seed_traffic = [n](ShardedEngine& engine) {
    for (std::size_t s = 0; s < n; ++s) {
      engine.shard(s).schedule_at(
          t_us(1.0 + 0.5 * static_cast<double>(s)), [&engine, s, n] {
            hop(engine, s, 30);
            hop(engine, s, 30, n - 1);
          });
    }
  };
  auto run_once = [&](std::uint64_t& rounds) {
    ShardedEngine engine(n, kLookahead);
    seed_traffic(engine);
    engine.run();
    rounds = engine.lbts_rounds();
    return engine.shard_order_hashes();
  };
  std::uint64_t r1 = 0, r2 = 0;
  const auto h1 = run_once(r1);
  const auto h2 = run_once(r2);
  ASSERT_EQ(h1.size(), n);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(r1, r2);

  // The same traffic with one shard throwing mid-run: the failure must
  // surface from run() while every peer is blocked on or behind it.
  ShardedEngine failing(n, kLookahead);
  seed_traffic(failing);
  failing.shard(n / 2).schedule_at(t_us(9), [] {
    throw std::runtime_error("oversubscribed shard exploded");
  });
  EXPECT_THROW(failing.run(), std::runtime_error);
}

// ---- Asynchronous (data-flow) round protocol ----
//
// No barrier orders the shards: each one waits only on its producers'
// completed-round clocks and on the single-slot reduce.

// Unequal load on an odd ring: chains of different lengths walk three
// shards backwards, so shards go idle at different rounds while peers
// still work.  Hash vectors and round counts must not depend on which
// shard reaches a wait first.
TEST(ShardedEngine, AsyncIsRepeatableAcrossRuns) {
  auto run_once = [](std::vector<std::uint64_t>& hashes,
                     std::uint64_t& rounds) {
    ShardedEngine engine(3, kLookahead);
    for (std::size_t s = 0; s < 3; ++s) {
      engine.shard(s).schedule_at(
          t_us(1.0 + 0.25 * static_cast<double>(s)), [&engine, s] {
            hop(engine, s, 20 * static_cast<int>(s + 1), 2);
          });
    }
    engine.run();
    hashes = engine.shard_order_hashes();
    rounds = engine.lbts_rounds();
  };
  std::vector<std::uint64_t> h1, h2;
  std::uint64_t r1 = 0, r2 = 0;
  run_once(h1, r1);
  run_once(h2, r2);
  ASSERT_EQ(h1.size(), 3u);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(r1, r2);
}

// A shard throws while cross traffic is in flight, so its peers are
// waiting on its channels and completed-round clock rather than idling on
// far-future events.  The abort must reach those waits too.
TEST(ShardedEngine, AsyncShardFailurePropagatesWithoutDeadlock) {
  ShardedEngine engine(4, kLookahead);
  for (std::size_t s = 0; s < 4; ++s) {
    engine.shard(s).schedule_at(t_us(static_cast<double>(s + 1)),
                                [&engine, s] { hop(engine, s, 100); });
  }
  engine.shard(1).schedule_at(t_us(20), [] {
    throw std::runtime_error("shard 1 exploded mid-traffic");
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

// One shard has no peers: no channels and nothing to wait on.  Even a
// self-post bypasses the rings, so the worker is a plain event loop.
TEST(ShardedEngine, AsyncSingleShardSendsNoNullMessages) {
  ShardedEngine engine(1, kLookahead);
  int ran = 0;
  engine.shard(0).schedule_at(t_us(1), [&] {
    engine.post(0, 0, engine.shard(0).now() + usec(2), [&] { ++ran; });
  });
  engine.run();
  EXPECT_EQ(ran, 1);
  const auto& stats = engine.shard_stats(0);
  EXPECT_EQ(stats.cross_shard_msgs_sent, 0u);
  EXPECT_EQ(stats.cross_shard_msgs_received, 0u);
  EXPECT_EQ(stats.channel_spills, 0u);
  EXPECT_EQ(stats.blocked_waits, 0u);
}

// ---- Batched per-shard horizons (opt-in) ----

// Safety under batching: every cross-shard message must still land in the
// receiver's future (Simulator::schedule_at throws on a time in the past),
// and the protocol outcome must match the unbatched schedule exactly.
// The staggered start times + reply traffic exercise the case that makes
// the naive "min over others + lookahead" horizon unsound: an almost-idle
// shard reacting to a post and sending back within the round.
TEST(ShardedEngine, BatchedHorizonsPreserveOutcomeWithFewerRounds) {
  auto run_once = [](bool batched, std::uint64_t& rounds,
                     std::uint64_t& replies) {
    ShardedEngine engine(4, kLookahead);
    engine.enable_batched_horizons(batched);
    std::uint64_t* count = &replies;
    // Shard 0 drives: a dense local event train (so its own horizon
    // matters) plus pings to every other shard; each target replies, and
    // the reply bumps the shared count on shard 0.
    for (int i = 0; i < 200; ++i) {
      engine.shard(0).schedule_at(t_us(1.0 + 0.25 * i), [] {});
    }
    for (std::size_t target = 1; target < 4; ++target) {
      const double at = 2.0 + 17.0 * static_cast<double>(target);
      engine.shard(0).schedule_at(t_us(at), [&engine, target, count] {
        Simulator& s0 = engine.shard(0);
        engine.post(0, target, s0.now() + kLookahead,
                    [&engine, target, count] {
                      Simulator& st = engine.shard(target);
                      engine.post(target, 0, st.now() + kLookahead,
                                  [count] { ++*count; });
                    });
      });
    }
    engine.run();
    rounds = engine.lbts_rounds();
  };

  std::uint64_t unbatched_rounds = 0, unbatched_replies = 0;
  std::uint64_t batched_rounds = 0, batched_replies = 0;
  run_once(false, unbatched_rounds, unbatched_replies);
  run_once(true, batched_rounds, batched_replies);
  EXPECT_EQ(batched_replies, unbatched_replies);
  EXPECT_EQ(batched_replies, 3u);
  // Batched horizons dominate the classic one, so rounds can only drop.
  EXPECT_LE(batched_rounds, unbatched_rounds);
  EXPECT_LT(batched_rounds, unbatched_rounds);  // and here they must
}

TEST(ShardedEngine, BatchedHorizonsAreRepeatable) {
  auto run_once = [](std::vector<std::uint64_t>& hashes,
                     std::uint64_t& rounds) {
    ShardedEngine engine(4, kLookahead);
    engine.enable_batched_horizons(true);
    for (std::size_t s = 0; s < 4; ++s) {
      engine.shard(s).schedule_at(t_us(static_cast<double>(s + 1)),
                                  [&engine, s] { hop(engine, s, 50); });
    }
    engine.run();
    hashes = engine.shard_order_hashes();
    rounds = engine.lbts_rounds();
  };
  std::vector<std::uint64_t> h1, h2;
  std::uint64_t r1 = 0, r2 = 0;
  run_once(h1, r1);
  run_once(h2, r2);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(r1, r2);
}

// The shape where batching pays most: one shard holds a long local event
// train while every other shard is idle.  Unbatched, the horizon advances
// one lookahead per round (one event when the train is spaced exactly at
// the lookahead); batched, only the min_all + 2*lookahead chain bound
// applies and each round covers two events — half the LBTS rounds.
TEST(ShardedEngine, BatchedHorizonsHalveRoundsOnALocalEventTrain) {
  constexpr int kTrain = 40;
  auto rounds_for = [](bool batched) {
    ShardedEngine engine(2, kLookahead);
    engine.enable_batched_horizons(batched);
    for (int i = 0; i < kTrain; ++i) {
      engine.shard(0).schedule_at(t_us(1.0 + static_cast<double>(i)), [] {});
    }
    engine.run();
    return engine.lbts_rounds();
  };
  const std::uint64_t unbatched = rounds_for(false);
  const std::uint64_t batched = rounds_for(true);
  EXPECT_EQ(unbatched, static_cast<std::uint64_t>(kTrain));
  EXPECT_LE(batched, unbatched / 2 + 1);
}

// ---- Per-channel lookahead ----

TEST(ShardedEngine, ChannelLookaheadValidation) {
  ShardedEngine engine(2, kLookahead);
  EXPECT_EQ(engine.channel_lookahead(0, 1), kLookahead);  // default: global
  // Must be positive, and never below the engine-wide floor (safe horizons
  // derive from the global minimum).
  EXPECT_THROW(engine.set_channel_lookahead(0, 1, Duration{0}),
               std::invalid_argument);
  EXPECT_THROW(engine.set_channel_lookahead(0, 1, Duration{-5}),
               std::invalid_argument);
  EXPECT_THROW(engine.set_channel_lookahead(0, 1, usec(0.5)),
               std::invalid_argument);
  // No self-channel, no out-of-range shards.
  EXPECT_THROW(engine.set_channel_lookahead(0, 0, kLookahead),
               std::out_of_range);
  EXPECT_THROW(engine.set_channel_lookahead(0, 2, kLookahead),
               std::out_of_range);
  EXPECT_THROW(engine.set_channel_lookahead(2, 1, kLookahead),
               std::out_of_range);
  engine.set_channel_lookahead(0, 1, usec(2));
  EXPECT_EQ(engine.channel_lookahead(0, 1), usec(2));
  EXPECT_EQ(engine.channel_lookahead(1, 0), kLookahead);  // untouched
}

// The post() guard enforces the CHANNEL'S lookahead: a 2us promise on the
// 0->1 channel rejects a post only 1us ahead even though the engine-wide
// floor would allow it.
TEST(ShardedEngine, PostGuardUsesChannelLookahead) {
  ShardedEngine engine(2, kLookahead);
  engine.set_channel_lookahead(0, 1, usec(2));
  engine.shard(0).schedule_at(t_us(2), [&] {
    engine.post(0, 1, engine.shard(0).now() + kLookahead, [] {});
  });
  EXPECT_THROW(engine.run(), std::logic_error);

  ShardedEngine ok(2, kLookahead);
  ok.set_channel_lookahead(0, 1, usec(2));
  TimePoint delivered{-1};
  ok.shard(0).schedule_at(t_us(2), [&] {
    ok.post(0, 1, ok.shard(0).now() + usec(2),
            [&] { delivered = ok.shard(1).now(); });
  });
  ok.run();
  EXPECT_EQ(delivered, TimePoint{0} + usec(4));
}

}  // namespace
}  // namespace nicmcast::sim
