#include "sim/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace nicmcast::sim {
namespace {

constexpr std::int64_t kFineNs = std::int64_t{1} << TimingWheel::kFineShift;
constexpr std::int64_t kFineSpanNs =
    kFineNs * static_cast<std::int64_t>(TimingWheel::kFineSlots);
constexpr std::int64_t kCoarseSpanNs =
    kFineSpanNs * static_cast<std::int64_t>(TimingWheel::kCoarseSlots);

/// Drains the wheel and returns the popped (when, seq) order.
std::vector<WheelItem> drain(TimingWheel& wheel) {
  std::vector<WheelItem> out;
  while (wheel.size() > 0) {
    out.push_back(wheel.top());
    wheel.pop_top();
  }
  return out;
}

void expect_sorted(const std::vector<WheelItem>& items) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    const WheelItem& a = items[i - 1];
    const WheelItem& b = items[i];
    const bool ordered =
        a.when < b.when || (a.when == b.when && a.seq < b.seq);
    ASSERT_TRUE(ordered) << "items " << i - 1 << " and " << i
                         << " popped out of (when, seq) order";
  }
}

TEST(TimingWheel, SameTickFifoAcrossSlotWrap) {
  // Schedule several same-timestamp batches at fine indexes more than one
  // full wheel revolution apart: the masked slot is identical, so the FIFO
  // tie-break must come from (when, seq), not bucket residency.
  TimingWheel wheel;
  std::uint64_t seq = 0;
  std::vector<TimePoint> stamps;
  for (int wrap = 0; wrap < 3; ++wrap) {
    stamps.push_back(TimePoint{kFineNs * 5 + wrap * kFineSpanNs});
  }
  // Interleave insertion across the batches so arrival order differs from
  // pop order for the batch as a whole but matches within a timestamp.
  for (int i = 0; i < 4; ++i) {
    for (const TimePoint t : stamps) {
      wheel.push(WheelItem{t, seq++, 0});
    }
  }
  const std::vector<WheelItem> popped = drain(wheel);
  ASSERT_EQ(popped.size(), 12u);
  expect_sorted(popped);
  // Within each timestamp, seqs ascend in insertion order: 0,3,6,9 became
  // the first batch, etc.
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 4; ++i) {
      const WheelItem& item = popped[batch * 4 + i];
      EXPECT_EQ(item.when, stamps[batch]);
      EXPECT_EQ(item.seq, static_cast<std::uint64_t>(batch + i * 3));
    }
  }
}

TEST(TimingWheel, FarFutureBeyondCoarseHorizonUsesOverflow) {
  TimingWheel wheel;
  wheel.push(WheelItem{TimePoint{kCoarseSpanNs * 3 + 17}, 1, 0});
  EXPECT_EQ(wheel.overflow_scheduled(), 1u);
  EXPECT_EQ(wheel.overflow_promotions(), 0u);
  wheel.push(WheelItem{TimePoint{10}, 0, 0});
  EXPECT_EQ(wheel.overflow_scheduled(), 1u);  // near item is not overflow

  EXPECT_EQ(wheel.top().seq, 0u);
  wheel.pop_top();
  // Popping the far item forces the cursor jump + promotion.
  EXPECT_EQ(wheel.top().seq, 1u);
  EXPECT_EQ(wheel.overflow_promotions(), 1u);
  wheel.pop_top();
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimingWheel, CascadeAtCoarseRollover) {
  // Two items in the same coarse slot but different fine slots must come
  // back in time order after the cascade redistributes them.
  TimingWheel wheel;
  const std::int64_t base = kFineSpanNs * 7;  // coarse slot 7
  wheel.push(WheelItem{TimePoint{base + kFineNs * 100}, 2, 0});
  wheel.push(WheelItem{TimePoint{base + kFineNs * 3}, 1, 0});
  wheel.push(WheelItem{TimePoint{kFineNs}, 0, 0});  // keeps cursor near 0

  EXPECT_EQ(wheel.top().seq, 0u);
  wheel.pop_top();
  EXPECT_EQ(wheel.cascades(), 0u);
  EXPECT_EQ(wheel.top().seq, 1u);
  EXPECT_EQ(wheel.cascades(), 1u);  // coarse slot 7 redistributed
  wheel.pop_top();
  EXPECT_EQ(wheel.top().seq, 2u);
  EXPECT_EQ(wheel.cascades(), 1u);  // same coarse bucket, no second cascade
  wheel.pop_top();
}

TEST(TimingWheel, ScheduleBehindCursorStaysOrdered) {
  // The raw wheel permits scheduling at-or-behind the cursor (the queue's
  // tests do); such items must still compete by (when, seq).
  TimingWheel wheel;
  wheel.push(WheelItem{TimePoint{kFineSpanNs * 2}, 0, 0});
  EXPECT_EQ(wheel.top().seq, 0u);  // cursor advanced to the item
  wheel.push(WheelItem{TimePoint{5}, 1, 0});
  EXPECT_EQ(wheel.top().seq, 1u);  // the past item pops first
  wheel.pop_top();
  EXPECT_EQ(wheel.top().seq, 0u);
  wheel.pop_top();
}

TEST(TimingWheel, RandomizedMatchesSortedReference) {
  // Mixed horizons (fine, coarse, overflow) with interleaved pops: the pop
  // sequence must equal the (when, seq)-sorted reference.
  std::mt19937_64 rng(12345);
  TimingWheel wheel;
  std::vector<WheelItem> reference;
  std::vector<WheelItem> popped;
  std::uint64_t seq = 0;
  std::int64_t low_bound = 0;  // pops only move forward in time

  for (int round = 0; round < 2000; ++round) {
    const int burst = static_cast<int>(rng() % 4);
    for (int i = 0; i < burst; ++i) {
      std::int64_t when = 0;
      switch (rng() % 4) {
        case 0: when = low_bound + static_cast<std::int64_t>(rng() % 512); break;
        case 1: when = low_bound + static_cast<std::int64_t>(rng() % kFineSpanNs); break;
        case 2: when = low_bound + static_cast<std::int64_t>(rng() % kCoarseSpanNs); break;
        default: when = low_bound + kCoarseSpanNs + static_cast<std::int64_t>(rng() % (4 * kCoarseSpanNs)); break;
      }
      const WheelItem item{TimePoint{when}, seq++, 0};
      wheel.push(item);
      reference.push_back(item);
    }
    if (wheel.size() > 0 && rng() % 2 == 0) {
      const WheelItem item = wheel.top();
      wheel.pop_top();
      low_bound = item.when.nanoseconds();
      popped.push_back(item);
    }
  }
  while (wheel.size() > 0) {
    popped.push_back(wheel.top());
    wheel.pop_top();
  }

  ASSERT_EQ(popped.size(), reference.size());
  expect_sorted(popped);
  std::sort(reference.begin(), reference.end(),
            [](const WheelItem& a, const WheelItem& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.seq < b.seq;
            });
  for (std::size_t i = 0; i < popped.size(); ++i) {
    ASSERT_EQ(popped[i].when, reference[i].when) << "index " << i;
    ASSERT_EQ(popped[i].seq, reference[i].seq) << "index " << i;
  }
}

TEST(TimingWheel, SameTickPushStormMatchesSortedReference) {
  // Simulator::spawn of thousands of programs schedules each at the current
  // tick with the newest seq.  Such a push lands at the back of the ready
  // run; a few items later in the same 64 ns slot sit behind it, and pops
  // interleave.  The pop order must still be exactly (when, seq).
  TimingWheel wheel;
  std::vector<WheelItem> reference;
  std::vector<WheelItem> popped;
  std::uint64_t seq = 0;
  const auto push = [&](std::int64_t when) {
    const WheelItem item{TimePoint{when}, seq++, 0};
    wheel.push(item);
    reference.push_back(item);
  };
  const std::int64_t now = kFineNs * 10 + 3;
  push(now);
  ASSERT_EQ(wheel.top().when, TimePoint{now});  // cursor now on this slot
  push(now + 40);
  push(now + 20);
  for (int i = 0; i < 100'000; ++i) {
    push(now);
    if (i % 10'000 == 0) push(now + 1 + i / 10'000);  // later, same slot
    if (i % 4 == 0) {
      popped.push_back(wheel.top());
      wheel.pop_top();
    }
  }
  push(now + kFineNs);  // the next slot
  while (wheel.size() > 0) {
    popped.push_back(wheel.top());
    wheel.pop_top();
  }

  ASSERT_EQ(popped.size(), reference.size());
  std::sort(reference.begin(), reference.end(),
            [](const WheelItem& a, const WheelItem& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.seq < b.seq;
            });
  for (std::size_t i = 0; i < popped.size(); ++i) {
    ASSERT_EQ(popped[i].when, reference[i].when) << "index " << i;
    ASSERT_EQ(popped[i].seq, reference[i].seq) << "index " << i;
  }
}

// ---- Cancellation through the owning EventQueue ---------------------------
//
// The wheel itself never cancels; the queue skips stale items on pop.  The
// interesting split is where the stale item lives: a fine/coarse bucket vs
// the overflow heap.

TEST(TimingWheelCancel, CancelInWheelVsCancelInOverflow) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{100}, [&] { order.push_back(0); });
  const EventId in_wheel =
      q.schedule(TimePoint{kFineNs * 10}, [&] { order.push_back(-1); });
  const EventId in_overflow = q.schedule(TimePoint{kCoarseSpanNs * 2 + 50},
                                         [&] { order.push_back(-2); });
  q.schedule(TimePoint{kCoarseSpanNs * 2 + 50}, [&] { order.push_back(1); });

  EXPECT_TRUE(q.cancel(in_wheel));
  EXPECT_TRUE(q.cancel(in_overflow));
  EXPECT_FALSE(q.cancel(in_wheel));  // already cancelled
  EXPECT_EQ(q.size(), 2u);

  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.stats().cancelled, 2u);
}

// ---- Same-tick batch extraction -------------------------------------------
//
// pop_top_or_run / pop_run feed the simulator's batched dispatch; the
// contract is that a batch drain produces exactly the (when, seq) sequence
// N pop_top() calls would have, including across fine-slot wraps and with
// cancellations landing mid-batch.

TEST(TimingWheelBatch, SingleItemAvoidsRunExtraction) {
  TimingWheel wheel;
  wheel.push(WheelItem{TimePoint{kFineNs * 3}, 7, 0});
  WheelItem single{};
  std::vector<WheelItem> run;
  EXPECT_EQ(wheel.pop_top_or_run(single, run), 1u);
  EXPECT_TRUE(run.empty());
  EXPECT_EQ(single.seq, 7u);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimingWheelBatch, RunExtractionAcrossSlotWrap) {
  // Two timestamps a full fine-wheel revolution apart share a masked slot.
  // The earlier tick's run must come out complete and seq-ascending without
  // dragging the later tick's items along.
  TimingWheel wheel;
  const TimePoint near{kFineNs * 5};
  const TimePoint far{kFineNs * 5 + kFineSpanNs};
  std::uint64_t seq = 0;
  for (int i = 0; i < 9; ++i) {  // interleave: near, far, near, far, ...
    wheel.push(WheelItem{(i % 2 == 0) ? near : far, seq++, 0});
  }
  WheelItem single{};
  std::vector<WheelItem> run;
  const std::size_t n = wheel.pop_top_or_run(single, run);
  ASSERT_EQ(n, 5u);  // the five `near` items: seqs 0,2,4,6,8
  ASSERT_EQ(run.size(), 5u);
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run[i].when, near);
    EXPECT_EQ(run[i].seq, i * 2);
  }
  EXPECT_EQ(wheel.size(), 4u);
  run.clear();
  EXPECT_EQ(wheel.pop_top_or_run(single, run), 4u);
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run[i].when, far);
    EXPECT_EQ(run[i].seq, i * 2 + 1);
  }
}

TEST(TimingWheelBatch, LongRunMatchesPopTopOrder) {
  // Past the 4-item peel threshold pop_run switches to partition +
  // re-heapify; the order must still equal a pop_top drain.
  std::mt19937_64 rng(99);
  TimingWheel batched;
  TimingWheel unbatched;
  std::uint64_t seq = 0;
  for (int round = 0; round < 64; ++round) {
    const TimePoint when{static_cast<std::int64_t>(rng() % 8) * kFineNs};
    const int burst = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < burst; ++i) {
      const WheelItem item{when, seq++, 0};
      batched.push(item);
      unbatched.push(item);
    }
  }
  std::vector<WheelItem> got;
  WheelItem single{};
  while (batched.size() > 0) {
    std::vector<WheelItem> run;
    if (batched.pop_top_or_run(single, run) == 1 && run.empty()) {
      got.push_back(single);
    } else {
      got.insert(got.end(), run.begin(), run.end());
    }
  }
  const std::vector<WheelItem> want = drain(unbatched);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].when, want[i].when) << "index " << i;
    ASSERT_EQ(got[i].seq, want[i].seq) << "index " << i;
  }
}

TEST(TimingWheelBatch, CancelInsideBatchIsHonoured) {
  // Three same-tick events; the first cancels the third while the batch is
  // already extracted.  take() must refuse the cancelled member, and the
  // executed count / order hash must match what the unbatched path yields
  // for the identical schedule-then-cancel history.
  auto run_history = [](bool batched) {
    EventQueue q;
    std::vector<int> order;
    EventId third{};
    q.schedule(TimePoint{100}, [&] {
      order.push_back(0);
      q.cancel(third);
    });
    q.schedule(TimePoint{100}, [&] { order.push_back(1); });
    third = q.schedule(TimePoint{100}, [&] { order.push_back(2); });
    q.schedule(TimePoint{200}, [&] { order.push_back(3); });

    if (batched) {
      while (!q.empty()) {
        std::vector<WheelItem> batch;
        TimePoint when{};
        EventQueue::Action action;
        const std::size_t n = q.pop_tick(batch, when, action);
        if (batch.empty()) {
          EXPECT_EQ(n, 1u);
          action();
        } else {
          for (const WheelItem& item : batch) {
            EventQueue::Action a;
            if (q.take(item, a)) a();
          }
        }
      }
    } else {
      while (!q.empty()) q.pop().second();
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
    EXPECT_EQ(q.stats().cancelled, 1u);
    EXPECT_EQ(q.stats().executed, 3u);
    return q.order_hash();
  };
  const std::uint64_t batched_hash = run_history(true);
  const std::uint64_t unbatched_hash = run_history(false);
  EXPECT_EQ(batched_hash, unbatched_hash);
}

TEST(TimingWheelBatch, ScheduleIntoOwnTickJoinsTheBatchEitherWay) {
  // An event scheduling a same-timestamp successor while its tick executes:
  // Simulator::run()'s batched dispatch runs the successor in this tick,
  // exactly as a per-event EventQueue::pop() replay of the same history.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint{50}, [&] {
    order.push_back(0);
    sim.schedule_at(TimePoint{50}, [&] { order.push_back(2); });
  });
  sim.schedule_at(TimePoint{50}, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

  EventQueue q;
  std::vector<int> replay;
  q.schedule(TimePoint{50}, [&] {
    replay.push_back(0);
    q.schedule(TimePoint{50}, [&] { replay.push_back(2); });
  });
  q.schedule(TimePoint{50}, [&] { replay.push_back(1); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(replay, order);
  EXPECT_EQ(q.order_hash(), sim.event_order_hash());
}

TEST(TimingWheelCancel, StatsSurfaceWheelBehaviour) {
  EventQueue q;
  for (int i = 0; i < 8; ++i) {
    q.schedule(TimePoint{kCoarseSpanNs * 3 + i}, [] {});
  }
  q.schedule(TimePoint{10}, [] {});
  EXPECT_EQ(q.stats().overflow_scheduled, 8u);
  EXPECT_EQ(q.stats().wheel_occupancy_peak, 9u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(q.stats().overflow_promotions, 8u);
  EXPECT_EQ(q.stats().executed, 9u);
}

}  // namespace
}  // namespace nicmcast::sim
