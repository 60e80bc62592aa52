// Two-level hierarchical timing wheel for the pending-event set.
//
// The event queue's ordering key is the pair (time, sequence number) — the
// determinism contract every BENCH_*.json trajectory and golden test pins.
// A binary heap pays O(log n) per schedule/pop against that key; the wheel
// pays O(1) on the hot tick path by bucketing events by time and only
// heap-ordering the handful that share the slot currently being drained:
//
//   - fine wheel:   1024 slots of 64 ns — link/DMA/processing events land
//                   here (the engine's cost model is all sub-microsecond to
//                   a-few-microsecond steps), giving a ~65 us horizon;
//   - coarse wheel: 1024 slots of one fine-span (~65 us) each — retransmit
//                   and idle-close timers (milliseconds) land here and are
//                   cascaded into the fine wheel when the cursor crosses
//                   their coarse slot, a ~67 ms horizon;
//   - overflow heap: a (when, seq) min-heap for anything beyond the coarse
//                   horizon, promoted into the wheels as the cursor
//                   approaches (promotions are counted — see stats).
//
// Tie-break preservation: the slot width never splits the ordering.  Every
// bucket is drained into the ready run — `ready_[head_..]`, kept sorted
// ascending by (when, seq) — before anything is popped from it, and the run
// only ever holds items whose fine index is <= the cursor while all
// wheel/overflow items are strictly beyond it, so `ready_[head_]` is always
// the global (when, seq) minimum.  Pop order is therefore bit-identical to
// the old binary heap's, while a pop is a comparison-free head advance and
// a same-timestamp run sits contiguous at the head in seq order.
//
// The cursor only moves over slots verified empty (or drained), and items
// scheduled at-or-behind the cursor (the raw queue allows scheduling into
// the past; Simulator forbids it but unit tests exercise it) are pushed
// straight into `ready_`, where they compete correctly.  That makes top()
// safe to call from next_time(): advancing over empty slots discards
// nothing and never reorders anything.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace nicmcast::sim {

/// A pending-event reference: the ordering key plus the owner's pool-slot
/// index.  The wheel orders strictly by (when, seq) and never reads `slot`.
struct WheelItem {
  TimePoint when;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

class TimingWheel {
 public:
  static constexpr unsigned kFineShift = 6;      // 64 ns per fine slot
  static constexpr unsigned kFineSlotBits = 10;  // 1024 slots, ~65.5 us span
  static constexpr std::size_t kFineSlots = std::size_t{1} << kFineSlotBits;
  static constexpr std::size_t kCoarseSlots = 1024;  // ~67 ms horizon

  TimingWheel() : fine_heads_(kFineSlots, kNil), coarse_heads_(kCoarseSlots, kNil) {}

  void push(const WheelItem& item) {
    place(item);
    ++size_;
  }

  /// Earliest item by (when, seq).  Precondition: size() > 0.  Advances the
  /// cursor over verified-empty slots (cascading/promoting on the way) but
  /// never discards or reorders an item, so it is peek-safe.
  [[nodiscard]] const WheelItem& top() {
    ensure_ready();
    return ready_[head_];
  }

  /// Removes the item top() returned.  Precondition: size() > 0.
  void pop_top() {
    ensure_ready();
    advance_head(1);
  }

  /// Pops the earliest item into `single` and returns 1 when it is alone
  /// at its timestamp; otherwise extracts the whole same-timestamp run
  /// into `out` (appended in ascending seq order) and returns its length.
  /// The aloneness test is O(1) and exact: the ready run is sorted, so an
  /// item sharing the minimum's timestamp would sit directly after it.
  /// Precondition: size() > 0.
  std::size_t pop_top_or_run(WheelItem& single, std::vector<WheelItem>& out) {
    ensure_ready();
    if (ready_.size() - head_ < 2 ||
        ready_[head_ + 1].when != ready_[head_].when) {
      single = ready_[head_];
      advance_head(1);
      return 1;
    }
    return pop_run(out);
  }

  /// Pops the maximal run of items sharing top()'s timestamp, appending
  /// them to `out` in ascending seq order — exactly the order N pop_top()
  /// calls would have produced.  Precondition: size() > 0.
  ///
  /// Once ensure_ready() has the earliest item in the ready run, every
  /// stored item with that timestamp is in the run too: equal timestamps
  /// share a fine slot, a drained slot empties completely, and later
  /// same-tick pushes land at-or-behind the cursor and join the run
  /// directly.  So one extraction really is the whole tick — the run's
  /// ascending head, copied out in order.
  std::size_t pop_run(std::vector<WheelItem>& out) {
    ensure_ready();
    const auto first = ready_.begin() + static_cast<std::ptrdiff_t>(head_);
    auto last = first;
    while (last != ready_.end() && last->when == first->when) ++last;
    const auto run = static_cast<std::size_t>(last - first);
    out.insert(out.end(), first, last);
    advance_head(run);
    return run;
  }

  /// Items stored, including lazily-cancelled ones the owner will skip.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Coarse buckets redistributed into the fine wheel.
  [[nodiscard]] std::uint64_t cascades() const { return cascades_; }
  /// Schedules that landed beyond the coarse horizon.
  [[nodiscard]] std::uint64_t overflow_scheduled() const {
    return overflow_scheduled_;
  }
  /// Items promoted from the overflow heap into the wheels.
  [[nodiscard]] std::uint64_t overflow_promotions() const {
    return overflow_promotions_;
  }

 private:
  /// "a fires after b": the greater-than comparator that makes
  /// std::priority_queue behave as a min-heap.
  struct Later {
    bool operator()(const WheelItem& a, const WheelItem& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// "a fires before b": the ready run's sort order.
  struct Earlier {
    bool operator()(const WheelItem& a, const WheelItem& b) const {
      return Later{}(b, a);
    }
  };

  // Buckets are intrusive singly-linked lists threaded through one pooled
  // node arena: pushing into a slot never allocates after warm-up (freed
  // nodes recycle through a free list), and a cascade re-links nodes from
  // the coarse list into fine lists without copying or touching the heap
  // allocator.  In-bucket order is irrelevant — every drained bucket goes
  // through the (when, seq) ready_ heap before anything pops — so LIFO
  // linking is fine.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Node {
    WheelItem item;
    std::uint32_t next = kNil;
  };

  static std::uint64_t fine_index(TimePoint when) {
    const std::int64_t ns = when.nanoseconds();
    return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns) >> kFineShift;
  }
  static std::uint64_t coarse_index(std::uint64_t fine_idx) {
    return fine_idx >> kFineSlotBits;
  }

  /// Sorted insert into the ready run: items scheduled at-or-behind the
  /// cursor and boundary-cascade items land here one at a time; bucket
  /// drains go through drain_fine_slot's bulk append instead.  The common
  /// push — the current tick, newest seq — sorts last, so it appends.
  void push_ready(const WheelItem& item) {
    const auto first = ready_.begin() + static_cast<std::ptrdiff_t>(head_);
    ready_.insert(std::upper_bound(first, ready_.end(), item, Earlier{}),
                  item);
  }

  /// Pops `n` items off the head of the ready run.  An emptied run resets
  /// to the front of the vector, so the popped prefix holds at most the
  /// items that passed through one drained slot.
  void advance_head(std::size_t n) {
    head_ += n;
    size_ -= n;
    if (head_ == ready_.size()) {
      ready_.clear();
      head_ = 0;
    }
  }

  [[nodiscard]] std::uint32_t alloc_node(const WheelItem& item) {
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      free_head_ = pool_[idx].next;
      pool_[idx].item = item;
      return idx;
    }
    pool_.push_back(Node{item, kNil});
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void free_node(std::uint32_t idx) {
    pool_[idx].next = free_head_;
    free_head_ = idx;
  }

  void link_fine(std::uint32_t idx, std::uint64_t f) {
    const std::uint64_t slot = f & (kFineSlots - 1);
    pool_[idx].next = fine_heads_[slot];
    fine_heads_[slot] = idx;
    fine_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++fine_count_;
  }

  /// Files an item by distance from the cursor.  At-or-behind the cursor it
  /// joins `ready_` directly; a coarse slot always maps onto the fine wheel
  /// exactly (one coarse slot == one fine span), so cascaded and promoted
  /// items re-place cleanly and never fall back into the overflow heap.
  void place(const WheelItem& item) {
    const std::uint64_t f = fine_index(item.when);
    if (f <= cursor_) {
      push_ready(item);
      return;
    }
    if (f - cursor_ < kFineSlots) {
      link_fine(alloc_node(item), f);
      return;
    }
    const std::uint64_t c = coarse_index(f);
    if (c - coarse_index(cursor_) < kCoarseSlots) {
      const std::uint64_t slot = c & (kCoarseSlots - 1);
      const std::uint32_t idx = alloc_node(item);
      pool_[idx].next = coarse_heads_[slot];
      coarse_heads_[slot] = idx;
      coarse_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      ++coarse_count_;
      return;
    }
    overflow_.push(item);
    ++overflow_scheduled_;
  }

  /// Drains the fine bucket at absolute index `f` (== cursor_) into the
  /// ready run and clears its occupancy bit.  The whole bucket is appended
  /// first and sorted once — O(k log k) instead of k sorted inserts at O(k)
  /// moves each — then merged with whatever the run already held
  /// (cross_boundary can cascade items into it before draining the
  /// boundary slot).
  void drain_fine_slot(std::uint64_t f) {
    const std::uint64_t slot = f & (kFineSlots - 1);
    std::uint32_t idx = fine_heads_[slot];
    fine_heads_[slot] = kNil;
    fine_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    const std::size_t old = ready_.size();
    while (idx != kNil) {
      const std::uint32_t next = pool_[idx].next;
      ready_.push_back(pool_[idx].item);
      free_node(idx);
      --fine_count_;
      idx = next;
    }
    const auto first = ready_.begin() + static_cast<std::ptrdiff_t>(head_);
    const auto mid = ready_.begin() + static_cast<std::ptrdiff_t>(old);
    // LIFO bucket + monotonically increasing seq means a slot that only
    // ever saw in-order pushes walks out exactly descending — the common
    // case by far — so a reverse sorts it.  Cascades and re-pushes break
    // that; those buckets pay the O(k log k) sort.
    std::reverse(mid, ready_.end());
    if (!std::is_sorted(mid, ready_.end(), Earlier{})) {
      std::sort(mid, ready_.end(), Earlier{});
    }
    if (first != mid) std::inplace_merge(first, mid, ready_.end(), Earlier{});
  }

  /// First occupied fine slot with absolute index in [from, bound), or
  /// `bound` if none.  The window (cursor_, cursor_ + kFineSlots] covers
  /// each masked slot exactly once, so within a bitmap word the masked
  /// index maps back to `candidate + bit offset` unambiguously.
  [[nodiscard]] std::uint64_t next_fine_occupied(std::uint64_t from,
                                                std::uint64_t bound) const {
    for (std::uint64_t f = from; f < bound;) {
      const std::uint64_t slot = f & (kFineSlots - 1);
      const std::uint64_t word = fine_bits_[slot >> 6] >> (slot & 63);
      if (word != 0) {
        const std::uint64_t hit =
            f + static_cast<std::uint64_t>(std::countr_zero(word));
        return hit < bound ? hit : bound;
      }
      f += 64 - (slot & 63);  // jump to the next bitmap word
    }
    return bound;
  }

  /// First occupied coarse slot with absolute index in [from, bound), or
  /// `bound` if none.
  [[nodiscard]] std::uint64_t next_coarse_occupied(std::uint64_t from,
                                                   std::uint64_t bound) const {
    for (std::uint64_t c = from; c < bound;) {
      const std::uint64_t slot = c & (kCoarseSlots - 1);
      const std::uint64_t word = coarse_bits_[slot >> 6] >> (slot & 63);
      if (word != 0) {
        const std::uint64_t hit =
            c + static_cast<std::uint64_t>(std::countr_zero(word));
        return hit < bound ? hit : bound;
      }
      c += 64 - (slot & 63);
    }
    return bound;
  }

  /// Promotes every overflow item that now fits the coarse horizon ending
  /// at `c_now + kCoarseSlots`.  The overflow heap is (when, seq)-ordered,
  /// so eligible items pop in order and each lands in ready/fine/coarse.
  void promote_overflow(std::uint64_t c_now) {
    while (!overflow_.empty() &&
           coarse_index(fine_index(overflow_.top().when)) - c_now <
               kCoarseSlots) {
      const WheelItem item = overflow_.top();
      overflow_.pop();
      place(item);
      ++overflow_promotions_;
    }
  }

  /// Moves the cursor to the next coarse boundary, redistributes that
  /// coarse bucket into the fine wheel, and drains the boundary's own fine
  /// slot (pre-existing fine items plus just-cascaded ones) into ready_.
  void cross_boundary(std::uint64_t boundary) {
    cursor_ = boundary;
    const std::uint64_t cslot = coarse_index(boundary) & (kCoarseSlots - 1);
    std::uint32_t idx = coarse_heads_[cslot];
    if (idx != kNil) {
      ++cascades_;
      coarse_heads_[cslot] = kNil;
      coarse_bits_[cslot >> 6] &= ~(std::uint64_t{1} << (cslot & 63));
      while (idx != kNil) {
        const std::uint32_t next = pool_[idx].next;
        --coarse_count_;
        const std::uint64_t f = fine_index(pool_[idx].item.when);
        if (f <= cursor_) {
          push_ready(pool_[idx].item);
          free_node(idx);
        } else {
          link_fine(idx, f);  // re-link the node: no copy, no allocation
        }
        idx = next;
      }
    }
    promote_overflow(coarse_index(boundary));
    if (fine_heads_[boundary & (kFineSlots - 1)] != kNil) {
      drain_fine_slot(boundary);
    }
  }

  /// Both wheels empty but items pend beyond the horizon: jump the cursor
  /// straight to the earliest overflow item and promote its cluster.
  void jump_to_overflow() {
    cursor_ = std::max(cursor_, fine_index(overflow_.top().when));
    promote_overflow(coarse_index(cursor_));
  }

  /// Makes ready_ non-empty.  Precondition: size() > 0.  The empty test
  /// inlines into every top()/pop caller; the slot-scan loop stays
  /// out of line so it does not bloat those call sites.
  void ensure_ready() {
    if (!ready_.empty()) return;
    fill_ready();
  }

  [[gnu::noinline]] void fill_ready() {
    while (ready_.empty()) {
      if (fine_count_ == 0 && coarse_count_ == 0) {
        jump_to_overflow();
        continue;
      }
      const std::uint64_t boundary = (coarse_index(cursor_) + 1)
                                     << kFineSlotBits;
      if (fine_count_ > 0) {
        const std::uint64_t f = next_fine_occupied(cursor_ + 1, boundary);
        if (f < boundary) {
          cursor_ = f;
          drain_fine_slot(f);
          continue;
        }
        cross_boundary(boundary);
        continue;
      }
      // Fine wheel empty: jump straight to the next occupied coarse slot.
      // A single jump never exceeds the coarse span, so overflow items
      // (whose coarse distance was >= kCoarseSlots at insert) can never end
      // up behind the cursor before promote_overflow() sees them.
      const std::uint64_t c0 = coarse_index(cursor_) + 1;
      const std::uint64_t c = next_coarse_occupied(c0, c0 + kCoarseSlots);
      cross_boundary(c << kFineSlotBits);
    }
  }

  std::vector<std::uint32_t> fine_heads_;    // per-slot list head, kNil empty
  std::vector<std::uint32_t> coarse_heads_;  // per-slot list head, kNil empty
  std::vector<Node> pool_;                   // backing arena for both wheels
  std::uint32_t free_head_ = kNil;           // recycled-node free list
  // Occupancy bitmaps (bit set iff the bucket is non-empty): slot scans are
  // countr_zero word operations instead of per-bucket empty() probes.
  std::array<std::uint64_t, kFineSlots / 64> fine_bits_{};
  std::array<std::uint64_t, kCoarseSlots / 64> coarse_bits_{};
  // The ready run is ready_[head_..], sorted ascending by (when, seq);
  // ready_[..head_] is the popped prefix, dropped when the run empties.
  std::vector<WheelItem> ready_;
  std::size_t head_ = 0;
  std::priority_queue<WheelItem, std::vector<WheelItem>, Later> overflow_;
  std::uint64_t cursor_ = 0;  // fine index of the slot drained into ready_
  std::size_t fine_count_ = 0;
  std::size_t coarse_count_ = 0;
  std::size_t size_ = 0;
  std::uint64_t cascades_ = 0;
  std::uint64_t overflow_scheduled_ = 0;
  std::uint64_t overflow_promotions_ = 0;
};

}  // namespace nicmcast::sim
