// Discrete-event scheduler.
//
// An indexed 4-ary min-heap over virtual time. Ties are broken by the
// instant each event's rank was claimed, then by insertion order, so runs
// are deterministic regardless of heap internals. For ranks claimed at
// schedule time the claim instant is redundant (claims happen in insertion
// order); it matters for components that claim a rank at one instant and
// pass a different claim instant (Link's delivery lane, the pulse
// attacker's burst chain), and the golden digests pin the resulting tie
// order. It lives out of line in the slot, loaded only on an exact
// timestamp tie. Each event
// lives in a reusable slot; its `EventId` packs the slot index with a
// generation counter, so `pending` is an O(1) array lookup and `cancel`
// removes the entry from the heap eagerly — no dead entries are retained,
// which matters because TCP retransmission timers cancel constantly.
// `reschedule_at` moves a pending event in place (fresh tie-break sequence,
// same slot), the primitive behind `Timer`'s restart-without-realloc path.
//
// Layout: the heap array holds only 16-byte (when, seq, slot) keys — four
// nodes per cache line — so sifting never touches a closure buffer. Heap
// positions live in a flat dense array indexed by slot, not in the slots
// themselves, so the per-move bookkeeping write lands in a small hot int
// array instead of dragging a closure-bearing slot line through the slab
// indirection. Slots live in fixed-size slabs with stable addresses —
// growing the slot population never relocates a pending closure — and
// freed slots recycle through a LIFO free list, so the steady-state event
// loop performs no allocations at all.
//
// Two tiers: events due within the far horizon live in the heap; events
// beyond it (TCP retransmit timers, delayed ACKs, pulse periods — the bulk
// of the resident population, but a sliver of the firing rate) sit in an
// unsorted shelf and migrate heap-ward in batches as the clock approaches.
// Every pop therefore sifts a heap of the handful of imminent events, not
// of every armed timer in the simulation, and rescheduling a shelved timer
// is two stores instead of two sifts. Ordering is unaffected: the heap
// holds every event at or before the horizon, the shelf is strictly
// beyond it, and migration re-inserts nodes with their original
// (when, seq) keys.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace pdos {

class Scheduler {
 public:
  Scheduler() = default;

  // Non-copyable: events capture component pointers tied to one run.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time. Starts at 0 and only moves forward.
  Time now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0). Accepts
  /// any void() callable; the closure is constructed directly into its
  /// heap slot (no intermediate EventFn moves on the hot path).
  template <typename F>
  EventId schedule(Time delay, F&& fn) {
    PDOS_REQUIRE(delay >= 0.0, "Scheduler::schedule: delay must be >= 0");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute virtual time `when` (when >= now()).
  template <typename F>
  EventId schedule_at(Time when, F&& fn) {
    return schedule_at_sequenced(when, now_, next_seq(), std::forward<F>(fn));
  }

  /// Claim the next tie-break sequence number without scheduling anything.
  /// Pair with `schedule_at_sequenced`: a component that batches future
  /// events outside the heap (Link's delivery lane) claims the rank at the
  /// moment the work is logically emitted, then materializes the heap node
  /// later — same-timestamp events still fire in emission order, exactly as
  /// if each had been scheduled eagerly.
  std::uint32_t allocate_seq() { return next_seq(); }

  /// Claim `n` consecutive tie-break ranks at once (returns the first).
  /// Equivalent to `n` calls to `allocate_seq` — a burst emitter claims the
  /// ranks of its whole batch up front, then materializes the events one at
  /// a time as the batch drains.
  std::uint32_t allocate_seq_range(std::uint32_t n) {
    PDOS_CHECK_MSG(0xffffffffu - next_seq_ > n,
                   "event sequence space exhausted");
    const std::uint32_t base = next_seq_;
    next_seq_ += n;
    return base;
  }

  /// `schedule_at` with a caller-provided tie-break rank from
  /// `allocate_seq` plus the virtual time the rank was claimed (the value
  /// `now()` had at the `allocate_seq`/`allocate_seq_range` call). Ranks
  /// must be claimed in non-decreasing event-emission order; reusing one
  /// across two live events is undefined. The claim instant is the primary
  /// same-timestamp tie-break (see `before`): for a rank claimed at `now()`
  /// it is redundant with the rank itself — claims happen in rank order as
  /// the clock advances — but a caller may pass another instant (Link
  /// passes the serialization finish), and that choice fixes the tie order
  /// the golden digests pin.
  template <typename F>
  EventId schedule_at_sequenced(Time when, Time claim, std::uint32_t seq,
                                F&& fn) {
    PDOS_REQUIRE(when >= now_, "Scheduler::schedule_at: time is in the past");
    const std::uint32_t slot = acquire_slot();
    Slot& s = *slot_ptr(slot);
    s.claim = claim;
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      PDOS_CHECK(static_cast<bool>(fn));
      s.fn = std::forward<F>(fn);
    } else {
      s.fn.emplace(std::forward<F>(fn));
    }
    insert_node(HeapNode{when, seq, slot});
    return (static_cast<EventId>(s.gen) << 32) | (slot + 1);
  }

  /// Cancel a pending event. Returns true if the event was still pending.
  /// Cancelling an already-fired or unknown id is a harmless no-op.
  bool cancel(EventId id);

  /// Move a pending event to absolute time `when` (>= now()), keeping its
  /// heap slot and id. The event is re-sequenced as if freshly scheduled, so
  /// FIFO tie-breaking matches a cancel-plus-schedule exactly. Returns false
  /// (and does nothing) if `id` already fired or was cancelled.
  bool reschedule_at(EventId id, Time when);

  /// `reschedule_at(id, now() + delay)` with delay >= 0.
  bool reschedule(EventId id, Time delay);

  /// True if `id` is scheduled and not cancelled.
  bool pending(EventId id) const { return live_slot(id) != nullptr; }

  /// Pre-size the slot slabs and heap array for `n` simultaneous events so
  /// even the warm-up phase of the event loop performs no allocations.
  void reserve(std::size_t n);

  /// Return to the just-constructed state — clock at 0, no pending events,
  /// fresh tie-break sequence — while RETAINING every slab and array
  /// capacity, so a rebuilt scenario schedules without allocating. Armed
  /// closures are destroyed; every outstanding EventId goes stale. The free
  /// list is rebuilt in ascending slot order, so a reset scheduler hands
  /// out slots 0, 1, 2, ... exactly like a fresh one — behaviour after a
  /// reset is bit-identical to a new Scheduler.
  void reset();

  /// Run events until the queue empties or `horizon` is passed. Events at
  /// exactly `horizon` still run; `now()` ends at `horizon` if events remain.
  /// Returns the number of events executed.
  std::uint64_t run_until(Time horizon);

  /// Run until the queue is empty. Returns the number of events executed.
  std::uint64_t run();

  /// Execute only the next pending event (if any). Returns true if one ran.
  bool step();

  std::size_t queue_size() const { return heap_.size() + shelf_.size(); }
  bool empty() const { return heap_.empty() && shelf_.empty(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  /// Heap node: ordering key plus the slot holding the closure. Kept apart
  /// from the slots so sifting moves 16 bytes, never a closure buffer. The
  /// sequence tie-breaker is 32-bit: it only has to stay unique within one
  /// scheduler's lifetime, and a run would need ~4.3 billion schedules to
  /// wrap — `next_seq()` checks and fails loudly long before silent reorder.
  struct HeapNode {
    Time when;
    std::uint32_t seq;  // tie-breaker: FIFO among simultaneous events
    std::uint32_t slot;
  };
  static_assert(sizeof(HeapNode) == 16, "heap keys should be 16 bytes");

  struct Slot {
    std::uint32_t gen = 0;  // bumped on release; stale ids never match
    std::uint32_t next_free = 0;
    Time claim = 0.0;  // virtual time the event's tie-break rank was claimed
    InlineFn fn;
  };

  // 1024 slots per slab: large enough that slab allocation is rare, small
  // enough that a mostly-idle scheduler stays compact.
  static constexpr std::uint32_t kSlabBits = 10;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  // Far-shelf migration window, in virtual seconds. Anything due more than
  // one advance beyond the current frontier parks on the shelf; 50 ms sits
  // above the propagation delays that drive the per-packet event cadence
  // and below the retransmit/delayed-ACK timeouts that dominate the armed
  // population. The live window adapts upward from here when the shelf
  // population turns out to be sparse in time (see pull_shelf). A mistuned
  // window costs only constant factors — ordering never depends on it.
  static constexpr Time kFarWindow = 0.050;

  // pos_[slot] encoding: >= 0 is an index into heap_; kFreePos means free,
  // invoked, or never armed; anything <= kShelfBase encodes an index into
  // shelf_ as (kShelfBase - pos).
  static constexpr std::int32_t kFreePos = -1;
  static constexpr std::int32_t kShelfBase = -2;

  bool before(const HeapNode& a, const HeapNode& b) const {
    // The due-time compare stays the whole story for almost every pair, and
    // the branch below predicts "distinct" essentially always — event keys
    // are effectively random, exact double ties are the rare rationally
    // locked case. Only a genuine tie pays the slot loads for the claim
    // instants: claim order is rank order for events scheduled at their
    // claim (so this is exactly the FIFO-by-seq rule), and a caller-chosen
    // claim instant (see schedule_at_sequenced) orders by that instant.
    // Exact claim ties fall through to the rank compare.
    if (a.when != b.when) return a.when < b.when;
    const Time ca = slot_ptr(a.slot)->claim;
    const Time cb = slot_ptr(b.slot)->claim;
    return (ca < cb) | ((ca == cb) & (a.seq < b.seq));
  }

  /// Index of the smallest of the up-to-four children of `pos`; `first`
  /// is `pos * 4 + 1` (< size). Tournament order keeps the comparisons
  /// independent so they pipeline instead of chaining.
  std::size_t min_child(std::size_t first, std::size_t size) const {
    if (first + 4 <= size) {
      const std::size_t a =
          before(heap_[first + 1], heap_[first]) ? first + 1 : first;
      const std::size_t b =
          before(heap_[first + 3], heap_[first + 2]) ? first + 3 : first + 2;
      return before(heap_[b], heap_[a]) ? b : a;
    }
    std::size_t best = first;
    for (std::size_t c = first + 1; c < size; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    return best;
  }

  Slot* slot_ptr(std::uint32_t slot) const {
    return &slabs_[slot >> kSlabBits][slot & (kSlabSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoFreeSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slot_ptr(slot)->next_free;
      return slot;
    }
    if (slot_count_ == slabs_.size() * kSlabSize) {
      PDOS_CHECK_MSG(slot_count_ < 0xfffffc00u, "event slot space exhausted");
      slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
    }
    pos_.push_back(-1);
    return slot_count_++;
  }

  std::uint32_t next_seq() {
    PDOS_CHECK_MSG(next_seq_ != 0xffffffffu, "event sequence space exhausted");
    return next_seq_++;
  }

  /// Decode `id`; returns the slot if it names a live event, else null.
  Slot* live_slot(EventId id) const {
    const std::uint32_t low = static_cast<std::uint32_t>(id);
    if (low == 0 || low > slot_count_) return nullptr;
    Slot* s = slot_ptr(low - 1);
    if (s->gen != static_cast<std::uint32_t>(id >> 32)) return nullptr;
    if (pos_[low - 1] == kFreePos) return nullptr;
    return s;
  }

  /// Route a fresh node to the heap or the far shelf by due time.
  void insert_node(const HeapNode& node) {
    if (node.when > far_horizon_) {
      pos_[node.slot] = kShelfBase - static_cast<std::int32_t>(shelf_.size());
      shelf_.push_back(node);
    } else {
      pos_[node.slot] = static_cast<std::int32_t>(heap_.size());
      heap_.push_back(node);
      sift_up(heap_.size() - 1);
    }
  }

  /// Swap-remove shelf entry `idx`, fixing the displaced node's position.
  void shelf_remove(std::size_t idx) {
    const std::size_t last = shelf_.size() - 1;
    if (idx != last) {
      shelf_[idx] = shelf_[last];
      pos_[shelf_[idx].slot] = kShelfBase - static_cast<std::int32_t>(idx);
    }
    shelf_.pop_back();
  }

  /// Advance the far horizon and migrate newly imminent shelf entries into
  /// the heap, so the heap top becomes the global minimum. Called when the
  /// heap has run dry relative to the shelf.
  void pull_shelf();

  void sift_up(std::size_t pos) {
    const HeapNode node = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!before(node, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos_[heap_[pos].slot] = static_cast<std::int32_t>(pos);
      pos = parent;
    }
    heap_[pos] = node;
    pos_[node.slot] = static_cast<std::int32_t>(pos);
  }

  void sift_down(std::size_t pos);
  /// Detach the heap node at `pos`, restoring the heap property. The node's
  /// slot is left untouched.
  void detach(std::size_t pos);
  /// Return a slot to the free list and invalidate outstanding ids to it.
  void release_slot(std::uint32_t slot);
  /// Pop the minimum event and advance the clock. The slot is made stale
  /// (ids to it are dead) but NOT yet recycled, so the caller can invoke
  /// the closure in place — even a callback that schedules new events
  /// cannot be handed this slot. The caller must run `recycle_slot` on the
  /// returned slot afterwards. Precondition: heap non-empty.
  std::uint32_t pop_min();
  /// Destroy an invoked closure and return its (already stale) slot to the
  /// free list. Second half of the pop_min contract.
  void recycle_slot(std::uint32_t slot) {
    Slot* s = slot_ptr(slot);
    s->fn.reset();
    s->next_free = free_head_;
    free_head_ = slot;
  }

  Time now_ = 0.0;
  Time far_horizon_ = 0.0;  // heap holds everything due at or before this
  Time far_window_ = kFarWindow;  // adaptive; see pull_shelf
  std::uint32_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<HeapNode> heap_;
  std::vector<HeapNode> shelf_;  // unsorted; strictly beyond far_horizon_
  // pos_[slot] is the slot's index into heap_, -1 while the slot is free or
  // its event is being invoked. Parallel to the slabs, always slot_count_
  // entries long.
  std::vector<std::int32_t> pos_;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::uint32_t slot_count_ = 0;  // slots ever created (all tail slabs full)
  std::uint32_t free_head_ = kNoFreeSlot;
};

}  // namespace pdos
