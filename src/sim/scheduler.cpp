#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace pdos {

bool Scheduler::cancel(EventId id) {
  Slot* s = live_slot(id);
  if (s == nullptr) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(id) - 1;
  const std::int32_t p = pos_[slot];
  if (p <= kShelfBase) {
    shelf_remove(static_cast<std::size_t>(kShelfBase - p));
  } else {
    detach(static_cast<std::size_t>(p));
  }
  s->fn.reset();
  release_slot(slot);
  return true;
}

bool Scheduler::reschedule_at(EventId id, Time when) {
  PDOS_REQUIRE(when >= now_, "Scheduler::reschedule_at: time is in the past");
  if (live_slot(id) == nullptr) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(id) - 1;
  const std::int32_t p = pos_[slot];
  const std::uint32_t seq = next_seq();  // re-sequence: ties fire as if
                                         // freshly scheduled
  slot_ptr(slot)->claim = now_;          // the rank's new claim instant
  if (p <= kShelfBase) {
    const std::size_t idx = static_cast<std::size_t>(kShelfBase - p);
    if (when > far_horizon_) {
      // Far timer pushed to another far deadline — the common TCP RTO
      // re-arm. Two stores, no heap traffic.
      shelf_[idx].when = when;
      shelf_[idx].seq = seq;
    } else {
      shelf_remove(idx);
      insert_node(HeapNode{when, seq, slot});
    }
    return true;
  }
  const std::size_t pos = static_cast<std::size_t>(p);
  if (when > far_horizon_) {
    detach(pos);
    insert_node(HeapNode{when, seq, slot});  // lands on the shelf
    return true;
  }
  heap_[pos].when = when;
  heap_[pos].seq = seq;
  sift_down(pos);
  sift_up(pos);
  return true;
}

bool Scheduler::reschedule(EventId id, Time delay) {
  PDOS_REQUIRE(delay >= 0.0, "Scheduler::reschedule: delay must be >= 0");
  return reschedule_at(id, now_ + delay);
}

void Scheduler::reserve(std::size_t n) {
  heap_.reserve(n);
  shelf_.reserve(n);
  pos_.reserve(n);
  while (slabs_.size() * kSlabSize < n) {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
  }
}

void Scheduler::reset() {
  for (std::uint32_t slot = 0; slot < slot_count_; ++slot) {
    Slot* s = slot_ptr(slot);
    if (pos_[slot] != kFreePos) s->fn.reset();  // armed closure: destroy it
    ++s->gen;  // every pre-reset id is now detectably stale
    pos_[slot] = kFreePos;
    s->next_free = slot + 1;
  }
  if (slot_count_ > 0) {
    slot_ptr(slot_count_ - 1)->next_free = kNoFreeSlot;
    free_head_ = 0;
  } else {
    free_head_ = kNoFreeSlot;
  }
  heap_.clear();
  shelf_.clear();
  now_ = 0.0;
  far_horizon_ = 0.0;
  far_window_ = kFarWindow;
  next_seq_ = 0;
  executed_ = 0;
}

void Scheduler::sift_down(std::size_t pos) {
  const HeapNode node = heap_[pos];
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    const std::size_t best = min_child(first_child, size);
    if (!before(heap_[best], node)) break;
    heap_[pos] = heap_[best];
    pos_[heap_[pos].slot] = static_cast<std::int32_t>(pos);
    pos = best;
  }
  heap_[pos] = node;
  pos_[node.slot] = static_cast<std::int32_t>(pos);
}

void Scheduler::detach(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    pos_[heap_[pos].slot] = static_cast<std::int32_t>(pos);
    heap_.pop_back();
    sift_down(pos);
    sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot* s = slot_ptr(slot);
  ++s->gen;  // outstanding ids to this slot are now detectably stale
  pos_[slot] = -1;
  s->next_free = free_head_;
  free_head_ = slot;
}

std::uint32_t Scheduler::pop_min() {
  const HeapNode top = heap_[0];
  ++slot_ptr(top.slot)->gen;  // ids are now stale; recycled after the invoke
  pos_[top.slot] = -1;
  const std::size_t size = heap_.size() - 1;
  if (size > 0) {
    const HeapNode moved = heap_[size];
    heap_.pop_back();
    // Floyd's hole descent: walk the root hole down the min-child path
    // without comparing against `moved` (it came from the bottom, so it
    // almost always belongs near a leaf), then drop it in and sift up the
    // usually-zero distance back.
    std::size_t pos = 0;
    for (;;) {
      const std::size_t first_child = pos * 4 + 1;
      if (first_child >= size) break;
      const std::size_t best = min_child(first_child, size);
      heap_[pos] = heap_[best];
      pos_[heap_[pos].slot] = static_cast<std::int32_t>(pos);
      pos = best;
    }
    heap_[pos] = moved;
    pos_[moved.slot] = static_cast<std::int32_t>(pos);
    sift_up(pos);
  } else {
    heap_.pop_back();
  }
  now_ = top.when;
  // The clock can only pass the frontier when the shelf is empty (the run
  // loops pull first otherwise); sliding it forward keeps subsequent
  // schedule() calls routing near events into the heap.
  if (now_ > far_horizon_) far_horizon_ = now_;
  return top.slot;
}

void Scheduler::pull_shelf() {
  // Advance the frontier one window past the earliest pending event and
  // migrate every shelf entry that falls inside it, with original
  // (when, seq) keys — pop order is a pure function of the keys, so batch
  // migration cannot reorder anything. One pass always restores the pop
  // invariant (heap top <= frontier, or shelf empty); the loop is belt and
  // braces.
  while (!shelf_.empty() && (heap_.empty() || heap_[0].when > far_horizon_)) {
    Time next = shelf_[0].when;
    for (std::size_t i = 1; i < shelf_.size(); ++i) {
      next = std::min(next, shelf_[i].when);
    }
    if (!heap_.empty()) next = std::min(next, heap_[0].when);
    far_horizon_ = std::max(far_horizon_, next) + far_window_;
    const std::size_t scanned = shelf_.size();
    std::size_t migrated = 0;
    std::size_t i = 0;
    while (i < shelf_.size()) {
      if (shelf_[i].when <= far_horizon_) {
        const HeapNode node = shelf_[i];
        shelf_remove(i);  // swap-remove: re-examine index i
        insert_node(node);
        ++migrated;
      } else {
        ++i;
      }
    }
    // Adapt the window to the shelf's density in time. A pull that scans
    // many entries but moves few means the population is spread over far
    // more than one window (bulk-scheduled far-future events); doubling
    // makes the repeated scans geometric instead of quadratic. A pull that
    // moves most of what it scans can afford to narrow back toward the
    // cadence-matched default.
    if (migrated * 4 < scanned) {
      far_window_ *= 2.0;
    } else if (far_window_ > kFarWindow) {
      far_window_ *= 0.5;
    }
  }
}

std::uint64_t Scheduler::run_until(Time horizon) {
  std::uint64_t count = 0;
  for (;;) {
    if (!shelf_.empty() && (heap_.empty() || heap_[0].when > far_horizon_)) {
      pull_shelf();
    }
    if (heap_.empty() || heap_[0].when > horizon) break;
    const std::uint32_t slot = pop_min();
    slot_ptr(slot)->fn();  // in place: the slot cannot be re-acquired yet
    recycle_slot(slot);
    ++count;
  }
  if (now_ < horizon) now_ = horizon;
  executed_ += count;
  return count;
}

std::uint64_t Scheduler::run() {
  std::uint64_t count = 0;
  for (;;) {
    if (!shelf_.empty() && (heap_.empty() || heap_[0].when > far_horizon_)) {
      pull_shelf();
    }
    if (heap_.empty()) break;
    const std::uint32_t slot = pop_min();
    slot_ptr(slot)->fn();  // in place: the slot cannot be re-acquired yet
    recycle_slot(slot);
    ++count;
  }
  executed_ += count;
  return count;
}

bool Scheduler::step() {
  if (!shelf_.empty() && (heap_.empty() || heap_[0].when > far_horizon_)) {
    pull_shelf();
  }
  if (heap_.empty()) return false;
  const std::uint32_t slot = pop_min();
  slot_ptr(slot)->fn();
  recycle_slot(slot);
  ++executed_;
  return true;
}

}  // namespace pdos
