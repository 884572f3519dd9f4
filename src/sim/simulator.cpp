#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace cam {

Simulator::Simulator() : l0_(kL0Slots), l1_(kL1Slots) {}

void Simulator::reserve(std::size_t events_per_slot) {
  for (auto& slot : l0_) slot.reserve(events_per_slot);
  for (auto& slot : l1_) slot.reserve(events_per_slot);
  order_.reserve(events_per_slot);
  late_.reserve(events_per_slot);
  overflow_.reserve(events_per_slot);
}

void Simulator::at(SimTime t, Action fn) {
  assert(t >= now_ && "Simulator::at: scheduling in the past");
  if (t < now_) t = now_;  // clamp policy when asserts are compiled out
  place(Event{t, next_seq_++, std::move(fn)});
  ++pending_;
}

void Simulator::place(Event ev) {
  const std::uint64_t tk = tick_of(ev.time);
  if (tk <= cur_tick_) {
    // Lands in the slot being executed (or is clamped into it): append to
    // the current slot. Its seq is the largest yet, so when nothing waits
    // in late_ and its time is no earlier than order_'s last entry it
    // sorts last and extends order_. Otherwise the late-arrival heap
    // tracks it, and pop_order's exact (time, seq) merge of the two keeps
    // the global total order.
    std::vector<Event>& slot = l0_[cur_tick_ & kL0Mask];
    const Order o{ev.time, ev.seq, static_cast<std::uint32_t>(slot.size())};
    if (late_.empty() && !order_.empty() && ev.time >= order_.back().time) {
      order_.push_back(o);
    } else {
      late_.push_back(o);
      std::push_heap(late_.begin(), late_.end(), Later{});
    }
    slot.push_back(std::move(ev));
  } else if ((tk >> kL0Bits) == cur_chunk()) {
    l0_[tk & kL0Mask].push_back(std::move(ev));
    ++l0_count_;
  } else if ((tk >> (kL0Bits + kL1Bits)) == cur_super()) {
    l1_[(tk >> kL0Bits) & kL1Mask].push_back(std::move(ev));
    ++l1_count_;
  } else {
    overflow_.push_back(std::move(ev));
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

void Simulator::load_order(const std::vector<Event>& slot) {
  assert(order_.empty() && head_ == 0);
  for (std::uint32_t i = 0; i < slot.size(); ++i) {
    order_.push_back(Order{slot[i].time, slot[i].seq, i});
  }
  // Keys are unique (seq is), so the sort is a deterministic total order.
  std::sort(order_.begin(), order_.end(), Earlier{});
}

void Simulator::finish_slot() {
  std::vector<Event>& slot = l0_[cur_tick_ & kL0Mask];
  assert(late_.empty());
  slot.clear();
  if (slot.capacity() > kReleaseCapacity) {
    std::vector<Event>().swap(slot);
  }
  order_.clear();
  head_ = 0;
}

void Simulator::ensure_current() {
  while (head_ == order_.size() && late_.empty()) {
    assert(pending_ > 0);
    finish_slot();
    if (l0_count_ > 0) {
      // Next event is inside the current chunk: walk the tick cursor to
      // the next occupied slot (bounded by the chunk size).
      std::vector<Event>* slot;
      do {
        ++cur_tick_;
        slot = &l0_[cur_tick_ & kL0Mask];
      } while (slot->empty());
      l0_count_ -= slot->size();
      load_order(*slot);
      continue;
    }
    if (l1_count_ > 0) {
      // Current chunk is dry: scan level 1 for the next occupied chunk
      // and scatter it into level 0 (the hierarchical cascade).
      std::uint64_t chunk = cur_chunk();
      std::vector<Event>* src;
      do {
        ++chunk;
        src = &l1_[chunk & kL1Mask];
      } while (src->empty());
      cur_tick_ = chunk << kL0Bits;
      l1_count_ -= src->size();
      for (Event& ev : *src) {
        const std::uint64_t tk = tick_of(ev.time);
        l0_[tk & kL0Mask].push_back(std::move(ev));
        if (tk != cur_tick_) ++l0_count_;
      }
      src->clear();
      if (src->capacity() > kReleaseCapacity) {
        std::vector<Event>().swap(*src);
      }
      const std::vector<Event>& slot = l0_[cur_tick_ & kL0Mask];
      if (!slot.empty()) load_order(slot);
      continue;  // first tick may be empty: the l0 walk takes over
    }
    // Both wheels dry: jump the cursor to the overflow's earliest event
    // and drain that whole superchunk into the wheels.
    assert(!overflow_.empty());
    cur_tick_ = tick_of(overflow_.front().time);
    const std::uint64_t super = cur_super();
    while (!overflow_.empty() &&
           (tick_of(overflow_.front().time) >> (kL0Bits + kL1Bits)) ==
               super) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      Event ev = std::move(overflow_.back());
      overflow_.pop_back();
      const std::uint64_t tk = tick_of(ev.time);
      if ((tk >> kL0Bits) == cur_chunk()) {
        l0_[tk & kL0Mask].push_back(std::move(ev));
        if (tk != cur_tick_) ++l0_count_;
      } else {
        l1_[(tk >> kL0Bits) & kL1Mask].push_back(std::move(ev));
        ++l1_count_;
      }
    }
    const std::vector<Event>& slot = l0_[cur_tick_ & kL0Mask];
    if (!slot.empty()) load_order(slot);
    // The heap top defined cur_tick_, so its slot is non-empty and the
    // loop exits.
  }
}

Simulator::Order Simulator::pop_order() {
  const bool have_main = head_ < order_.size();
  if (!late_.empty() &&
      (!have_main || Later{}(order_[head_], late_.front()))) {
    std::pop_heap(late_.begin(), late_.end(), Later{});
    Order o = late_.back();
    late_.pop_back();
    return o;
  }
  return order_[head_++];
}

SimTime Simulator::next_time() const {
  const bool have_main = head_ < order_.size();
  if (!late_.empty() &&
      (!have_main || Later{}(order_[head_], late_.front()))) {
    return late_.front().time;
  }
  return order_[head_].time;
}

SimTime Simulator::peek_next_time() {
  assert(pending_ > 0);
  ensure_current();
  return next_time();
}

bool Simulator::step() {
  if (pending_ == 0) return false;
  ensure_current();
  const Order o = pop_order();
  // Move the action out before invoking: the handler may schedule into
  // this very slot, and the vector could reallocate under our feet.
  Action fn = std::move(l0_[cur_tick_ & kL0Mask][o.idx].fn);
  --pending_;
  now_ = o.time;
  ++executed_;
  fn();
  return true;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(SimTime t_end) {
  std::uint64_t n = 0;
  while (pending_ > 0) {
    ensure_current();  // cursor motion only; safe before the time check
    if (next_time() > t_end) break;
    step();
    ++n;
  }
  if (now_ < t_end) now_ = t_end;
  return n;
}

}  // namespace cam
