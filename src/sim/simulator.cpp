#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace cam {

Simulator::Simulator() : wheel_(kWheelSlots, kNil) {}

void Simulator::reserve(std::size_t events) {
  while (blocks_.size() * kBlockEvents < events) add_block();
  order_.reserve(events);
  late_.reserve(events);
  later_.reserve(events);
}

void Simulator::add_block() {
  const auto base = static_cast<std::uint32_t>(blocks_.size() * kBlockEvents);
  blocks_.push_back(std::make_unique<Event[]>(kBlockEvents));
  // Thread the block onto the free list back to front, so entries are
  // handed out in ascending order.
  Event* block = blocks_.back().get();
  for (std::uint32_t i = kBlockEvents; i-- > 0;) {
    block[i].next = free_;
    free_ = base + i;
  }
}

void Simulator::link(std::uint32_t idx, std::uint64_t tk) {
  std::uint32_t& head = wheel_[tk & kWheelMask];
  entry(idx).next = head;
  head = idx;
  ++wheel_count_;
}

void Simulator::at(SimTime t, Action fn) {
  assert(t >= now_ && "Simulator::at: scheduling in the past");
  if (t < now_) t = now_;  // clamp policy when asserts are compiled out
  if (free_ == kNil) add_block();
  const std::uint32_t idx = free_;
  Event& ev = entry(idx);
  free_ = ev.next;
  ev.time = t;
  ev.seq = next_seq_++;
  ev.fn = std::move(fn);
  ++pending_;

  const std::uint64_t tk = tick_of(t);
  const Order o{t, ev.seq, idx};
  if (tk <= cur_tick_) {
    // Lands in the tick being executed (or is clamped into it). Its seq
    // is the largest yet, so when nothing waits in late_ and its time is
    // no earlier than order_'s last entry it sorts last and extends
    // order_. Otherwise the late-arrival heap tracks it, and pop_order's
    // exact (time, seq) merge of the two keeps the global total order.
    if (late_.empty() && !order_.empty() && t >= order_.back().time) {
      order_.push_back(o);
    } else {
      late_.push_back(o);
      std::push_heap(late_.begin(), late_.end(), Later{});
    }
  } else if ((tk >> kWheelBits) == cur_chunk()) {
    link(idx, tk);
  } else {
    later_.push_back(o);
    std::push_heap(later_.begin(), later_.end(), Later{});
  }
}

void Simulator::ensure_current() {
  while (head_ == order_.size() && late_.empty()) {
    assert(pending_ > 0);
    order_.clear();
    head_ = 0;
    if (wheel_count_ == 0) {
      // The chunk is dry: jump the cursor to the earliest later event and
      // move its whole chunk into the wheel. The heap pops in (time, seq)
      // order, so the new current tick's events reach order_ sorted.
      assert(!later_.empty());
      cur_tick_ = tick_of(later_.front().time);
      while (!later_.empty() &&
             (tick_of(later_.front().time) >> kWheelBits) == cur_chunk()) {
        std::pop_heap(later_.begin(), later_.end(), Later{});
        const Order o = later_.back();
        later_.pop_back();
        const std::uint64_t tk = tick_of(o.time);
        if (tk == cur_tick_) {
          order_.push_back(o);
        } else {
          link(o.idx, tk);
        }
      }
    } else {
      // The next event is inside the current chunk: walk the tick cursor
      // to the next occupied slot (bounded by the chunk size) and sort
      // its list into order_.
      std::uint32_t* slot;
      do {
        ++cur_tick_;
        slot = &wheel_[cur_tick_ & kWheelMask];
      } while (*slot == kNil);
      for (std::uint32_t i = *slot; i != kNil;) {
        const Event& ev = entry(i);
        order_.push_back(Order{ev.time, ev.seq, i});
        i = ev.next;
      }
      *slot = kNil;
      wheel_count_ -= order_.size();
      // Keys are unique (seq is), so the sort is a deterministic total
      // order.
      std::sort(order_.begin(), order_.end(), Earlier{});
    }
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
  // Move the action out and free its entry before invoking: the
  // handler's at() may reuse that very entry.
  Event& ev = entry(o.idx);
  Action fn = std::move(ev.fn);
  ev.next = free_;
  free_ = o.idx;
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
