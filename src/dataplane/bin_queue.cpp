#include "dataplane/bin_queue.h"

namespace cam::dataplane {

void Bin::reserve(std::size_t copies) {
  if (copies <= ring_.size()) return;
  // Rebuild the ring linearized from head so wrap arithmetic stays valid.
  std::vector<QueuedCopy> next(copies);
  for (std::size_t i = 0; i < count_; ++i) {
    next[i] = ring_[(head_ + i) % ring_.size()];
  }
  ring_ = std::move(next);
  head_ = 0;
}

void Bin::grow() {
  reserve(ring_.empty() ? 8 : ring_.size() * 2);
}

void Bin::push(const QueuedCopy& copy, std::uint32_t bytes) {
  if (count_ == ring_.size()) grow();
  ring_[(head_ + count_) % ring_.size()] = copy;
  ++count_;
  depth_bytes_ += bytes;
}

QueuedCopy Bin::pop(std::uint32_t bytes) {
  assert(count_ > 0);
  QueuedCopy out = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  --count_;
  assert(depth_bytes_ >= bytes);
  depth_bytes_ -= bytes;
  return out;
}

void BinQueue::reserve(std::size_t streams, std::size_t copies_per_bin) {
  index_.reserve(streams);
  bins_.reserve(streams);
  for (Bin& bin : bins_) bin.reserve(copies_per_bin);
  reserved_copies_ = copies_per_bin;
}

void BinQueue::push(std::uint64_t stream, const QueuedCopy& copy,
                    std::uint32_t bytes) {
  auto [it, inserted] = index_.try_emplace(
      stream, static_cast<std::uint32_t>(bins_.size()));
  if (inserted) {
    bins_.emplace_back();
    if (reserved_copies_ > 0) bins_.back().reserve(reserved_copies_);
  }
  Bin& bin = bins_[it->second];
  bin.push(copy, bytes);
  ++copies_;
  depth_bytes_ += bytes;
}

std::uint64_t BinQueue::depth_bytes(std::uint64_t stream) const {
  auto it = index_.find(stream);
  return it == index_.end() ? 0 : bins_[it->second].depth_bytes();
}

const Bin* BinQueue::select_fifo() const {
  const Bin* best = nullptr;
  for (const Bin& bin : bins_) {
    if (bin.empty()) continue;
    if (best == nullptr || bin.front().order < best->front().order) {
      best = &bin;
    }
  }
  return best;
}

const Bin* BinQueue::select_pressure() const {
  const Bin* best = nullptr;
  for (const Bin& bin : bins_) {
    if (bin.empty()) continue;
    if (best == nullptr || bin.depth_bytes() > best->depth_bytes() ||
        (bin.depth_bytes() == best->depth_bytes() &&
         bin.front().order < best->front().order)) {
      best = &bin;
    }
  }
  return best;
}

const Bin* BinQueue::select_stream(std::uint64_t stream) const {
  auto it = index_.find(stream);
  if (it == index_.end()) return nullptr;
  const Bin& bin = bins_[it->second];
  return bin.empty() ? nullptr : &bin;
}

const QueuedCopy* BinQueue::peek_stream(std::uint64_t stream) const {
  const Bin* bin = select_stream(stream);
  return bin == nullptr ? nullptr : &bin->front();
}

QueuedCopy BinQueue::pop_stream(std::uint64_t stream, std::uint32_t bytes) {
  return pop_from(select_stream(stream), bytes);
}

const QueuedCopy* BinQueue::peek_fifo() const {
  const Bin* bin = select_fifo();
  return bin == nullptr ? nullptr : &bin->front();
}

const QueuedCopy* BinQueue::peek_pressure() const {
  const Bin* bin = select_pressure();
  return bin == nullptr ? nullptr : &bin->front();
}

QueuedCopy BinQueue::pop_from(const Bin* bin, std::uint32_t bytes) {
  assert(bin != nullptr && "pop from an empty BinQueue");
  QueuedCopy out = const_cast<Bin*>(bin)->pop(bytes);
  --copies_;
  assert(depth_bytes_ >= bytes);
  depth_bytes_ -= bytes;
  return out;
}

QueuedCopy BinQueue::pop_fifo(std::uint32_t bytes) {
  return pop_from(select_fifo(), bytes);
}

QueuedCopy BinQueue::pop_pressure(std::uint32_t bytes) {
  return pop_from(select_pressure(), bytes);
}

}  // namespace cam::dataplane
