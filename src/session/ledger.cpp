#include "session/ledger.h"

#include <cassert>

namespace cam::session {

CapacityLedger::CapacityLedger(const FrozenDirectory& dir)
    : dir_(&dir),
      used_(dir.size(), 0),
      by_group_(dir.size()),
      reserved_(dir.size(), 0),
      reserved_by_group_(dir.size()) {
  rows_.reserve(dir.size());
  for (Id id : dir.ids()) rows_.insert(id);
}

bool CapacityLedger::debit(Id node, GroupId g) {
  const std::size_t idx = row(node);
  if (used_[idx] >= dir_->info_at(idx).capacity) return false;
  ++used_[idx];
  ++by_group_[idx][g];
  return true;
}

void CapacityLedger::credit(Id node, GroupId g, std::uint32_t count) {
  if (count == 0) return;
  const std::size_t idx = row(node);
  auto it = by_group_[idx].find(g);
  assert(it != by_group_[idx].end() && it->second >= count &&
         "credit exceeds the group's debits at this node");
  assert(used_[idx] >= count);
  it->second -= count;
  if (it->second == 0) by_group_[idx].erase(g);
  used_[idx] -= count;
}

std::uint32_t CapacityLedger::capacity(Id node) const {
  return info(node).capacity;
}

std::uint32_t CapacityLedger::used(Id node) const {
  return used_[row(node)];
}

std::uint32_t CapacityLedger::used(Id node, GroupId g) const {
  const auto& groups = by_group_[row(node)];
  auto it = groups.find(g);
  return it == groups.end() ? 0 : it->second;
}

std::uint32_t CapacityLedger::available(Id node) const {
  const std::size_t idx = row(node);
  return dir_->info_at(idx).capacity - used_[idx];
}

double CapacityLedger::uplink_kbps(Id node) const {
  return info(node).bandwidth_kbps;
}

double CapacityLedger::share_kbps(Id node, GroupId g) const {
  const std::size_t idx = row(node);
  const std::uint32_t mine = used(node, g);
  if (mine == 0) return 0;
  const double b = dir_->info_at(idx).bandwidth_kbps;
  return used_[idx] == mine
             ? b
             : b * static_cast<double>(mine) /
                   static_cast<double>(used_[idx]);
}

double CapacityLedger::max_utilization() const {
  double worst = 0;
  for (std::size_t i = 0; i < used_.size(); ++i) {
    const std::uint32_t cap = dir_->info_at(i).capacity;
    if (cap == 0) continue;
    const double u =
        static_cast<double>(used_[i]) / static_cast<double>(cap);
    if (u > worst) worst = u;
  }
  return worst;
}

void CapacityLedger::reserve(Id node, GroupId g) {
  const std::size_t idx = row(node);
  ++reserved_[idx];
  ++reserved_by_group_[idx][g];
}

void CapacityLedger::unreserve(Id node, GroupId g) {
  const std::size_t idx = row(node);
  auto it = reserved_by_group_[idx].find(g);
  assert(it != reserved_by_group_[idx].end() && it->second > 0 &&
         "unreserve without a matching reservation");
  assert(reserved_[idx] > 0);
  --it->second;
  if (it->second == 0) reserved_by_group_[idx].erase(g);
  --reserved_[idx];
}

std::uint32_t CapacityLedger::reserved(Id node) const {
  return reserved_[row(node)];
}

std::uint32_t CapacityLedger::reserved(Id node, GroupId g) const {
  const auto& groups = reserved_by_group_[row(node)];
  auto it = groups.find(g);
  return it == groups.end() ? 0 : it->second;
}

std::uint32_t CapacityLedger::unreserved_headroom(Id node) const {
  const std::size_t idx = row(node);
  const std::uint32_t cap = dir_->info_at(idx).capacity;
  const std::uint32_t committed = used_[idx] + reserved_[idx];
  return committed >= cap ? 0 : cap - committed;
}

std::vector<Id> CapacityLedger::oversubscribed() const {
  std::vector<Id> bad;
  for (std::size_t i = 0; i < used_.size(); ++i) {
    if (used_[i] > dir_->info_at(i).capacity) bad.push_back(dir_->ids()[i]);
  }
  return bad;
}

}  // namespace cam::session
