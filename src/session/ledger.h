// CapacityLedger: one node's uplink budget shared across every group it
// relays for.
//
// The paper's admission rule is per-tree: a node accepts children only
// while its capacity c_x (max direct multicast children, Section 2) has
// room. With thousands of concurrent groups multiplexed over ONE
// overlay, c_x is a *shared* budget: a node that forwards for five
// groups has provisioned five groups' worth of fanout out of the same
// uplink. The ledger generalizes the rule: every child a node takes on
// in ANY group debits one slot of c_x, a join that would push the sum
// past c_x is refused (the session layer then tries the next candidate
// parent or rejects the join), and the invariant
//
//     for every node x:  sum over groups g of fanout_g(x)  <=  c_x
//
// holds at every instant — checked by fault::SessionInvariantChecker
// and asserted in-bench by abl_manygroup.
//
// The ledger also prices the uplink: a group's bandwidth share at x is
// B_x * fanout_g(x) / (total debited fanout at x) — the per-link
// provisioning model of multicast/metrics.h generalized to many groups.
// A group that is the sole user of x gets the whole uplink, which is
// what keeps single-group session runs bit-identical to the legacy
// stream plane.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "overlay/directory.h"
#include "util/flat_table.h"

namespace cam::session {

/// Group identifier. Doubles as the dataplane stream id, so BinQueue
/// bins key on it directly.
using GroupId = std::uint64_t;

class CapacityLedger {
 public:
  /// Budgets come from the directory: capacity(x) = c_x slots,
  /// uplink(x) = B_x kbps. The directory must outlive the ledger.
  explicit CapacityLedger(const FrozenDirectory& dir);

  /// Takes one fanout slot at `node` for group `g`. Returns false (and
  /// changes nothing) if every slot of c_x is already debited.
  bool debit(Id node, GroupId g);

  /// Returns `count` slots debited to `g` at `node`. Credits past the
  /// debited amount are a session-layer bug (asserted).
  void credit(Id node, GroupId g, std::uint32_t count = 1);

  std::uint32_t capacity(Id node) const;
  /// Total slots debited at `node` across all groups.
  std::uint32_t used(Id node) const;
  /// Slots debited at `node` by group `g`.
  std::uint32_t used(Id node, GroupId g) const;
  std::uint32_t available(Id node) const;

  /// Group g's share of node's uplink: B_x * used(x,g) / used(x) kbps,
  /// or the full B_x when g is the only debtor (single-group sessions
  /// reproduce the legacy full-uplink plane exactly). Zero when g holds
  /// no slot at x.
  double share_kbps(Id node, GroupId g) const;

  /// Uplink bandwidth B_x (kbps) of a node, straight from the directory.
  double uplink_kbps(Id node) const;

  /// `node`'s directory entry (c_x and B_x), found in O(1).
  const NodeInfo& info(Id node) const { return dir_->info_at(row(node)); }

  /// Highest used/capacity ratio over all nodes (0 when nothing is
  /// debited) — the bench's ledger-utilization headline.
  double max_utilization() const;

  /// Nodes whose debited sum exceeds c_x. Always empty unless a caller
  /// bypassed debit(); the invariant pass and the bench assert on it.
  std::vector<Id> oversubscribed() const;

  // --- soft standby reservations (ISSUE 8) ----------------------------
  // A standby parent holds a *soft* claim on one of its free slots: the
  // reservation never blocks debit() (admission stays capacity-only, the
  // paper's rule), it only records intent so failover can prefer slots
  // that were set aside and the invariant pass can cross-check the
  // session layer's standby map against the ledger.

  /// Marks one soft slot at `node` for group `g`'s standby use.
  void reserve(Id node, GroupId g);
  /// Releases one reservation made by reserve(). Releasing more than
  /// was reserved is a session-layer bug (asserted).
  void unreserve(Id node, GroupId g);
  /// Soft slots reserved at `node` across all groups.
  std::uint32_t reserved(Id node) const;
  /// Soft slots reserved at `node` by group `g`.
  std::uint32_t reserved(Id node, GroupId g) const;
  /// Slack net of soft reservations, floored at zero: the headroom a
  /// *new* standby should prefer so standbys spread out.
  std::uint32_t unreserved_headroom(Id node) const;

  const FrozenDirectory& directory() const { return *dir_; }

 private:
  /// `node`'s row (its directory index), found by one hash probe.
  /// `node` must be in the directory.
  std::size_t row(Id node) const {
    const std::uint32_t r = rows_.find(node);
    assert(r != FlatIndex<Id>::kNoRow && "node is not in the directory");
    return r;
  }

  const FrozenDirectory* dir_;
  FlatIndex<Id> rows_;  // node -> dir index (rows inserted in dir order)
  std::vector<std::uint32_t> used_;                    // by dir index
  std::vector<FlatMap<GroupId, std::uint32_t>> by_group_;  // by dir index
  std::vector<std::uint32_t> reserved_;                // by dir index
  std::vector<FlatMap<GroupId, std::uint32_t>> reserved_by_group_;
};

}  // namespace cam::session
