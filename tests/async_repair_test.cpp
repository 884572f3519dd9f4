// Delivery-repair layer: seeded jittered backoff schedule, the dedupe
// TTL / retransmission-tail clamp (exactly-once regression), and
// anti-entropy pull repair filling loss holes that fire-and-forget
// multicast leaves behind (the paper's resilience story, Section 2,
// extended with an end-to-end eventual-delivery contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "proto/async_camchord.h"
#include "proto/async_camkoorde.h"
#include "telemetry/sink.h"
#include "telemetry/trace.h"
#include "util/rng.h"

namespace cam::proto {
namespace {

using telemetry::EventType;

// --- backoff schedule -------------------------------------------------

TEST(RetryBackoff, SameInputsSameDelay) {
  AsyncConfig cfg;
  for (int attempt = 0; attempt < 6; ++attempt) {
    EXPECT_EQ(retry_backoff_ms(cfg, 42, 7, attempt),
              retry_backoff_ms(cfg, 42, 7, attempt));
  }
}

TEST(RetryBackoff, JitterStaysWithinBounds) {
  AsyncConfig cfg;
  for (Id self : {Id{1}, Id{977}, Id{4096}}) {
    for (std::uint64_t nonce : {1ULL, 99ULL, 0x6a6f696eULL}) {
      double nominal = static_cast<double>(kBackoffBaseMs);
      for (int attempt = 0; attempt <= 8; ++attempt) {
        const SimTime d = retry_backoff_ms(cfg, self, nonce, attempt);
        const double lo = nominal * (1.0 - cfg.backoff_jitter);
        const double hi = nominal * (1.0 + cfg.backoff_jitter);
        EXPECT_GE(static_cast<double>(d), lo - 1.0)
            << "self=" << self << " attempt=" << attempt;
        EXPECT_LE(static_cast<double>(d), hi)
            << "self=" << self << " attempt=" << attempt;
        nominal = std::min(nominal * kBackoffFactor,
                           static_cast<double>(kBackoffCapMs));
      }
    }
  }
}

TEST(RetryBackoff, NominalDoublesThenCaps) {
  AsyncConfig cfg;
  cfg.backoff_jitter = 0;  // isolate the deterministic schedule
  EXPECT_EQ(retry_backoff_ms(cfg, 5, 1, 0), kBackoffBaseMs);
  EXPECT_EQ(retry_backoff_ms(cfg, 5, 1, 1), kBackoffBaseMs * 2);
  EXPECT_EQ(retry_backoff_ms(cfg, 5, 1, 2), kBackoffBaseMs * 4);
  // 250 * 2^4 = 4000 hits the cap; later attempts stay pinned there.
  EXPECT_EQ(retry_backoff_ms(cfg, 5, 1, 4), kBackoffCapMs);
  EXPECT_EQ(retry_backoff_ms(cfg, 5, 1, 12), kBackoffCapMs);
}

TEST(RetryBackoff, DifferentNodesDesynchronize) {
  AsyncConfig cfg;
  // Same nonce + attempt across many nodes: a fixed-cadence scheduler
  // would return one value; the jitter must spread them out so a heal
  // doesn't release a synchronized retry storm.
  std::set<SimTime> delays;
  for (Id self = 1; self <= 64; ++self) {
    delays.insert(retry_backoff_ms(cfg, self, 3, 2));
  }
  EXPECT_GT(delays.size(), 32u);
}

TEST(RetryBackoff, TailCoversWorstCaseSchedule) {
  AsyncConfig cfg;
  cfg.multicast_retries = 4;
  // The tail must upper-bound every realizable retransmission schedule:
  // (retries+1) timeouts plus each inter-attempt backoff at its
  // jittered maximum.
  double worst = static_cast<double>(kRpcTimeoutMs) *
                 (cfg.multicast_retries + 1);
  for (int k = 0; k < cfg.multicast_retries; ++k) {
    double nominal = static_cast<double>(kBackoffBaseMs);
    for (int j = 0; j < k; ++j) nominal *= kBackoffFactor;
    nominal = std::min(nominal, static_cast<double>(kBackoffCapMs));
    worst += nominal * (1.0 + cfg.backoff_jitter);
  }
  EXPECT_GE(retransmit_tail_ms(cfg), static_cast<SimTime>(worst));

  cfg.multicast_retries = 0;  // fire-and-forget: one timeout, no backoff
  EXPECT_EQ(retransmit_tail_ms(cfg), kRpcTimeoutMs + 1);
}

// --- protocol fixtures ------------------------------------------------

template <typename Net>
struct Fixture {
  RingSpace ring{16};
  Simulator sim;
  UniformLatency lat{5, 25, 17};
  Network net{sim, lat};
  HostBus bus{net};
  Net overlay;
  Rng rng{31};

  explicit Fixture(AsyncConfig cfg = {}) : overlay{ring, bus, cfg} {}

  NodeInfo info() {
    return NodeInfo{static_cast<std::uint32_t>(rng.uniform(4, 10)),
                    400 + rng.next_double() * 600};
  }

  void grow(std::size_t n) {
    Id first = rng.next_below(ring.size());
    overlay.bootstrap(first, info());
    overlay.run_for(500);
    while (overlay.size() < n) {
      Id id = rng.next_below(ring.size());
      if (overlay.running(id)) continue;
      auto members = overlay.members_sorted();
      overlay.spawn(id, info(), members[rng.next_below(members.size())]);
      overlay.run_for(300);
    }
    SimTime deadline = sim.now() + 240'000;
    while (sim.now() < deadline && overlay.ring_consistency() < 1.0) {
      overlay.run_for(2'000);
    }
    overlay.run_for(60'000);  // entry refresh
  }
};

// --- dedupe TTL / retransmit-tail clamp regression --------------------

TEST(RepairDedupe, TinyTtlCannotBreakExactlyOnce) {
  // Regression: with stream_seen_ttl_ms shorter than the retransmission
  // tail, an eagerly evicted stream id would let a straggling
  // retransmission (lost ACK) redeliver — the eviction horizon must be
  // clamped to the tail.
  AsyncConfig cfg;
  cfg.multicast_retries = 4;
  cfg.stream_seen_ttl_ms = 1;  // absurdly small on purpose
  telemetry::Registry reg;  // sinks outlive the fixture's overlay
  telemetry::Tracer tracer(1 << 16, telemetry::kMilestoneEvents);
  Fixture<AsyncCamChordNet> fx(cfg);
  fx.grow(30);

  fx.overlay.set_telemetry({&reg, &tracer});

  fx.bus.set_loss(0.10, 7);  // plenty of lost ACKs -> retransmissions
  Id source = fx.overlay.members_sorted()[0];
  MulticastTree tree = fx.overlay.multicast(source);
  EXPECT_EQ(tree.size(), fx.overlay.size());
  ASSERT_EQ(tracer.dropped(), 0u);

  const std::uint64_t stream = fx.overlay.last_stream_id();
  std::map<Id, int> delivers;
  for (const auto& e : tracer.events()) {
    if (e.type == EventType::kMulticastDeliver && e.a == stream) {
      ++delivers[e.node];
    }
  }
  for (const auto& [id, cnt] : delivers) {
    EXPECT_EQ(cnt, 1) << "node " << id << " delivered stream " << stream
                      << " more than once past the dedupe layer";
  }
}

// --- anti-entropy pull repair ----------------------------------------

// Fire-and-forget (retries=0) under 10% loss drops whole delegated
// regions — FireAndForgetDropsUnderLoss pins that floor with repair
// off. With repair on, the anti-entropy digest exchange pulls every
// hole back in before the multicast snapshot quiesces.
TEST(RepairPull, AntiEntropyFillsLossHolesChord) {
  AsyncConfig cfg;
  cfg.multicast_retries = 0;
  ASSERT_TRUE(cfg.repair);  // the layer must default on
  Fixture<AsyncCamChordNet> fx(cfg);
  fx.grow(40);
  fx.bus.set_loss(0.10, 4242);
  Id source = fx.overlay.members_sorted()[3];
  MulticastTree tree = fx.overlay.multicast(source);
  EXPECT_EQ(tree.size(), fx.overlay.size());
}

TEST(RepairPull, AntiEntropyFillsLossHolesKoorde) {
  AsyncConfig cfg;
  cfg.multicast_retries = 0;
  Fixture<AsyncCamKoordeNet> fx(cfg);
  fx.grow(40);
  fx.bus.set_loss(0.10, 4242);
  Id source = fx.overlay.members_sorted()[5];
  MulticastTree tree = fx.overlay.multicast(source);
  EXPECT_EQ(tree.size(), fx.overlay.size());
}

TEST(RepairPull, PullsAreTracedAndCounted) {
  AsyncConfig cfg;
  cfg.multicast_retries = 0;
  telemetry::Registry reg;  // sinks outlive the fixture's overlay
  telemetry::Tracer tracer(
      1 << 16, telemetry::event_bit(EventType::kRepairPull) |
                   telemetry::event_bit(EventType::kRepairDigest));
  Fixture<AsyncCamChordNet> fx(cfg);
  fx.grow(40);

  fx.overlay.set_telemetry({&reg, &tracer});

  fx.bus.set_loss(0.10, 4242);
  Id source = fx.overlay.members_sorted()[3];
  MulticastTree tree = fx.overlay.multicast(source);
  ASSERT_EQ(tree.size(), fx.overlay.size());

  // Loss at retries=0 guarantees holes, so full coverage means the
  // repair layer actually worked: pulls were issued and journaled.
  EXPECT_GT(reg.value("repair.pulls"), 0u);
  EXPECT_GT(reg.value("repair.digests"), 0u);
  bool traced_pull = false;
  for (const auto& e : tracer.events()) {
    if (e.type == EventType::kRepairPull) traced_pull = true;
  }
  EXPECT_TRUE(traced_pull);
}

}  // namespace
}  // namespace cam::proto
