#include "fixture.h"

#include <map>
#include <mutex>
#include <tuple>

namespace cam::benchfix {

namespace {

// Every field that selects a population: the spec, whether the capacity
// is constant (cap_lo) or uniform in [cap_lo, cap_hi], and the bounds.
using MemoKey = std::tuple<std::size_t, int, std::uint64_t, double, double,
                           bool, std::uint32_t, std::uint32_t>;

const FrozenDirectory& shared(const workload::PopulationSpec& spec,
                              bool constant, std::uint32_t cap_lo,
                              std::uint32_t cap_hi) {
  static std::mutex mu;
  static auto* memo = new std::map<MemoKey, FrozenDirectory>();
  const MemoKey key{spec.n,          spec.ring_bits,  spec.seed,
                    spec.bw_lo_kbps, spec.bw_hi_kbps, constant,
                    cap_lo,          cap_hi};
  std::lock_guard<std::mutex> lock(mu);
  if (auto it = memo->find(key); it != memo->end()) return it->second;
  FrozenDirectory built =
      constant
          ? workload::constant_capacity_population(spec, cap_lo).freeze()
          : workload::uniform_capacity_population(spec, cap_lo, cap_hi)
                .freeze();
  return memo->emplace(key, std::move(built)).first->second;
}

}  // namespace

const FrozenDirectory& shared_directory(const workload::PopulationSpec& spec,
                                        std::uint32_t cap_lo,
                                        std::uint32_t cap_hi) {
  return shared(spec, false, cap_lo, cap_hi);
}

const FrozenDirectory& shared_constant_directory(
    const workload::PopulationSpec& spec, std::uint32_t cap) {
  return shared(spec, true, cap, cap);
}

const FrozenDirectory& paper_directory(std::size_t n) {
  workload::PopulationSpec spec;
  spec.n = n;
  spec.seed = 5;
  // Keep the ring at least 32x the population so random ids rarely
  // collide. n = 20k stays on the paper's 19-bit ring: the rule would
  // give it 20 bits and change micro_ops' and engine_scale's population.
  spec.ring_bits = 19;
  while (n != 20000 && (1ULL << spec.ring_bits) < 32ULL * n) ++spec.ring_bits;
  return shared_directory(spec, 4, 10);
}

}  // namespace cam::benchfix
