// Shared immutable bench fixtures.
//
// Several benches sweep many cells over the same population (micro_ops
// and engine_sweep the 20k-node paper setup, the table ablations one
// ring per capacity). shared_directory() builds each population once
// per process and hands every caller the same frozen snapshot. Nothing
// is read from or written to disk: every run builds its populations
// from the current code.
#pragma once

#include <cstdint>

#include "overlay/directory.h"
#include "workload/population.h"

namespace cam::benchfix {

/// Frozen uniform-capacity population, built once per process. The
/// reference stays valid for the life of the process.
const FrozenDirectory& shared_directory(const workload::PopulationSpec& spec,
                                        std::uint32_t cap_lo,
                                        std::uint32_t cap_hi);

/// Same, for constant-capacity populations (the figure benches sweep
/// degree c over the same 20k ring).
const FrozenDirectory& shared_constant_directory(
    const workload::PopulationSpec& spec, std::uint32_t cap);

/// The paper's Section 6 population family (capacities U[4..10], seed 5)
/// at any scale: micro_ops sweeps 20k, engine_scale 20k / 200k / 1M.
/// The ring grows with n to keep the id space at least 32x the
/// population; 20k keeps the paper's 19 bits.
const FrozenDirectory& paper_directory(std::size_t n);

}  // namespace cam::benchfix
