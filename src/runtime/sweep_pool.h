// Parallel sweep engine: runs independent simulation cells — one
// (system, config, seed) experiment each — on the lanes of a
// runtime::ShardTeam and reduces the results in cell-index order.
//
// Determinism contract: a cell is a pure function of its spec (every
// cell owns its Simulator, Network, Rng streams, and telemetry sinks —
// nothing in the protocol stack is global), and map_ordered() writes
// each result into the slot of its cell index, so the reduced output is
// byte-identical for any jobs count, including jobs = 1. The golden
// serial-vs-parallel tests in tests/parallel_determinism_test.cpp hold
// this line; scheduling order is the ONLY thing allowed to vary.
//
// Lanes take cell indices from one shared atomic cursor, so a lane that
// finishes a cheap cell simply takes the next one, and cell 0 is always
// the first handed out.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace cam::runtime {

/// Resolves a --jobs request: 0 means "one worker per hardware thread"
/// (at least 1); anything else is taken literally.
std::size_t effective_jobs(std::size_t requested);

/// Executes body(i) exactly once for every i in [0, cells) on a
/// ShardTeam of min(effective_jobs(jobs), cells) lanes and blocks until
/// all cells finished; one lane runs inline on the calling thread. If a
/// cell throws, lanes stop taking cells, and once every lane has stopped
/// the exception of the lowest-indexed failed cell is rethrown on the
/// caller's thread.
void for_each_cell(std::size_t cells, std::size_t jobs,
                   const std::function<void(std::size_t)>& body);

/// Runs fn(0..cells-1) through for_each_cell() and returns the results
/// in cell order — the ordered deterministic reduction every sweep
/// builds on. R must be default-constructible and movable.
template <class Fn>
auto map_ordered(std::size_t cells, std::size_t jobs, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> out(cells);
  for_each_cell(cells, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace cam::runtime
