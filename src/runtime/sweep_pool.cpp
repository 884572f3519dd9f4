#include "runtime/sweep_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "runtime/shard_team.h"

namespace cam::runtime {

std::size_t effective_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void for_each_cell(std::size_t cells, std::size_t jobs,
                   const std::function<void(std::size_t)>& body) {
  const std::size_t lanes = std::min(effective_jobs(jobs), cells);
  if (lanes <= 1) {
    for (std::size_t i = 0; i < cells; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  std::mutex err_mu;
  std::size_t err_cell = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  // ShardTeam::run() makes the lanes' writes (each cell's result slot)
  // visible to the caller once it returns. A lane catches every cell
  // exception itself: one escaping a worker thread would terminate.
  ShardTeam team(lanes);
  team.run([&](std::size_t) {
    while (!abort) {
      const std::size_t cell = cursor++;
      if (cell >= cells) return;  // every cell handed out
      try {
        body(cell);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (cell < err_cell) {
          err_cell = cell;
          err = std::current_exception();
        }
        abort = true;
        return;
      }
    }
  });
  if (err) std::rethrow_exception(err);
}

}  // namespace cam::runtime
