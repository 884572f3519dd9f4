// ShardTeam: a fixed crew of persistent worker threads for the sharded
// event engine (sim/shard_group.h) and for cell sweeps
// (runtime/sweep_pool.h).
//
// The sharded engine synchronizes shards at every conservative time
// window (tens of thousands of barriers per run), so ShardTeam keeps its
// threads alive for the lifetime of the object and reuses them across
// run() calls through a generation-counting barrier: one mutex/cv round
// trip per window instead of a thread spawn. A sweep makes one run()
// call whose lanes take cells from a shared cursor.
//
// run(task) executes task(i) for every lane i in [0, size()); the caller
// runs lane 0 on its own thread and the workers run lanes 1..size()-1.
// run() returns only when every lane has finished, and the internal
// mutex hand-off makes the caller's writes before run() visible to the
// lanes and the lanes' writes visible to the caller after run() — the
// happens-before edge the shard outbox exchange relies on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cam::runtime {

class ShardTeam {
 public:
  using Task = std::function<void(std::size_t lane)>;

  /// Creates a team of `size` lanes (size - 1 worker threads; lane 0 is
  /// the caller). size == 1 degenerates to plain inline execution with
  /// no threads and no synchronization at all.
  explicit ShardTeam(std::size_t size);
  ~ShardTeam();

  ShardTeam(const ShardTeam&) = delete;
  ShardTeam& operator=(const ShardTeam&) = delete;

  std::size_t size() const { return size_; }

  /// Runs task(0..size()-1), one lane per thread, and blocks until all
  /// lanes complete. Not reentrant; the task must not call run().
  void run(const Task& task);

 private:
  void worker(std::size_t lane);

  std::size_t size_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped per run(); workers chase it
  std::size_t done_ = 0;          // workers finished this generation
  const Task* task_ = nullptr;
  bool stop_ = false;
};

}  // namespace cam::runtime
