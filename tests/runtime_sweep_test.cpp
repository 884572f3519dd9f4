// Sweep engine unit tests: every cell runs exactly once, results land in
// cell order for any jobs count, one lane runs inline on the caller,
// exceptions propagate (lowest cell index wins), and a blocked cell
// provably does not stall the others.
#include "runtime/sweep_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cam::runtime {
namespace {

TEST(EffectiveJobs, ZeroMeansHardwareConcurrency) {
  std::size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(effective_jobs(0), hw == 0 ? 1 : hw);
  EXPECT_EQ(effective_jobs(1), 1u);
  EXPECT_EQ(effective_jobs(7), 7u);
}

TEST(ForEachCell, RunsEveryCellExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                           std::size_t{16}}) {
    std::vector<std::atomic<int>> hits(37);
    for_each_cell(hits.size(), jobs,
                  [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "cell " << i << " jobs " << jobs;
    }
  }
}

TEST(ForEachCell, ZeroCellsIsANoop) {
  for_each_cell(0, 4, [](std::size_t) { FAIL() << "no cell should run"; });
}

TEST(ForEachCell, MoreJobsThanCellsStillRunsEachOnce) {
  std::vector<std::atomic<int>> hits(3);
  for_each_cell(hits.size(), 16,
                [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForEachCell, OneLaneRunsInlineOnTheCaller) {
  // jobs = 1, and any jobs with a single cell, start no thread: the
  // serial baseline runs on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const std::size_t cells = jobs == 1 ? 10 : 1;
    for_each_cell(cells, jobs, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller) << "jobs " << jobs;
    });
  }
}

TEST(ForEachCell, BlockedCellDoesNotStallTheOthers) {
  // Two lanes, four cells: cell 0 blocks its lane until every OTHER cell
  // has finished, which the second lane can only do by taking cells 1, 2
  // and 3 from the shared cursor. Deterministic: no timing assumptions,
  // the condition variable forces the schedule even on one core.
  std::mutex mu;
  std::condition_variable cv;
  int others_done = 0;
  for_each_cell(4, 2, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      cv.wait(lock, [&] { return others_done == 3; });
    } else {
      ++others_done;
      cv.notify_all();
    }
  });
  EXPECT_EQ(others_done, 3);
}

TEST(MapOrdered, ResultsLandInCellOrderForAnyJobs) {
  auto expected = [](std::size_t i) { return i * i + 1; };
  std::vector<std::size_t> serial =
      map_ordered(64, 1, [&](std::size_t i) { return expected(i); });
  for (std::size_t jobs : {std::size_t{2}, std::size_t{4},
                           effective_jobs(0)}) {
    std::vector<std::size_t> parallel =
        map_ordered(64, jobs, [&](std::size_t i) { return expected(i); });
    EXPECT_EQ(parallel, serial) << "jobs " << jobs;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], expected(i));
  }
}

TEST(MapOrdered, ExceptionOfLowestFailingCellPropagates) {
  // Serial case: the lowest failing cell is simply the first reached.
  try {
    map_ordered(8, 1, [](std::size_t i) -> int {
      if (i >= 3) throw std::runtime_error("cell " + std::to_string(i));
      return 0;
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3");
  }
  // Parallel case: every cell fails. The shared cursor hands out cell 0
  // first and a lane runs the cell it took, so cell 0 always fails, and
  // its exception is the one rethrown whatever order the lanes fail in.
  try {
    map_ordered(16, 4, [](std::size_t i) -> int {
      throw std::runtime_error("cell " + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 0");
  }
}

TEST(MapOrdered, MoveOnlyishResultsViaVectors) {
  auto out = map_ordered(5, 2, [](std::size_t i) {
    return std::vector<int>(i, static_cast<int>(i));
  });
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].size(), i);
  }
}

}  // namespace
}  // namespace cam::runtime
