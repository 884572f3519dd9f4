// The acceptance gate of the parallel sweep runtime: running any cell
// grid with jobs > 1 must produce output BYTE-IDENTICAL to the serial
// jobs = 1 run — same AveragedRun fields (including the FP accumulation
// order of every mean), same ChaosReport::render() text, same bench
// tables. Scheduling order is the only thing allowed to vary.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/runner.h"
#include "experiments/table.h"
#include "fault/chaos_run.h"
#include "runtime/cells.h"
#include "runtime/sweep_pool.h"
#include "strategy/strategy.h"
#include "workload/population.h"

namespace cam {
namespace {

using exp::AveragedRun;

void expect_identical(const AveragedRun& a, const AveragedRun& b,
                      const std::string& label) {
  // Exact equality on doubles is the point: the ordered reduction must
  // replay the serial accumulation order bit for bit.
  EXPECT_EQ(a.expected, b.expected) << label;
  EXPECT_EQ(a.reached, b.reached) << label;
  EXPECT_EQ(a.duplicates, b.duplicates) << label;
  EXPECT_EQ(a.avg_children, b.avg_children) << label;
  EXPECT_EQ(a.avg_degree, b.avg_degree) << label;
  EXPECT_EQ(a.throughput_kbps, b.throughput_kbps) << label;
  EXPECT_EQ(a.provisioned_kbps, b.provisioned_kbps) << label;
  EXPECT_EQ(a.avg_path, b.avg_path) << label;
  EXPECT_EQ(a.max_depth, b.max_depth) << label;
  EXPECT_EQ(a.depth_histogram, b.depth_histogram) << label;
}

std::vector<runtime::CellSpec> sample_grid() {
  std::vector<runtime::CellSpec> cells;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const char* key : {"camchord", "camkoorde", "chord"}) {
      runtime::CellSpec cell;
      cell.strategy = key;
      workload::PopulationSpec spec;
      spec.n = 300;
      spec.ring_bits = 12;
      spec.seed = seed;
      cell.population = runtime::PopulationRecipe::uniform(spec, 4, 10);
      cell.sources = 2;
      cell.seed = seed;
      cell.params.uniform_degree = 8;
      cells.push_back(cell);
    }
  }
  return cells;
}

TEST(ParallelDeterminism, RunCellsMatchesSerialForAnyJobs) {
  const std::vector<runtime::CellSpec> cells = sample_grid();
  std::vector<AveragedRun> serial = runtime::run_cells(cells, {.jobs = 1});
  ASSERT_EQ(serial.size(), cells.size());

  for (std::size_t jobs : {std::size_t{4}, runtime::effective_jobs(0)}) {
    std::vector<AveragedRun> parallel =
        runtime::run_cells(cells, {.jobs = jobs});
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(serial[i], parallel[i],
                       "cell " + std::to_string(i) + " jobs " +
                           std::to_string(jobs));
    }
  }
}

TEST(ParallelDeterminism, SharedFrozenDirectoryAcrossConcurrentCells) {
  // Many cells reading ONE prebuilt FrozenDirectory concurrently — the
  // documented safe-sharing case. Same seed => same result, and every
  // jobs level agrees.
  workload::PopulationSpec spec;
  spec.n = 350;
  spec.ring_bits = 12;
  spec.seed = 21;
  FrozenDirectory dir =
      workload::uniform_capacity_population(spec, 4, 10).freeze();
  std::vector<runtime::CellSpec> cells;
  for (int i = 0; i < 8; ++i) {
    runtime::CellSpec cell;
    cell.strategy = i % 2 == 0 ? "camchord" : "camkoorde";
    cell.prebuilt = &dir;
    cell.sources = 2;
    cell.seed = 5;
    cells.push_back(cell);
  }
  std::vector<AveragedRun> serial = runtime::run_cells(cells, {.jobs = 1});
  std::vector<AveragedRun> parallel = runtime::run_cells(cells, {.jobs = 8});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_identical(serial[i], parallel[i], "cell " + std::to_string(i));
    // Cells 0/2/4/6 are identical specs; they must agree exactly too.
    if (i >= 2) {
      expect_identical(parallel[i - 2], parallel[i],
                       "repeat cell " + std::to_string(i));
    }
  }
}

TEST(ParallelDeterminism, ChaosReportsRenderIdenticallyForAnyJobs) {
  // Full chaos worlds (async overlay + fault injector + telemetry) per
  // cell. render() includes the fault journal, violation list, and the
  // deterministic counter CSV — byte-comparing it is the strongest
  // cheap check that NOTHING in the protocol stack leaked across cells.
  fault::FaultPlan plan;
  plan.drop(0, 0.05).crash(1'000, 2).clear(6'000);
  std::vector<fault::ChaosCell> cells;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fault::ChaosCell cell;
    cell.cfg.system = seed % 2 == 0 ? "camkoorde" : "camchord";
    cell.cfg.n = 12;
    cell.cfg.bits = 10;
    cell.cfg.seed = seed;
    cell.cfg.mid_multicasts = 1;
    cell.plan = plan;
    cells.push_back(cell);
  }

  std::vector<fault::ChaosReport> serial = fault::run_chaos_cells(cells, 1);
  ASSERT_EQ(serial.size(), cells.size());
  std::vector<fault::ChaosReport> parallel =
      fault::run_chaos_cells(cells, 4);
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(serial[i].ok, parallel[i].ok) << "cell " << i;
    EXPECT_EQ(serial[i].render(), parallel[i].render()) << "cell " << i;
  }
}

TEST(ParallelDeterminism, TableOutputIdenticalAcrossJobs) {
  // End-to-end shape of a bench: cells -> rows -> rendered table. The
  // printed bytes must not depend on jobs.
  auto render = [](std::size_t jobs) {
    std::vector<runtime::CellSpec> cells;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      runtime::CellSpec cell;
      workload::PopulationSpec spec;
      spec.n = 250;
      spec.ring_bits = 12;
      spec.seed = seed;
      cell.population = runtime::PopulationRecipe::bandwidth_derived(
          spec, 100, 4);
      cell.sources = 2;
      cell.seed = seed;
      cells.push_back(cell);
    }
    std::vector<AveragedRun> runs = runtime::run_cells(cells, {.jobs = jobs});
    exp::Table t({"seed", "kbps", "path"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      t.add_row({std::to_string(cells[i].seed),
                 exp::fmt(runs[i].throughput_kbps, 1),
                 exp::fmt(runs[i].avg_path)});
    }
    std::ostringstream os;
    t.print(os);
    return os.str();
  };
  const std::string serial = render(1);
  EXPECT_EQ(render(4), serial);
  EXPECT_EQ(render(runtime::effective_jobs(0)), serial);
}

}  // namespace
}  // namespace cam
