#include "runtime/cells.h"

#include <algorithm>

#include "multicast/metrics.h"
#include "sim/latency.h"
#include "util/flat_table.h"
#include "util/rng.h"

namespace cam::runtime {

namespace {
/// Constant per-link propagation delay of stream and session cells.
constexpr double kLinkLatencyMs = 10.0;
}  // namespace

PopulationRecipe PopulationRecipe::uniform(
    const workload::PopulationSpec& spec, std::uint32_t lo,
    std::uint32_t hi) {
  PopulationRecipe r;
  r.model = Model::kUniform;
  r.spec = spec;
  r.cap_lo = lo;
  r.cap_hi = hi;
  return r;
}

PopulationRecipe PopulationRecipe::bandwidth_derived(
    const workload::PopulationSpec& spec, double per_link_kbps,
    std::uint32_t min_cap) {
  PopulationRecipe r;
  r.model = Model::kBandwidthDerived;
  r.spec = spec;
  r.per_link_kbps = per_link_kbps;
  r.min_cap = min_cap;
  return r;
}

FrozenDirectory PopulationRecipe::build() const {
  if (model == Model::kBandwidthDerived) {
    return workload::bandwidth_derived_population(spec, per_link_kbps,
                                                  min_cap)
        .freeze();
  }
  return workload::uniform_capacity_population(spec, cap_lo, cap_hi)
      .freeze();
}

exp::AveragedRun run_cell(const CellSpec& cell) {
  const auto& strat = strategy::registry().make(cell.strategy);
  if (cell.prebuilt != nullptr) {
    return exp::run_sources(strat, *cell.prebuilt, cell.sources, cell.seed,
                            cell.params);
  }
  FrozenDirectory dir = cell.population.build();
  return exp::run_sources(strat, dir, cell.sources, cell.seed, cell.params);
}

std::vector<exp::AveragedRun> run_cells(const std::vector<CellSpec>& cells,
                                        const RunOptions& opts) {
  return map_ordered(cells.size(), opts.jobs,
                     [&](std::size_t i) { return run_cell(cells[i]); });
}

namespace {

StreamCellResult stream_cell_on(const FrozenDirectory& dir,
                                const StreamCellSpec& cell) {
  StreamCellResult out;
  if (dir.size() == 0) return out;
  Rng rng(cell.seed);
  const Id source = dir.ids()[rng.next_below(dir.size())];
  const MulticastTree tree = strategy::registry()
                                 .make(cell.strategy)
                                 .build_tree(dir, source, cell.params);

  // The hotspot is the busiest relay: most children among non-source
  // interior nodes, ties to the smallest id. Counted through a FlatMap
  // and resolved by an explicit scan so hash-map iteration order never
  // leaks into the result.
  bool has_hotspot = false;
  if (cell.hotspot_factor != 1.0) {
    FlatMap<Id, std::size_t> children;
    children.reserve(tree.size());
    for (const auto& [id, rec] : tree.entries()) {
      if (id == tree.source()) continue;
      ++children[rec.parent];
    }
    for (const auto& [id, count] : children) {
      if (id == tree.source()) continue;
      if (count > out.hotspot_children ||
          (count == out.hotspot_children && has_hotspot &&
           id < out.hotspot)) {
        out.hotspot = id;
        out.hotspot_children = count;
        has_hotspot = true;
      }
    }
  }

  auto bw = [&](Id x) {
    double kbps = dir.info(x).bandwidth_kbps;
    if (has_hotspot && x == out.hotspot) kbps *= cell.hotspot_factor;
    return kbps;
  };
  out.analytic_kbps = tree_throughput_kbps(tree, bw);

  ConstantLatency lat(kLinkLatencyMs);
  dataplane::BackpressureForwarder forwarder(tree, lat, cell.fwd);
  forwarder.resolve_uplinks(bw);
  out.stats = forwarder.run(cell.traffic);
  return out;
}

}  // namespace

StreamCellResult run_stream_cell(const StreamCellSpec& cell) {
  if (cell.prebuilt != nullptr) return stream_cell_on(*cell.prebuilt, cell);
  FrozenDirectory dir = cell.population.build();
  return stream_cell_on(dir, cell);
}

std::vector<StreamCellResult> run_cells(
    const std::vector<StreamCellSpec>& cells, const RunOptions& opts) {
  return map_ordered(cells.size(), opts.jobs,
                     [&](std::size_t i) { return run_stream_cell(cells[i]); });
}

namespace {

SessionCellResult session_cell_on(const FrozenDirectory& dir,
                                  const SessionCellSpec& cell) {
  SessionCellResult out;
  if (dir.size() == 0) return out;

  session::SessionLayer layer(dir, strategy::registry().make(cell.strategy));
  const std::vector<workload::SessionEvent> events =
      workload::generate_events(cell.plan, dir, cell.seed);
  out.apply = session::apply_events(layer, events);
  out.counters = layer.counters();
  out.groups = layer.group_count();
  for (session::GroupId g : layer.group_ids()) {
    out.memberships += layer.group(g)->size();
  }
  out.max_utilization = layer.ledger().max_utilization();
  out.check_violations = layer.check().size();

  std::vector<session::GroupTraffic> traffic;
  for (session::GroupId g : layer.group_ids()) {
    if (cell.stream_groups != 0 && traffic.size() >= cell.stream_groups) {
      break;
    }
    if (layer.group(g)->size() < 2) continue;
    session::GroupTraffic t;
    t.group = g;
    t.num_packets = cell.stream_packets;
    traffic.push_back(t);
  }
  if (!traffic.empty()) {
    ConstantLatency lat(kLinkLatencyMs);
    session::MultiGroupForwarder forwarder(layer, lat, cell.fwd);
    out.stats = forwarder.run(traffic);
  }
  return out;
}

}  // namespace

SessionCellResult run_session_cell(const SessionCellSpec& cell) {
  if (cell.prebuilt != nullptr) return session_cell_on(*cell.prebuilt, cell);
  FrozenDirectory dir = cell.population.build();
  return session_cell_on(dir, cell);
}

std::vector<SessionCellResult> run_cells(
    const std::vector<SessionCellSpec>& cells, const RunOptions& opts) {
  return map_ordered(cells.size(), opts.jobs, [&](std::size_t i) {
    return run_session_cell(cells[i]);
  });
}

}  // namespace cam::runtime
