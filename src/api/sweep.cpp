#include "api/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "api/structure_sharing.h"
#include "support/mutex.h"

namespace lumos::api {

namespace {

/// One structure shared by the rows of one run(). Its leader publishes the
/// rebuilt graph and program exactly once (an empty structure when the
/// build failed); followers wait for that. The last row to finish releases
/// the structure, so a graph lives no longer than its rows need it.
class StructureSlot {
 public:
  void add_row() {
    MutexLock lock(mutex_);
    ++unfinished_;
  }
  void publish(SharedStructure built) {
    {
      MutexLock lock(mutex_);
      structure_ = std::move(built);
      published_ = true;
    }
    published_cv_.notify_all();
  }
  SharedStructure wait() {
    MutexLock lock(mutex_);
    while (!published_) published_cv_.wait(mutex_);
    return structure_;
  }
  void finish_row() {
    MutexLock lock(mutex_);
    if (--unfinished_ == 0) structure_ = {};
  }

 private:
  Mutex mutex_;
  CondVar published_cv_;
  bool published_ LUMOS_GUARDED_BY(mutex_) = false;
  SharedStructure structure_ LUMOS_GUARDED_BY(mutex_);
  std::size_t unfinished_ LUMOS_GUARDED_BY(mutex_) = 0;
};

void record(SweepRow& row, Result<Prediction> outcome) {
  if (outcome.is_ok()) {
    row.prediction = *std::move(outcome);
  } else {
    row.status = outcome.status();
  }
}

}  // namespace

SweepSchedule schedule_sweep(
    const std::vector<std::optional<workload::StructureKey>>& keys,
    std::size_t workers) {
  SweepSchedule out;
  out.structure_of.resize(keys.size());
  std::map<workload::StructureKey, std::size_t> by_key;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!keys[i]) continue;
    if (workers <= 1 && !by_key.empty() && !by_key.contains(*keys[i])) {
      by_key.clear();  // one worker: another key closes the open one
    }
    const auto [it, fresh] = by_key.try_emplace(*keys[i], out.leaders.size());
    if (fresh) out.leaders.push_back(i);
    out.structure_of[i] = it->second;
  }
  out.order.resize(keys.size());
  std::iota(out.order.begin(), out.order.end(), std::size_t{0});
  if (workers <= 1) return out;
  // Sort key: (wave, follower); ties keep submission order.
  std::vector<std::pair<std::size_t, bool>> rank(keys.size(), {0, true});
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (const std::optional<std::size_t> s = out.structure_of[i]) {
      rank[i] = {*s / workers, out.leaders[*s] != i};
    }
  }
  std::stable_sort(out.order.begin(), out.order.end(),
                   [&rank](std::size_t a, std::size_t b) {
                     return rank[a] < rank[b];
                   });
  return out;
}

std::string SweepReport::to_string() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%4s  %-24s %12s %9s  %s\n", "rank",
                "label", "makespan(ms)", "vs best", "status");
  out += line;
  const double best_ms =
      ranking.empty() ? 0.0 : rows[ranking.front()].makespan_ms();
  std::size_t rank = 1;
  for (std::size_t i : ranking) {
    const SweepRow& row = rows[i];
    const double ms = row.makespan_ms();
    const double delta = best_ms > 0.0 ? (ms / best_ms - 1.0) * 100.0 : 0.0;
    std::snprintf(line, sizeof(line), "%4zu  %-24s %12.2f %+8.1f%%  ok\n",
                  rank++, row.label.c_str(), ms, delta);
    out += line;
  }
  for (const SweepRow& row : rows) {
    if (row.ok()) continue;
    std::snprintf(line, sizeof(line), "%4s  %-24s %12s %9s  %s\n", "-",
                  row.label.c_str(), "-", "-",
                  row.status.to_string().c_str());
    out += line;
  }
  return out;
}

std::string FaultReport::to_string() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "baseline makespan: %.2f ms\n",
                static_cast<double>(baseline_makespan_ns) / 1e6);
  out += line;
  std::snprintf(line, sizeof(line), "%4s  %-28s %8s %12s %11s  %s\n", "rank",
                "fault", "severity", "makespan(ms)", "degradation",
                "path");
  out += line;
  std::size_t rank = 1;
  for (std::size_t i : ranking) {
    const FaultImpactRow& row = rows[i];
    std::snprintf(line, sizeof(line), "%4zu  %-28s %8.3g %12.2f %+10.2f%%  %s\n",
                  rank++, row.label.c_str(), row.severity,
                  static_cast<double>(row.makespan_ns) / 1e6,
                  row.degradation_pct,
                  row.used_compiled_replay ? "compiled" : "interpreter");
    out += line;
  }
  for (const FaultImpactRow& row : rows) {
    if (row.ok()) continue;
    std::snprintf(line, sizeof(line), "%4s  %-28s %8.3g %12s %11s  %s\n", "-",
                  row.label.c_str(), row.severity, "-", "-",
                  row.status.to_string().c_str());
    out += line;
  }
  return out;
}

Result<Sweep> Sweep::create(Scenario base, SweepOptions options) {
  Result<Session> session = Session::create(std::move(base));
  if (!session.is_ok()) return session.status();
  return over(*session, options);
}

Result<Sweep> Sweep::over(Session& session, SweepOptions options) {
  Result<BaselineArtifacts> base = session.share_baseline();
  if (!base.is_ok()) return base.status();
  return Sweep(*std::move(base), options);
}

Sweep& Sweep::add(std::string label, Scenario whatif) {
  items_.push_back({std::move(label), std::move(whatif), false});
  return *this;
}

Sweep& Sweep::add_scenario(std::string label, Scenario scenario) {
  items_.push_back({std::move(label), std::move(scenario), true});
  return *this;
}

Sweep& Sweep::on_result(std::function<void(const SweepRow&)> callback) {
  on_result_ = std::move(callback);
  return *this;
}

Status Sweep::add_parallelism_grid(const std::vector<std::string>& labels) {
  // Parse everything before adding anything: a malformed label rejects the
  // whole grid eagerly instead of leaving a half-added sweep behind.
  std::vector<workload::ParallelConfig> configs;
  configs.reserve(labels.size());
  for (const std::string& label : labels) {
    Result<workload::ParallelConfig> config = parse_parallelism(label);
    if (!config.is_ok()) return config.status();
    configs.push_back(*config);
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    Scenario whatif;
    if (base_.config && configs[i].tp != base_.config->tp) {
      // Recorded, and rejected with kUnsupported at run time — in its own
      // row, without poisoning siblings.
      whatif.with_tensor_parallelism(configs[i].tp);
    }
    whatif.with_scaled_parallelism(configs[i].pp, configs[i].dp);
    add(labels[i], std::move(whatif));
  }
  return Status::ok();
}

Status Sweep::add_parallelism_grid(const std::vector<std::int32_t>& pps,
                                   const std::vector<std::int32_t>& dps) {
  // Delegates to the label overload so both entry points share the same
  // eager validation and run-time semantics.
  const std::int32_t tp = base_.config ? base_.config->tp : 1;
  std::vector<std::string> labels;
  labels.reserve(pps.size() * dps.size());
  for (std::int32_t pp : pps) {
    for (std::int32_t dp : dps) {
      labels.push_back(std::to_string(tp) + "x" + std::to_string(pp) + "x" +
                       std::to_string(dp));
    }
  }
  return add_parallelism_grid(labels);
}

SweepRow Sweep::run_item(const Item& item) const {
  SweepRow row;
  row.label = item.label;
  row.scenario = item.scenario;
  row.standalone = item.standalone;
  try {
    if (item.standalone) {
      // Full independent pipeline: collect/load, parse, simulate. predict()
      // with no manipulations is the coupled replay of the scenario's own
      // baseline, so deadlocks surface as kDeadlock in this row only.
      Result<Session> session = Session::create(item.scenario);
      if (!session.is_ok()) {
        row.status = session.status();
        return row;
      }
      record(row, session->predict());
    } else {
      // Mirror Session::predict's contract: a what-if carries manipulations
      // only; baseline fields would be silently ignored.
      if (carries_baseline_fields(item.scenario)) {
        row.status = invalid_argument_error(
            "sweep variant '" + item.label +
            "' carries baseline fields; what-if variants take manipulations "
            "only (use add_scenario for standalone configurations)");
        return row;
      }
      record(row, predict_on(base_, item.scenario));
    }
  } catch (const std::exception& e) {
    // predict_on converts exceptions at the facade boundary already; this
    // is the last-resort belt so a worker thread can never terminate.
    row.status = internal_error(std::string("sweep variant '") + item.label +
                                "': " + e.what());
  }
  return row;
}

Result<SweepReport> Sweep::run(std::size_t workers) {
  if (items_.empty()) {
    return failed_precondition_error(
        "sweep has no variants; call add / add_scenario / "
        "add_parallelism_grid first");
  }
  SweepReport report;
  report.rows.resize(items_.size());

  std::size_t pool_size = workers != 0
                              ? workers
                              : std::thread::hardware_concurrency();
  if (pool_size == 0) pool_size = 1;
  pool_size = std::min(pool_size, items_.size());

  // Rebuilt rows that key to one structure share it: the leader builds
  // and compiles it, every other row costs its own duration column and
  // replays the leader's program with it.
  std::vector<std::optional<RebuildTarget>> targets(items_.size());
  std::vector<std::optional<workload::StructureKey>> keys(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].standalone) continue;
    targets[i] = shared_rebuild_target(base_, items_[i].scenario);
    if (targets[i]) keys[i] = targets[i]->key;
  }
  std::optional<SharedRebuilds> rebuilds;
  if (std::ranges::any_of(
          keys, [](const auto& key) { return key.has_value(); })) {
    try {
      rebuilds.emplace(base_);
    } catch (const std::exception&) {
      // Each row meets the same failure in its own run_item.
      std::fill(keys.begin(), keys.end(), std::nullopt);
    }
  }
  const SweepSchedule schedule = schedule_sweep(keys, pool_size);
  std::vector<StructureSlot> structures(schedule.leaders.size());
  for (const std::optional<std::size_t>& s : schedule.structure_of) {
    if (s) structures[*s].add_row();
  }

  const auto run_shared = [this, &targets, &schedule, &rebuilds,
                           &structures](std::size_t i) -> SweepRow {
    const Item& item = items_[i];
    const RebuildTarget& target = *targets[i];
    const std::size_t s = *schedule.structure_of[i];
    StructureSlot& slot = structures[s];
    SweepRow row;
    row.label = item.label;
    row.scenario = item.scenario;
    try {
      if (schedule.leaders[s] == i) {
        SharedStructure structure;
        try {
          record(row, rebuilds->build(target, structure));
        } catch (...) {
          slot.publish({});  // followers then rebuild for themselves
          throw;
        }
        slot.publish(std::move(structure));
      } else {
        // Cost first: the column needs no structure, so it overlaps the
        // leader's build instead of waiting on it.
        Result<std::vector<std::int64_t>> column = rebuilds->cost(target);
        if (!column.is_ok()) {
          row.status = column.status();
        } else if (std::optional<Prediction> shared =
                       rebuilds->replay(target, slot.wait(), *column)) {
          row.prediction = std::move(*shared);
        } else {
          // No program to share, or a column it refuses: rebuild.
          row = run_item(item);
        }
      }
    } catch (const std::exception& e) {
      row.status = internal_error(std::string("sweep variant '") +
                                  item.label + "': " + e.what());
    }
    slot.finish_row();
    return row;
  };

  // Each worker claims the next unclaimed item and writes its own row slot;
  // rows are keyed by submission index, so the gathered report is identical
  // whatever the interleaving — run(1) is the bit-identity reference.
  // Streaming callbacks fire in completion order, serialized under
  // `stream_mutex` (the documented on_result lock discipline); they never
  // affect the gathered rows.
  std::atomic<std::size_t> next{0};
  Mutex stream_mutex;
  const auto work = [this, &next, &schedule, &run_shared, &report,
                     &stream_mutex] {
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < schedule.order.size();
         k = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t i = schedule.order[k];
      report.rows[i] =
          schedule.structure_of[i] ? run_shared(i) : run_item(items_[i]);
      if (on_result_) {
        MutexLock lock(stream_mutex);
        try {
          on_result_(report.rows[i]);
        } catch (...) {
          // The row is already complete; a throwing callback must not
          // escape a worker thread (std::terminate) or the no-throw run()
          // API. Contained, the sweep just keeps going.
        }
      }
    }
  };
  // The calling thread is always worker 0, so the sweep completes even if
  // spawning extra workers fails (std::system_error under thread-resource
  // exhaustion must degrade to a smaller pool, not escape the no-throw API
  // or terminate via joinable-thread destruction).
  std::vector<std::thread> pool;
  pool.reserve(pool_size - 1);
  try {
    for (std::size_t i = 1; i < pool_size; ++i) pool.emplace_back(work);
  } catch (const std::system_error&) {
  }
  work();
  for (std::thread& t : pool) t.join();

  report.ranking.reserve(report.rows.size());
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    if (report.rows[i].ok()) report.ranking.push_back(i);
    if (report.rows[i].prediction &&
        report.rows[i].prediction->used_compiled_replay) {
      ++report.compiled_replays;
    }
  }
  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [&report](std::size_t a, std::size_t b) {
                     return report.rows[a].prediction->sim.makespan_ns <
                            report.rows[b].prediction->sim.makespan_ns;
                   });
  return report;
}

namespace {

std::string severity_suffix(double severity) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "@%g", severity);
  return std::string(buf);
}

}  // namespace

Result<FaultReport> Sweep::run_fault_grid(
    const faults::FaultSpec& spec, const std::vector<double>& severities,
    std::size_t workers) const {
  if (spec.empty()) {
    return invalid_argument_error(
        "fault grid needs a non-empty FaultSpec (compose slow_rank / "
        "degrade_link / with_jitter / with_contention / drop_rank first)");
  }
  if (const std::string err = spec.validate(); !err.empty()) {
    return invalid_argument_error("fault spec: " + err);
  }
  if (severities.empty()) {
    return invalid_argument_error("fault grid needs at least one severity");
  }
  for (const double s : severities) {
    if (!std::isfinite(s) || s < 0.0) {
      return invalid_argument_error(
          "fault-grid severities must be finite and >= 0");
    }
  }
  if (base_.graph != nullptr) {
    // Eager lowering probe: a spec naming a rank or collective group the
    // baseline graph does not have fails the whole grid here, once, instead
    // of stamping the same kInvalidArgument into every cell.
    const faults::FaultPlan probe = faults::FaultPlan::lower(*base_.graph, spec);
    if (!probe.ok()) {
      return invalid_argument_error("fault spec: " + probe.error());
    }
  }

  // The grid is itself a Sweep over the same shared baseline: one
  // fault-free row (the degradation denominator), the full composition at
  // each severity, and — when more than one fault model is composed — each
  // component alone at each severity for per-fault attribution. Riding
  // Sweep::run keeps the worker pool, row keying and per-row isolation
  // semantics in one place.
  Sweep grid(base_, SweepOptions{workers});
  grid.add("baseline", whatif());
  const std::vector<std::pair<std::string, faults::FaultSpec>> components =
      spec.components();
  struct CellMeta {
    std::string label;
    double severity;
  };
  std::vector<CellMeta> cells;  // parallel to grid items 1..N
  for (const double s : severities) {
    grid.add("all" + severity_suffix(s), whatif().with_faults(spec.scaled(s)));
    cells.push_back({"all", s});
    if (components.size() > 1) {
      for (const auto& [label, component] : components) {
        grid.add(label + severity_suffix(s),
                 whatif().with_faults(component.scaled(s)));
        cells.push_back({label, s});
      }
    }
  }

  Result<SweepReport> ran = grid.run(workers);
  if (!ran.is_ok()) return ran.status();
  const SweepRow& baseline = ran->rows.front();
  if (!baseline.ok()) {
    // Without a fault-free makespan there is no degradation denominator;
    // the baseline failing is a property of the sweep, not of any fault.
    return baseline.status;
  }
  FaultReport report;
  report.baseline_makespan_ns = baseline.prediction->sim.makespan_ns;
  const double base_ms = static_cast<double>(report.baseline_makespan_ns);
  report.rows.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepRow& row = ran->rows[i + 1];
    FaultImpactRow out;
    out.label = cells[i].label;
    out.severity = cells[i].severity;
    out.status = row.status;
    if (row.ok()) {
      out.makespan_ns = row.prediction->sim.makespan_ns;
      out.degradation_pct =
          base_ms > 0.0
              ? (static_cast<double>(out.makespan_ns) - base_ms) / base_ms *
                    100.0
              : 0.0;
      out.used_compiled_replay = row.prediction->used_compiled_replay;
    }
    report.rows.push_back(std::move(out));
  }
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    if (report.rows[i].ok()) report.ranking.push_back(i);
  }
  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [&report](std::size_t a, std::size_t b) {
                     return report.rows[a].degradation_pct >
                            report.rows[b].degradation_pct;
                   });
  return report;
}

}  // namespace lumos::api
