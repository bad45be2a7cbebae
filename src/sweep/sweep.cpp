#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/model.hpp"
#include "core/planner.hpp"
#include "io/csv.hpp"
#include "sweep/point_cache.hpp"
#include "sweep/thread_pool.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pdos::sweep {

const char* scenario_kind_name(ScenarioKind kind) {
  return kind == ScenarioKind::kNs2Dumbbell ? "ns2" : "testbed";
}

std::pair<std::size_t, bool> PairIndex::insert(int a, int b,
                                               std::size_t slot) {
  const std::uint64_t key = key_of(a, b);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::uint64_t k) { return e.key < k; });
  if (it != entries_.end() && it->key == key) return {it->slot, false};
  entries_.insert(it, Entry{key, slot});
  return {slot, true};
}

std::size_t PairIndex::at(int a, int b) const {
  const std::uint64_t key = key_of(a, b);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::uint64_t k) { return e.key < k; });
  PDOS_CHECK_MSG(it != entries_.end() && it->key == key,
                 "PairIndex::at: key not present");
  return it->slot;
}

bool PairIndex::contains(int a, int b) const {
  const std::uint64_t key = key_of(a, b);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, std::uint64_t k) { return e.key < k; });
  return it != entries_.end() && it->key == key;
}

std::uint64_t replicate_seed(std::uint64_t base_seed, int replicate) {
  // Stream tag keeps sweep seeds disjoint from the in-run component
  // streams derived from the same base (see experiment.cpp).
  constexpr std::uint64_t kReplicateStream = 0x73776565'70000000ULL;  // "sweep"
  return derive_seed(base_seed,
                     kReplicateStream + static_cast<std::uint64_t>(replicate));
}

ScenarioConfig SweepSpec::make_scenario(const PointSpec& point) const {
  ScenarioConfig config = scenario == ScenarioKind::kNs2Dumbbell
                              ? ScenarioConfig::ns2_dumbbell(point.flows)
                              : ScenarioConfig::testbed(point.flows);
  config.queue = queue;
  config.backend = backend;
  config.seed = replicate_seed(base_seed, point.replicate);
  return config;
}

void SweepSpec::validate() const {
  PDOS_REQUIRE(replicates >= 1, "SweepSpec: need at least one replicate");
  PDOS_REQUIRE(gamma_points >= 2, "SweepSpec: need gamma_points >= 2");
  if (explicit_points.empty()) {
    PDOS_REQUIRE(!flow_counts.empty(), "SweepSpec: flow_counts is empty");
    PDOS_REQUIRE(!textents.empty(), "SweepSpec: textents is empty");
    PDOS_REQUIRE(!rattacks.empty(), "SweepSpec: rattacks is empty");
    for (int n : flow_counts) {
      PDOS_REQUIRE(n >= 1, "SweepSpec: flow counts must be >= 1");
    }
  } else {
    for (const PointSpec& point : explicit_points) {
      PDOS_REQUIRE(point.flows >= 1, "SweepSpec: flow counts must be >= 1");
    }
  }
  PDOS_REQUIRE(control.warmup >= 0.0, "SweepSpec: warmup_s must be >= 0");
  PDOS_REQUIRE(control.measure > 0.0, "SweepSpec: measure_s must be > 0");
  PDOS_REQUIRE(control.bin_width > 0.0, "SweepSpec: bin_width must be > 0");
  const double bins = control.horizon() / control.bin_width;
  if (bins > kMaxSeriesBins) {
    char what[200];
    std::snprintf(what, sizeof(what),
                  "SweepSpec: warmup_s + measure_s = %g s needs %.3g series "
                  "bins of %g s; the limit is %.0f bins",
                  control.horizon(), bins, control.bin_width, kMaxSeriesBins);
    throw ParameterError(what);
  }
}

std::vector<PointSpec> SweepSpec::enumerate() const {
  validate();
  std::vector<PointSpec> points;
  if (!explicit_points.empty()) {
    for (const PointSpec& point : explicit_points) {
      for (int rep = 0; rep < replicates; ++rep) {
        PointSpec copy = point;
        copy.replicate = rep;
        points.push_back(copy);
      }
    }
    return points;
  }
  for (int flows : flow_counts) {
    // C_Ψ depends only on the victim profile and pulse shape; reuse the
    // scenario across the inner axes.
    PointSpec probe;
    probe.flows = flows;
    const ScenarioConfig scenario_config = make_scenario(probe);
    const VictimProfile victim = scenario_config.victim_profile();
    for (Time textent : textents) {
      for (BitRate rattack : rattacks) {
        const double c_attack = rattack / scenario_config.bottleneck;
        std::vector<double> grid = gammas;
        if (grid.empty()) {
          const double cpsi = c_psi(victim, textent, c_attack);
          const double lo = std::max(0.1, cpsi + 0.02);
          const double hi = 0.95;
          for (int i = 0; i < gamma_points; ++i) {
            grid.push_back(lo + (hi - lo) * i / (gamma_points - 1));
          }
        }
        for (double gamma : grid) {
          if (gamma <= 0.0 || gamma >= 1.0) continue;
          if (gamma > c_attack) continue;  // needs T_space >= 0
          for (int rep = 0; rep < replicates; ++rep) {
            PointSpec point;
            point.flows = flows;
            point.textent = textent;
            point.rattack = rattack;
            point.gamma = gamma;
            point.kappa = kappa;
            point.replicate = rep;
            points.push_back(point);
          }
        }
      }
    }
  }
  return points;
}

std::size_t SweepResult::failures() const {
  std::size_t n = 0;
  for (const auto& point : points) {
    if (point.status == PointStatus::kFailed) ++n;
  }
  return n;
}

std::size_t SweepResult::completed() const {
  std::size_t n = 0;
  for (const auto& point : points) {
    if (point.status == PointStatus::kOk) ++n;
  }
  return n;
}

namespace {

std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string fmt(std::uint64_t value) {
  return std::to_string(value);
}

const char* status_name(PointStatus status) {
  switch (status) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kFailed: return "failed";
    case PointStatus::kSkipped: return "skipped";
  }
  return "?";
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void SweepResult::write_csv(std::ostream& out) const {
  CsvWriter csv(out, {"index", "scenario_flows", "textent_ms", "rattack_mbps",
                      "gamma", "kappa", "replicate", "seed", "status",
                      "c_psi", "analytic_degradation", "analytic_gain",
                      "shrew", "baseline_mbps", "goodput_mbps",
                      "measured_degradation", "measured_gain", "utilization",
                      "fairness", "timeouts", "fast_recoveries",
                      "attack_packets", "events", "error"});
  for (const auto& r : points) {
    csv.row({fmt(static_cast<std::uint64_t>(r.index)),
             std::to_string(r.point.flows), fmt(to_ms(r.point.textent)),
             fmt(to_mbps(r.point.rattack)), fmt(r.point.gamma),
             fmt(r.point.kappa), std::to_string(r.point.replicate),
             fmt(r.seed), status_name(r.status), fmt(r.c_psi),
             fmt(r.analytic_degradation), fmt(r.analytic_gain),
             r.shrew ? "1" : "0", fmt(to_mbps(r.baseline_goodput)),
             fmt(to_mbps(r.goodput)), fmt(r.measured_degradation),
             fmt(r.measured_gain), fmt(r.utilization), fmt(r.fairness),
             fmt(r.timeouts), fmt(r.fast_recoveries), fmt(r.attack_packets),
             fmt(r.events), r.error});
  }
}

void SweepResult::write_json(std::ostream& out) const {
  out << "[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& r = points[i];
    out << "  {\"index\": " << r.index << ", \"flows\": " << r.point.flows
        << ", \"textent_ms\": " << fmt(to_ms(r.point.textent))
        << ", \"rattack_mbps\": " << fmt(to_mbps(r.point.rattack))
        << ", \"gamma\": " << fmt(r.point.gamma)
        << ", \"kappa\": " << fmt(r.point.kappa)
        << ", \"replicate\": " << r.point.replicate
        << ", \"seed\": " << r.seed
        << ", \"status\": \"" << status_name(r.status) << "\""
        << ", \"c_psi\": " << fmt(r.c_psi)
        << ", \"analytic_degradation\": " << fmt(r.analytic_degradation)
        << ", \"analytic_gain\": " << fmt(r.analytic_gain)
        << ", \"shrew\": " << (r.shrew ? "true" : "false")
        << ", \"baseline_mbps\": " << fmt(to_mbps(r.baseline_goodput))
        << ", \"goodput_mbps\": " << fmt(to_mbps(r.goodput))
        << ", \"measured_degradation\": " << fmt(r.measured_degradation)
        << ", \"measured_gain\": " << fmt(r.measured_gain)
        << ", \"utilization\": " << fmt(r.utilization)
        << ", \"fairness\": " << fmt(r.fairness)
        << ", \"timeouts\": " << r.timeouts
        << ", \"fast_recoveries\": " << r.fast_recoveries
        << ", \"attack_packets\": " << r.attack_packets
        << ", \"events\": " << r.events
        << ", \"error\": \"" << json_escape(r.error) << "\"}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

void fill_cached_point(PointResult& slot, const CachedPoint& hit) {
  slot.c_psi = hit.c_psi;
  slot.analytic_degradation = hit.analytic_degradation;
  slot.analytic_gain = hit.analytic_gain;
  slot.shrew = hit.shrew;
  slot.baseline_goodput = hit.baseline_goodput;
  slot.goodput = hit.goodput;
  slot.measured_degradation = hit.measured_degradation;
  slot.measured_gain = hit.measured_gain;
  slot.utilization = hit.utilization;
  slot.fairness = hit.fairness;
  slot.timeouts = hit.timeouts;
  slot.fast_recoveries = hit.fast_recoveries;
  slot.attack_packets = hit.attack_packets;
  slot.events = hit.events;
  slot.status = PointStatus::kOk;
}

namespace {

/// Baseline goodput for one (flows, replicate) pair.
struct BaselineSlot {
  PointSpec probe;  // flows + replicate; attack axes unused
  BitRate goodput = 0.0;
  bool ok = false;
  std::string error;
};

/// Serialized progress bookkeeping shared by all workers.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total,
                const std::function<void(const SweepProgress&)>& callback)
      : total_(total),
        callback_(callback),
        start_(std::chrono::steady_clock::now()) {}

  void tick(bool cached) {
    if (!callback_) {
      done_.fetch_add(1, std::memory_order_relaxed);
      if (cached) cached_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    SweepProgress progress;
    progress.done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    progress.cached = cached_.fetch_add(cached ? 1 : 0,
                                        std::memory_order_relaxed) +
                      (cached ? 1 : 0);
    progress.total = total_;
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    // Cache hits replay in microseconds — weighting them at full cost made
    // --resume ETAs absurd (an all-hit replay predicted hours). Average the
    // elapsed wall time over the SIMULATED tasks only and predict the
    // remaining mix at the hit rate observed so far; with no simulated task
    // yet (pure replay) the remaining work rounds to zero.
    const std::size_t simulated = progress.done - progress.cached;
    if (simulated > 0) {
      const double per_task =
          progress.elapsed_seconds / static_cast<double>(simulated);
      const double simulated_share = static_cast<double>(simulated) /
                                     static_cast<double>(progress.done);
      progress.eta_seconds = per_task *
                             static_cast<double>(total_ - progress.done) *
                             simulated_share;
    }
    callback_(progress);
  }

 private:
  std::size_t total_;
  const std::function<void(const SweepProgress&)>& callback_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> cached_{0};
  std::mutex mutex_;
};

/// Warm ScenarioWorkspaces for the sweep's workers. Each worker runs tasks
/// serially, so the pool never holds more workspaces than threads; a
/// released workspace keeps its arena blocks, scheduler slabs, and container
/// capacities hot for the next task.
class WorkspacePool {
 public:
  std::unique_ptr<ScenarioWorkspace> acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        auto workspace = std::move(idle_.back());
        idle_.pop_back();
        return workspace;
      }
    }
    return std::make_unique<ScenarioWorkspace>();
  }

  void release(std::unique_ptr<ScenarioWorkspace> workspace) {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(workspace));
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ScenarioWorkspace>> idle_;
};

/// A contiguous run of result rows (or baselines): one point's replicates,
/// or one fluid task of up to kFluidBatchWidth unique attack plans.
struct TaskGroup {
  std::size_t first = 0;
  std::size_t count = 0;
};

bool same_point_axes(const PointSpec& a, const PointSpec& b) {
  return a.flows == b.flows && a.textent == b.textent &&
         a.rattack == b.rattack && a.gamma == b.gamma && a.kappa == b.kappa;
}

/// Group consecutive entries whose axes match (`enumerate()` emits the
/// replicate axis innermost, so a point's replicates are always adjacent).
template <typename GetSpec>
std::vector<TaskGroup> group_consecutive(std::size_t n, GetSpec&& spec_of) {
  std::vector<TaskGroup> groups;
  for (std::size_t i = 0; i < n; ++i) {
    if (!groups.empty()) {
      TaskGroup& last = groups.back();
      if (same_point_axes(spec_of(last.first), spec_of(i))) {
        ++last.count;
        continue;
      }
    }
    groups.push_back(TaskGroup{i, 1});
  }
  return groups;
}

/// Cut the fluid tier's entries into tasks: consecutive entries of one
/// flows block, at most kFluidBatchWidth unique attack plans per task,
/// a plan's entries (a point's replicates) never split. Every point of a
/// flows block shares one topology (make_scenario varies only in the seed,
/// which the fluid solver never reads), so each task is one solve_batch
/// call (DESIGN.md §14). A flows block's baselines are all the no-attack
/// plan, so they stay one task.
template <typename GetSpec>
std::vector<TaskGroup> group_plan_chunks(std::size_t n, bool baselines,
                                         GetSpec&& spec_of) {
  std::vector<TaskGroup> groups;
  std::size_t plans = 0;  // unique plans in groups.back()
  for (std::size_t i = 0; i < n; ++i) {
    if (!groups.empty()) {
      TaskGroup& last = groups.back();
      const PointSpec& prev = spec_of(last.first + last.count - 1);
      const PointSpec& point = spec_of(i);
      const bool new_plan = !baselines && !same_point_axes(prev, point);
      if (prev.flows == point.flows &&
          (!new_plan || plans < kFluidBatchWidth)) {
        ++last.count;
        if (new_plan) ++plans;
        continue;
      }
    }
    groups.push_back(TaskGroup{i, 1});
    plans = 1;
  }
  return groups;
}

CachedPoint to_cached_point(const PointResult& slot) {
  CachedPoint record;
  record.c_psi = slot.c_psi;
  record.analytic_degradation = slot.analytic_degradation;
  record.analytic_gain = slot.analytic_gain;
  record.shrew = slot.shrew;
  record.baseline_goodput = slot.baseline_goodput;
  record.goodput = slot.goodput;
  record.measured_degradation = slot.measured_degradation;
  record.measured_gain = slot.measured_gain;
  record.utilization = slot.utilization;
  record.fairness = slot.fairness;
  record.timeouts = slot.timeouts;
  record.fast_recoveries = slot.fast_recoveries;
  record.attack_packets = slot.attack_packets;
  record.events = slot.events;
  return record;
}

/// The analytic plan for a point. Depends on the scenario and the attack
/// axes only — never on the seed — so a replicate group shares one plan.
AttackPlan plan_point_attack(const ScenarioConfig& scenario,
                             const PointSpec& point) {
  AttackPlanRequest request;
  request.victim = scenario.victim_profile();
  request.textent = point.textent;
  request.rattack = point.rattack;
  request.kappa = point.kappa;
  request.attack_packet_bytes = scenario.attack_packet_bytes;
  request.victim_min_rto = scenario.tcp.rto_min;
  return plan_attack_at_gamma(request, point.gamma);
}

void fill_plan(PointResult& slot, const AttackPlan& plan) {
  slot.c_psi = plan.c_psi;
  slot.analytic_degradation = plan.predicted_degradation;
  slot.analytic_gain = plan.predicted_gain;
  slot.shrew = plan.shrew_harmonic.has_value();
}

void fill_measured(PointResult& slot, const GainMeasurement& measured,
                   BitRate baseline_goodput) {
  slot.baseline_goodput = baseline_goodput;
  slot.goodput = measured.run.goodput_rate;
  slot.measured_degradation = measured.degradation;
  slot.measured_gain = measured.gain;
  slot.utilization = measured.run.utilization;
  slot.fairness = measured.run.fairness_index;
  slot.timeouts = measured.run.total_timeouts;
  slot.fast_recoveries = measured.run.total_fast_recoveries;
  slot.attack_packets = measured.run.attack_packets_sent;
  slot.events = measured.run.events_executed;
  slot.status = PointStatus::kOk;
}

/// One unit of sweep work: a baseline slot or a row of the result table.
struct Task {
  bool baseline;
  std::size_t slot;
};

/// What resolving a task against the store decided.
enum class Resolution { kHit, kDeferred, kMiss };

/// The state of one run_sweep call and the one task protocol that
/// baselines, points, and drained tasks all share:
///   - resolve: lookup → claim → {hit, deferred to the drain pass, miss};
///   - finish:  store + tick on success, or release + error + tick.
/// A miss is computed in one of two ways: one warm ScenarioWorkspace run
/// (`compute`; every packet task, and every drained task), or as a lane of
/// a fluid plan chunk's batched solve (`run_fluid_group`). The pool's unit
/// of work is one task on the packet tier, and one plan chunk
/// (`group_plan_chunks`) on the fluid tier.
/// Without a store every task resolves as a miss.
class SweepRun {
 public:
  SweepRun(const SweepSpec& spec, const SweepOptions& options,
           SweepResult& result)
      : spec_(spec),
        options_(options),
        store_(options.store),
        result_(result),
        baselines_(unique_baselines(result.points, baseline_index_)),
        meter_(baselines_.size() + result.points.size(),
               options.on_progress) {}

  std::size_t cache_hits() const { return cache_hits_.load(); }
  std::size_t simulated() const { return simulated_.load(); }
  bool cancelled() const { return cancel_.load(std::memory_order_relaxed); }

  /// Every baseline, or every point, across the pool; then the drain of
  /// the tasks a claiming store deferred. Points need their baselines, so
  /// the baseline phase drains before the point phase starts.
  void run_phase(ThreadPool& pool, bool baselines) {
    const std::size_t n =
        baselines ? baselines_.size() : result_.points.size();
    if (spec_.backend == Backend::kFluid) {
      const std::vector<TaskGroup> groups = group_plan_chunks(
          n, baselines, [&](std::size_t i) -> const PointSpec& {
            return point_of(Task{baselines, i});
          });
      parallel_for(pool, groups.size(), [&](std::size_t g) {
        run_fluid_group(baselines, groups[g]);
      });
    } else {
      parallel_for(pool, n,
                   [&](std::size_t i) { run_task(Task{baselines, i}); });
    }
    drain();
  }

 private:
  using ClaimStatus = PointStore::ClaimStatus;

  static constexpr std::size_t kNoPlan = static_cast<std::size_t>(-1);

  /// Resolve one task and compute a miss with one warm workspace run.
  void run_task(Task task) {
    if (cancelled()) return skip(task);
    std::uint64_t key = 0;
    bool claimed = false;
    try {
      key = key_of(task);
      if (resolve(task, key, claimed) != Resolution::kMiss) return;
      compute(task);
      finish(task, key);
    } catch (const std::exception& e) {
      fail(task, key, claimed, e.what());
    }
  }

  /// The fluid-tier baselines or points of one plan chunk (DESIGN.md §14).
  /// The chunk shares one topology and the fluid solver never reads the
  /// seed, so the misses collapse to their unique attack plans (one
  /// no-attack lane for baselines), all solved in one run_fluid_batch
  /// call, and every task is finished from its plan's run. A point whose
  /// planner throws fails only its own rows. Bit-identical to computing
  /// each miss alone: solve_batch is bit-identical per lane to a single
  /// solve.
  void run_fluid_group(bool baselines, const TaskGroup& group) {
    struct Miss {
      Task task;
      std::uint64_t key = 0;
      bool claimed = false;
      std::size_t plan = kNoPlan;  // index into `plans`
    };
    std::vector<Miss> misses;
    for (std::size_t i = group.first; i < group.first + group.count; ++i) {
      Miss miss{Task{baselines, i}};
      if (cancelled()) {
        skip(miss.task);
        continue;
      }
      try {
        miss.key = key_of(miss.task);
        if (resolve(miss.task, miss.key, miss.claimed) == Resolution::kMiss) {
          misses.push_back(miss);
        }
      } catch (const std::exception& e) {
        fail(miss.task, miss.key, miss.claimed, e.what());
      }
    }
    if (misses.empty()) return;

    // The chunk's derived scenarios differ only in their (unread) seed.
    const ScenarioConfig scenario =
        spec_.make_scenario(point_of(misses.front().task));
    // Unique plans among the misses, each planned on its own: axes-equal
    // points (a point's replicates) stay adjacent, so one backward
    // comparison suffices. A plan that throws fails its point's misses.
    std::vector<std::optional<AttackPlan>> plans;  // nullopt: no attack
    std::optional<std::string> plan_error;  // set: this point's plan threw
    for (std::size_t k = 0; k < misses.size(); ++k) {
      Miss& miss = misses[k];
      const PointSpec& point = point_of(miss.task);
      if (k == 0 || (!baselines &&
                     !same_point_axes(point, point_of(misses[k - 1].task)))) {
        plan_error.reset();
        try {
          plans.push_back(baselines ? std::nullopt
                                    : std::optional<AttackPlan>(
                                          plan_point_attack(scenario, point)));
        } catch (const std::exception& e) {
          plan_error = e.what();
        }
      }
      if (plan_error) {
        fail(miss.task, miss.key, miss.claimed, *plan_error);
        continue;
      }
      miss.plan = plans.size() - 1;
    }
    if (plans.empty()) return;
    PDOS_CHECK_MSG(plans.size() <= kFluidBatchWidth,
                   "run_fluid_group: a task holds more plans than one batch");

    std::vector<RunResult> runs;
    try {
      std::vector<std::optional<PulseTrain>> attacks;
      for (const std::optional<AttackPlan>& plan : plans) {
        attacks.push_back(plan ? std::optional<PulseTrain>(plan->train)
                               : std::nullopt);
      }
      runs = run_fluid_batch(scenario, attacks, spec_.control);
    } catch (const std::exception& e) {
      for (const Miss& miss : misses) {
        if (miss.plan != kNoPlan) {
          fail(miss.task, miss.key, miss.claimed, e.what());
        }
      }
      return;
    }
    for (const Miss& miss : misses) {
      if (miss.plan == kNoPlan) continue;
      const RunResult& run = runs[miss.plan];
      try {
        if (baselines) {
          BaselineSlot& slot = baselines_[miss.task.slot];
          slot.goodput = run.goodput_rate;
          PDOS_REQUIRE(slot.goodput > 0.0, "baseline goodput is zero");
        } else {
          PointResult& row = result_.points[miss.task.slot];
          const BitRate baseline = baseline_for(row.point);
          const AttackPlan& plan = *plans[miss.plan];
          fill_plan(row, plan);
          fill_measured(row,
                        finish_gain(scenario, plan.train, row.point.kappa,
                                    baseline, RunResult(run)),
                        baseline);
        }
        finish(miss.task, miss.key);
      } catch (const std::exception& e) {
        fail(miss.task, miss.key, miss.claimed, e.what());
      }
    }
  }

  /// Resolve the tasks other processes held leases on: poll the store until
  /// each one's result lands, or its lease expires unfulfilled (a crashed
  /// peer) and the claim succeeds here, so the task runs locally. Every wait
  /// is bounded by the lease TTL, so the loop terminates; after a
  /// cancellation the remaining tasks are skipped without waiting.
  void drain() {
    const auto poll = std::chrono::duration<double>(
        std::max(1e-3, options_.claim_poll_seconds));
    while (!deferred_.empty()) {
      if (!cancelled()) {
        std::this_thread::sleep_for(poll);
        store_->refresh();
      }
      std::vector<Task> pending;
      pending.swap(deferred_);
      for (Task task : pending) run_task(task);  // re-defers busy tasks
    }
  }

  /// Unique (flows, replicate) pairs, in stable order of first appearance.
  static std::vector<BaselineSlot> unique_baselines(
      const std::vector<PointResult>& rows, PairIndex& index) {
    std::vector<BaselineSlot> slots;
    for (const PointResult& row : rows) {
      if (index.insert(row.point.flows, row.point.replicate, slots.size())
              .second) {
        slots.emplace_back();
        slots.back().probe = row.point;
      }
    }
    return slots;
  }

  /// The task's point: a baseline's probe carries its flows and replicate.
  const PointSpec& point_of(Task task) const {
    return task.baseline ? baselines_[task.slot].probe
                         : result_.points[task.slot].point;
  }

  std::uint64_t key_of(Task task) const {
    if (store_ == nullptr) return 0;
    const PointSpec& point = point_of(task);
    const std::uint64_t seed =
        replicate_seed(spec_.base_seed, point.replicate);
    return task.baseline ? baseline_key(spec_, point, seed)
                         : point_key(spec_, point, seed);
  }

  /// Read a stored result into the task's slot. A cached point carries
  /// everything, including its baseline, so it completes even when this
  /// run's baseline failed.
  bool lookup(Task task, std::uint64_t key) {
    if (task.baseline) {
      double goodput = 0.0;
      if (!store_->lookup_baseline(key, goodput)) return false;
      PDOS_REQUIRE(goodput > 0.0, "baseline goodput is zero");
      baselines_[task.slot].goodput = goodput;
      baselines_[task.slot].ok = true;
      return true;
    }
    CachedPoint cached;
    if (!store_->lookup_point(key, cached)) return false;
    fill_cached_point(result_.points[task.slot], cached);
    return true;
  }

  Resolution resolve(Task task, std::uint64_t key, bool& claimed) {
    if (store_ == nullptr) return Resolution::kMiss;
    if (!lookup(task, key)) {
      const ClaimStatus status = task.baseline ? store_->claim_baseline(key)
                                               : store_->claim_point(key);
      if (status == ClaimStatus::kBusy) {
        std::lock_guard<std::mutex> lock(mutex_);
        deferred_.push_back(task);
        return Resolution::kDeferred;
      }
      claimed = status == ClaimStatus::kAcquired;
      // kDone: the result landed after the lookup missed; read it back.
      if (claimed || !lookup(task, key)) return Resolution::kMiss;
    }
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    meter_.tick(true);
    return Resolution::kHit;
  }

  /// The attack points' baseline goodput; throws when it failed.
  BitRate baseline_for(const PointSpec& point) const {
    const BaselineSlot& baseline =
        baselines_[baseline_index_.at(point.flows, point.replicate)];
    if (!baseline.ok) {
      throw std::runtime_error("baseline failed: " + baseline.error);
    }
    return baseline.goodput;
  }

  /// One warm workspace run. A workspace whose run threw is dropped, not
  /// returned to the pool.
  void compute(Task task) {
    std::unique_ptr<ScenarioWorkspace> workspace;
    if (task.baseline) {
      // The no-attack scenario, with the same seed as the attack points
      // it normalizes.
      BaselineSlot& slot = baselines_[task.slot];
      const ScenarioConfig scenario = spec_.make_scenario(slot.probe);
      workspace = workspaces_.acquire();
      slot.goodput = workspace->baseline(scenario, spec_.control);
      PDOS_REQUIRE(slot.goodput > 0.0, "baseline goodput is zero");
    } else {
      PointResult& row = result_.points[task.slot];
      const BitRate baseline = baseline_for(row.point);
      const ScenarioConfig scenario = spec_.make_scenario(row.point);
      const AttackPlan plan = plan_point_attack(scenario, row.point);
      fill_plan(row, plan);
      workspace = workspaces_.acquire();
      fill_measured(row,
                    workspace->gain(scenario, plan.train, row.point.kappa,
                                    spec_.control, baseline),
                    baseline);
    }
    workspaces_.release(std::move(workspace));
  }

  void finish(Task task, std::uint64_t key) {
    if (task.baseline) {
      if (store_ != nullptr) {
        store_->store_baseline(key, baselines_[task.slot].goodput);
      }
      baselines_[task.slot].ok = true;
    } else if (store_ != nullptr) {
      store_->store_point(key, to_cached_point(result_.points[task.slot]));
    }
    simulated_.fetch_add(1, std::memory_order_relaxed);
    meter_.tick(false);
  }

  /// Give up the claim, so a peer can retry at once, and record the cause.
  void fail(Task task, std::uint64_t key, bool claimed,
            const std::string& error) {
    if (claimed) {
      task.baseline ? store_->release_baseline(key)
                    : store_->release_point(key);
    }
    if (task.baseline) {
      baselines_[task.slot].error = error;
    } else {
      result_.points[task.slot].status = PointStatus::kFailed;
      result_.points[task.slot].error = error;
    }
    if (options_.cancel_on_failure) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!cancelled()) first_failure_ = error;
      cancel_.store(true, std::memory_order_relaxed);
    }
    meter_.tick(false);
  }

  /// A task not started because the sweep was cancelled; a skipped row
  /// keeps kSkipped and names the failure that cancelled the sweep.
  void skip(Task task) {
    std::string error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      error = "skipped: sweep cancelled after: " + first_failure_;
    }
    if (task.baseline) {
      baselines_[task.slot].error = error;
    } else {
      result_.points[task.slot].error = error;
    }
    meter_.tick(false);
  }

  const SweepSpec& spec_;
  const SweepOptions& options_;
  PointStore* store_;
  SweepResult& result_;
  PairIndex baseline_index_;  // (flows, replicate) → baselines_ slot
  std::vector<BaselineSlot> baselines_;
  ProgressMeter meter_;
  WorkspacePool workspaces_;
  std::atomic<bool> cancel_{false};
  std::atomic<std::size_t> cache_hits_{0};
  std::atomic<std::size_t> simulated_{0};
  std::mutex mutex_;               // guards the two members below
  std::string first_failure_;      // the error that cancelled the sweep
  std::vector<Task> deferred_;     // claims answered kBusy, for drain()
};

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<PointSpec> points = spec.enumerate();
  SweepResult result;
  result.points.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult& row = result.points[i];
    row.index = i;
    row.point = points[i];
    row.seed = replicate_seed(spec.base_seed, points[i].replicate);
  }

  ThreadPool pool(options.threads);
  result.threads = pool.size();
  SweepRun run(spec, options, result);
  run.run_phase(pool, /*baselines=*/true);
  run.run_phase(pool, /*baselines=*/false);

  result.cache_hits = run.cache_hits();
  result.simulated = run.simulated();
  result.cancelled = run.cancelled();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

std::vector<AggregateRow> aggregate_replicates(const SweepResult& result) {
  const std::vector<TaskGroup> groups = group_consecutive(
      result.points.size(),
      [&](std::size_t i) -> const PointSpec& { return result.points[i].point; });
  std::vector<AggregateRow> rows;
  rows.reserve(groups.size());
  for (const TaskGroup& group : groups) {
    AggregateRow row;
    row.point = result.points[group.first].point;
    row.point.replicate = 0;
    double sum_gain = 0.0;
    double sum_deg = 0.0;
    double sum_goodput = 0.0;
    std::vector<double> gains;
    std::vector<double> degs;
    gains.reserve(group.count);
    for (std::size_t j = 0; j < group.count; ++j) {
      const PointResult& r = result.points[group.first + j];
      if (r.status != PointStatus::kOk) continue;
      gains.push_back(r.measured_gain);
      degs.push_back(r.measured_degradation);
      sum_gain += r.measured_gain;
      sum_deg += r.measured_degradation;
      sum_goodput += r.goodput;
    }
    row.replicates = gains.size();
    if (!gains.empty()) {
      const double n = static_cast<double>(gains.size());
      row.mean_gain = sum_gain / n;
      row.mean_degradation = sum_deg / n;
      row.mean_goodput = sum_goodput / n;
      if (gains.size() > 1) {
        double ss_gain = 0.0;
        double ss_deg = 0.0;
        for (std::size_t k = 0; k < gains.size(); ++k) {
          ss_gain += (gains[k] - row.mean_gain) * (gains[k] - row.mean_gain);
          ss_deg += (degs[k] - row.mean_degradation) *
                    (degs[k] - row.mean_degradation);
        }
        // Sample (n-1) stddev; 95% half-width from the normal z — replicate
        // counts are small but this matches how the figure scripts plotted
        // their error bars.
        row.stddev_gain = std::sqrt(ss_gain / (n - 1.0));
        row.stddev_degradation = std::sqrt(ss_deg / (n - 1.0));
        row.ci95_gain = 1.96 * row.stddev_gain / std::sqrt(n);
        row.ci95_degradation = 1.96 * row.stddev_degradation / std::sqrt(n);
      }
    }
    rows.push_back(row);
  }
  return rows;
}

namespace {

/// Spread statistics (stddev/CI) are undefined below two replicates: the
/// CSV cell is left empty rather than printing a misleading 0 (or a NaN if
/// a caller aggregated rows by hand). JSON, which has no empty-number
/// notion, emits 0 for the same cases.
std::string spread_csv(double value, std::size_t replicates) {
  if (replicates < 2 || !std::isfinite(value)) return "";
  return fmt(value);
}

double spread_json(double value, std::size_t replicates) {
  if (replicates < 2 || !std::isfinite(value)) return 0.0;
  return value;
}

}  // namespace

void write_aggregate_csv(const std::vector<AggregateRow>& rows,
                         std::ostream& out) {
  CsvWriter csv(out, {"scenario_flows", "textent_ms", "rattack_mbps", "gamma",
                      "kappa", "replicates", "mean_gain", "stddev_gain",
                      "ci95_gain", "mean_degradation", "stddev_degradation",
                      "ci95_degradation", "mean_goodput_mbps"});
  for (const AggregateRow& r : rows) {
    csv.row({std::to_string(r.point.flows), fmt(to_ms(r.point.textent)),
             fmt(to_mbps(r.point.rattack)), fmt(r.point.gamma),
             fmt(r.point.kappa),
             fmt(static_cast<std::uint64_t>(r.replicates)), fmt(r.mean_gain),
             spread_csv(r.stddev_gain, r.replicates),
             spread_csv(r.ci95_gain, r.replicates), fmt(r.mean_degradation),
             spread_csv(r.stddev_degradation, r.replicates),
             spread_csv(r.ci95_degradation, r.replicates),
             fmt(to_mbps(r.mean_goodput))});
  }
}

void write_aggregate_json(const std::vector<AggregateRow>& rows,
                          std::ostream& out) {
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AggregateRow& r = rows[i];
    out << "  {\"flows\": " << r.point.flows
        << ", \"textent_ms\": " << fmt(to_ms(r.point.textent))
        << ", \"rattack_mbps\": " << fmt(to_mbps(r.point.rattack))
        << ", \"gamma\": " << fmt(r.point.gamma)
        << ", \"kappa\": " << fmt(r.point.kappa)
        << ", \"replicates\": " << r.replicates
        << ", \"mean_gain\": " << fmt(r.mean_gain)
        << ", \"stddev_gain\": " << fmt(spread_json(r.stddev_gain, r.replicates))
        << ", \"ci95_gain\": " << fmt(spread_json(r.ci95_gain, r.replicates))
        << ", \"mean_degradation\": " << fmt(r.mean_degradation)
        << ", \"stddev_degradation\": "
        << fmt(spread_json(r.stddev_degradation, r.replicates))
        << ", \"ci95_degradation\": "
        << fmt(spread_json(r.ci95_degradation, r.replicates))
        << ", \"mean_goodput_mbps\": " << fmt(to_mbps(r.mean_goodput)) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace pdos::sweep
