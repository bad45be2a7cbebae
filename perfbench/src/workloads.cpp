#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/experiment.hpp"
#include "core/optimizer.hpp"
#include "hooks.hpp"
#include "sweep/campaign.hpp"
#include "sweep/campaign_store.hpp"
#include "sweep/optimizer_cache.hpp"
#include "sweep/sweep.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

namespace sw = pdos::sweep;
namespace fs = std::filesystem;
using pdos::mbps;
using pdos::ms;
using pdos::sec;

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Peak resident set of this process in MB, plus that of the largest
/// waited-for child process (the campaign's workers), if any. The process's
/// own peak is VmHWM: getrusage's ru_maxrss would also count the image
/// that exec'd this one (run.py, which spawned it).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  double kb = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) kb = std::stod(line.substr(6));
  }
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return (kb + static_cast<double>(children.ru_maxrss)) / 1024.0;
}

/// Threads of this process, from /proc/self/status (-1 if unreadable).
int process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// Run `pass(traced)` until the budget is spent: untraced passes only, or,
/// with tracing, untraced and traced passes in turn. At least one pass of
/// each kind runs; after that a pass starts only if a typical pass of its
/// kind still ends within the budget. Records every untraced pass's wall
/// time, and the peak memory once the first pass is over: what one call
/// costs, before the allocator's retained memory grows with repetition.
template <class Pass>
void run_passes(const RunOptions& options, Outcome& out, Pass&& pass) {
  const std::int64_t start = now_ns();
  std::vector<double>& untraced = out.pass_seconds;
  std::vector<double> traced;
  while (true) {
    const bool want_traced = options.trace && traced.size() < untraced.size();
    std::vector<double>& kind = want_traced ? traced : untraced;
    if (!kind.empty() &&
        seconds_between(start, now_ns()) + median(kind) > options.seconds) {
      break;
    }
    const std::int64_t t0 = now_ns();
    pass(want_traced);
    kind.push_back(seconds_between(t0, now_ns()));
    if (untraced.size() == 1 && !want_traced) {
      out.first_pass_rss_mb = peak_rss_mb();
    }
  }
}

/// Medians of per-pass per-layer values.
std::map<std::string, double> median_per_key(
    const std::vector<std::map<std::string, double>>& samples) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& sample : samples) {
    for (const auto& [name, value] : sample) columns[name].push_back(value);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : columns) out[name] = median(std::move(values));
  return out;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// One sweep's spec and result table, as a traced pass saw them.
struct Table {
  const sw::SweepSpec* spec;
  const sw::SweepResult* result;
};

/// Per-layer values of one traced pass whose tree is rooted at span 0.
std::map<std::string, double> layer_values(const std::vector<Span>& spans,
                                           const std::vector<Table>& tables) {
  std::map<std::string, double> v;
  for (const auto& [layer, seconds] : layer_self_seconds(spans, 0)) {
    v["self." + layer + "_s"] = seconds;
  }
  v["trace.accounted_frac"] = accounted_fraction(spans, 0);

  const LaneStats lanes = lane_stats(spans, "sweep.run", "sweep.lane");
  v["sweep.worker_busy_frac"] = lanes.busy_fraction;
  v["sweep.tail_s"] = lanes.tail_seconds;
  const std::vector<double> tasks = durations_of(spans, "sweep.task");
  v["sweep.task_p50_ms"] = median(tasks) * 1e3;
  v["sweep.task_max_ms"] =
      tasks.empty() ? 0.0 : *std::max_element(tasks.begin(), tasks.end()) * 1e3;

  double packet_events = 0.0;
  double fluid_steps = 0.0;
  double fluid_rows = 0.0;
  double fluid_solves = 0.0;
  for (const Table& t : tables) {
    const bool fluid = t.spec->backend == pdos::Backend::kFluid;
    for (const sw::PointResult& p : t.result->points) {
      if (fluid) {
        fluid_rows += 1.0;
        // Replicates of one point share its seed-invariant solve.
        if (p.point.replicate == 0) {
          fluid_solves += 1.0;
          fluid_steps += static_cast<double>(p.events);
        }
        continue;
      }
      packet_events += static_cast<double>(p.events);
      v["sim.events"] += static_cast<double>(p.events);
      v["tcp.timeouts"] += static_cast<double>(p.timeouts);
      v["tcp.fast_recoveries"] += static_cast<double>(p.fast_recoveries);
      v["attack.packets"] += static_cast<double>(p.attack_packets);
    }
  }
  if (packet_events > 0.0) {
    v["core.packet_ns_per_event"] =
        sum(durations_of(spans, "core.packet_run")) * 1e9 / packet_events;
  }
  if (fluid_rows > 0.0) {
    v["fluid.steps"] = fluid_steps;
    v["fluid.solves_per_row"] = fluid_solves / fluid_rows;
    if (fluid_steps > 0.0) {
      v["fluid.ns_per_lane_step"] =
          sum(durations_of(spans, "fluid.solve")) * 1e9 / fluid_steps;
    }
  }

  for (const std::string call : {"store.lookup", "store.claim", "store.append"}) {
    const std::vector<double> calls = durations_of(spans, call);
    v[call + "_us"] = median(calls) * 1e6;
    v[call + "_calls"] = static_cast<double>(calls.size());
  }
  v["store.open_s"] = median(durations_of(spans, "store.open"));
  return v;
}

/// Every traced pass must nest correctly and its layer self times must add
/// up to its wall time within 10%.
void check_trace(CheckLog& log, const std::vector<Span>& spans,
                 const std::string& label) {
  const std::vector<std::string> errors = nesting_errors(spans);
  log.check(errors.empty(), label + ": span nesting: " +
                                (errors.empty() ? "" : errors.front()));
  const double accounted = accounted_fraction(spans, 0);
  log.check(accounted > 0.9 && accounted < 1.1,
            label + ": layer self times cover " +
                std::to_string(accounted) + " of the wall time");
}

/// Record `text` as the workload's table on the first pass; later passes
/// must reproduce it byte for byte.
void check_same_table(CheckLog& log, std::string& first,
                      const std::string& text, const std::string& label) {
  if (first.empty()) {
    first = text;
    return;
  }
  log.check(text == first, label + ": output differs from the first pass");
}

void finish_overhead(Outcome& out, const std::vector<double>& untraced_rate,
                     const std::vector<double>& traced_rate) {
  if (untraced_rate.empty() || traced_rate.empty()) return;
  out.per_layer["trace.overhead_frac"] =
      1.0 - median(traced_rate) / median(untraced_rate);
}

std::uint64_t run_id_of(const RunOptions& options) {
  return options.seed * 0x9e3779b97f4a7c15ull ^
         static_cast<std::uint64_t>(::getpid());
}

const char* point_compute(const sw::SweepSpec& spec) {
  return spec.backend == pdos::Backend::kFluid ? "fluid.solve"
                                               : "core.packet_run";
}

const char* baseline_compute(const sw::SweepSpec& spec) {
  return spec.backend == pdos::Backend::kFluid ? "fluid.baseline"
                                               : "core.baseline";
}

/// run_sweep with `store` (a TracingStore over the sweep's real store) under
/// a "sweep.run" span.
sw::SweepResult traced_sweep(Tracer& tracer, TracingStore& store,
                             const sw::SweepSpec& spec,
                             sw::SweepOptions options, std::int64_t parent,
                             double weight = 1.0) {
  options.store = &store;
  const std::int64_t span = tracer.open("sweep.run", parent, weight);
  store.begin_sweep(span, point_compute(spec), baseline_compute(spec));
  sw::SweepResult result = sw::run_sweep(spec, options);
  tracer.close(span);
  store.end_sweep(result.threads);
  return result;
}

// --- fig06_sweep and fluid_grid: one run_sweep per pass ---------------------

/// The paper's Figs. 6-9 grid axes: flows {15,25,35,45} × T_extent
/// {50,75,100} ms × 15 auto γ, 8 s warmup + 40 s measurement.
sw::SweepSpec paper_grid(std::uint64_t seed) {
  sw::SweepSpec spec;
  spec.flow_counts = {15, 25, 35, 45};
  spec.textents = {ms(50), ms(75), ms(100)};
  spec.gamma_points = 15;
  spec.control.warmup = sec(8);
  spec.control.measure = sec(40);
  spec.base_seed = seed;
  return spec;
}

sw::SweepSpec fig06_spec(std::uint64_t seed) {
  sw::SweepSpec spec = paper_grid(seed);
  spec.rattacks = {mbps(25)};
  return spec;
}

sw::SweepSpec fluid_grid_spec(std::uint64_t seed) {
  sw::SweepSpec spec = paper_grid(seed);
  spec.backend = pdos::Backend::kFluid;
  spec.rattacks = {mbps(25), mbps(30), mbps(35), mbps(40)};
  spec.replicates = 8;
  return spec;
}

class SweepWorkload : public Workload {
 public:
  explicit SweepWorkload(sw::SweepSpec (*make_spec)(std::uint64_t))
      : make_spec_(make_spec) {}

  void prepare(const RunOptions& options) override {
    spec_ = make_spec_(options.seed);
    spec_.validate();
    rows_ = spec_.enumerate().size();
  }

  void run(const RunOptions& options, Outcome& out) override {
    std::vector<double> walls;
    std::vector<double> traced_walls;
    std::vector<std::map<std::string, double>> samples;
    std::string table;
    run_passes(options, out, [&](bool traced) {
      sw::SweepOptions sweep_options;
      sweep_options.threads = options.threads;
      if (!traced) {
        const std::int64_t t0 = now_ns();
        const sw::SweepResult result = sw::run_sweep(spec_, sweep_options);
        walls.push_back(seconds_between(t0, now_ns()));
        check_table(out.checks, result, rows_, "sweep");
        check_same_table(out.checks, table, csv_of(result), "sweep");
        return;
      }
      Tracer tracer(run_id_of(options));
      NullStore nothing;
      TracingStore store(nothing, tracer);
      const std::int64_t root = tracer.open("bench.pass", -1);
      const sw::SweepResult result =
          traced_sweep(tracer, store, spec_, sweep_options, root);
      tracer.close(root);
      const Span pass = tracer.get(root);
      traced_walls.push_back(seconds_between(pass.start_ns, pass.end_ns));
      check_table(out.checks, result, rows_, "traced sweep");
      check_same_table(out.checks, table, csv_of(result), "traced sweep");
      std::vector<Span> spans = tracer.spans();
      check_trace(out.checks, spans, "traced sweep");
      samples.push_back(layer_values(spans, {Table{&spec_, &result}}));
      out.traces.push_back(std::move(spans));
    });

    out.digest = fnv1a64(table);
    const auto rates = [&](const std::vector<double>& w) {
      std::vector<double> r;
      for (double s : w) r.push_back(static_cast<double>(rows_) / s);
      return r;
    };
    out.end_to_end = {
        {"points_per_s", median(rates(walls)), "1/s"},
        {"call_p50_s", median(walls), "s"},
        {"peak_rss_mb", out.first_pass_rss_mb, "MB"},
    };
    out.extras = {{"sweep_passes", static_cast<double>(walls.size()), "count"},
                  {"rows", static_cast<double>(rows_), "count"}};
    out.per_layer = median_per_key(samples);
    finish_overhead(out, rates(walls), rates(traced_walls));
  }

 private:
  sw::SweepSpec (*make_spec_)(std::uint64_t);
  sw::SweepSpec spec_;
  std::size_t rows_ = 0;
};

// --- gamma_search: serial search_confirm_gamma calls ------------------------

class GammaSearchWorkload : public Workload {
 public:
  void prepare(const RunOptions& options) override {
    searches_.clear();
    // The 12 Fig. 6 pulse shapes.
    for (int flows : {15, 25, 35, 45}) {
      for (double textent_ms : {50.0, 75.0, 100.0}) {
        pdos::GammaSearch s;
        s.scenario = pdos::ScenarioConfig::ns2_dumbbell(flows);
        s.textent = ms(textent_ms);
        s.rattack = mbps(25);
        s.control.warmup = sec(5);
        s.control.measure = sec(15);
        s.grid_points = 9;
        s.confirm_top = 3;
        searches_.push_back(s);
      }
    }
    // One LargeScale 1000-flow / 1 Gbps search on the fast backend, with
    // R_attack at the ns-2 scenario's 25/15 ratio to the bottleneck.
    pdos::GammaSearch large;
    large.scenario = pdos::ScenarioConfig::large_scale(1000);
    large.scenario.backend = pdos::Backend::kFast;
    large.textent = ms(50);
    large.rattack = large.scenario.bottleneck * (25.0 / 15.0);
    large.control.warmup = sec(1);
    large.control.measure = sec(2);
    large.grid_points = 9;
    large.confirm_top = 3;
    searches_.push_back(large);

    std::set<std::uint64_t> baselines;
    for (std::size_t i = 0; i < searches_.size(); ++i) {
      searches_[i].scenario.seed =
          sw::replicate_seed(options.seed, static_cast<int>(i));
      searches_[i].scenario.validate();
      baselines.insert(sw::fluid_baseline_key(searches_[i]));
    }
    distinct_baselines_ = baselines.size();
  }

  void run(const RunOptions& options, Outcome& out) override {
    std::vector<double> search_walls;
    std::vector<double> rates;
    std::vector<double> traced_rates;
    std::vector<std::map<std::string, double>> samples;
    std::vector<SearchRecord> records;
    std::string table;
    run_passes(options, out, [&](bool traced) {
      std::unique_ptr<Tracer> tracer;
      std::int64_t root = -1;
      if (traced) {
        tracer = std::make_unique<Tracer>(run_id_of(options));
        root = tracer->open("bench.pass", -1);
      }
      const std::int64_t pass_start = now_ns();
      records.clear();
      for (const pdos::GammaSearch& search : searches_) {
        SearchRecord record;
        record.flows = search.scenario.num_flows;
        record.textent_ms = search.textent / ms(1);
        record.rattack_mbps = search.rattack / mbps(1);
        if (!traced) {
          const std::int64_t t0 = now_ns();
          record.result = pdos::search_confirm_gamma(search);
          search_walls.push_back(seconds_between(t0, now_ns()));
        } else {
          TracingFluidCache cache;
          pdos::GammaSearch hooked = search;
          hooked.fluid_cache = &cache;
          const std::int64_t span = tracer->open("core.search", root);
          record.result = pdos::search_confirm_gamma(hooked);
          tracer->close(span);
          const Span s = tracer->get(span);
          const bool marked = cache.fluid_start_ns != 0 &&
                              cache.fluid_end_ns >= cache.fluid_start_ns;
          if (out.checks.check(marked, "fluid cache hook saw no fluid phase")) {
            tracer->add(Span{"core.search_base", s.start_ns,
                             cache.fluid_start_ns, span, 1.0});
            tracer->add(Span{"fluid.search", cache.fluid_start_ns,
                             cache.fluid_end_ns, span, 1.0});
            tracer->add(Span{"core.search_conf", cache.fluid_end_ns, s.end_ns,
                             span, 1.0});
          }
        }
        const std::vector<std::string> bad =
            search_violations(search, record.result);
        out.checks.check(bad.empty(),
                         "search: " + (bad.empty() ? "" : bad.front()));
        records.push_back(std::move(record));
      }
      const double rate = static_cast<double>(searches_.size()) /
                          seconds_between(pass_start, now_ns());
      check_same_table(out.checks, table, search_table(records),
                       traced ? "traced searches" : "searches");
      if (!traced) {
        rates.push_back(rate);
        return;
      }
      tracer->close(root);
      traced_rates.push_back(rate);
      std::vector<Span> spans = tracer->spans();
      check_trace(out.checks, spans, "traced searches");
      std::map<std::string, double> v = layer_values(spans, {});
      v["core.search.baseline_s"] = sum(durations_of(spans, "core.search_base"));
      v["core.search.fluid_s"] = sum(durations_of(spans, "fluid.search"));
      v["core.search.confirm_s"] = sum(durations_of(spans, "core.search_conf"));
      double packet_runs = 0.0;
      double fluid_runs = 0.0;
      for (const SearchRecord& r : records) {
        packet_runs += r.result.packet_runs;
        fluid_runs += r.result.fluid_runs;
      }
      v["core.search.packet_runs"] = packet_runs;
      v["core.search.fluid_runs"] = fluid_runs;
      v["core.search.baseline_reuse"] =
          static_cast<double>(distinct_baselines_) /
          static_cast<double>(searches_.size());
      samples.push_back(std::move(v));
      out.traces.push_back(std::move(spans));
    });

    out.digest = fnv1a64(table);
    const double p50 = median(search_walls);
    out.end_to_end = {
        {"points_per_s", median(rates), "1/s"},
        {"call_p50_s", p50, "s"},
        {"peak_rss_mb", out.first_pass_rss_mb, "MB"},
    };
    out.extras = {
        {"search_p50_s", p50, "s"},
        {"search_samples", static_cast<double>(search_walls.size()), "count"},
        {"fluid_gain_err", fluid_gain_error(records), "gain"},
        {"gamma_star_match", gamma_star_match(records), "ratio"},
    };
    out.per_layer = median_per_key(samples);
    finish_overhead(out, rates, traced_rates);
  }

 private:
  std::vector<pdos::GammaSearch> searches_;
  std::size_t distinct_baselines_ = 0;
};

// --- campaign: forked run_campaign over a fresh CampaignStore ---------------

constexpr int kResumesPerCold = 3;

/// One mirrored campaign worker (a forked child): what run_campaign's
/// worker does — open the shared store and run every spec through
/// run_sweep on one thread — with the store wrapped in a TracingStore.
/// Writes its spans to `path` and "bad_rows busy_claims" to `path.stats`.
int mirror_worker(const std::vector<sw::CampaignSpec>& specs,
                  const std::string& store_dir, int workers,
                  std::uint64_t run_id, const std::string& path) {
  Tracer tracer(run_id);
  const double weight = 1.0 / workers;
  const std::int64_t root = tracer.open("campaign.worker", -1, weight);
  const std::int64_t open = tracer.open("store.open", root, weight);
  sw::CampaignStore store(store_dir);
  tracer.close(open);
  TracingStore traced(store, tracer);
  std::uint64_t bad = 0;
  sw::SweepOptions options;
  options.threads = 1;
  for (const sw::CampaignSpec& spec : specs) {
    bad += bad_rows(
        traced_sweep(tracer, traced, spec.spec, options, root, weight));
  }
  tracer.close(root);
  std::ofstream(path) << format_spans(run_id, tracer.spans());
  std::ofstream(path + ".stats") << bad << " " << traced.busy_claims() << "\n";
  return bad == 0 ? 0 : 1;
}

class CampaignWorkload : public Workload {
 public:
  void prepare(const RunOptions& options) override {
    // A fast-backend packet slice: flows × T_extent {50,100} ms × γ
    // 0.1…0.8 × 4 replicates.
    sw::SweepSpec slice;
    slice.backend = pdos::Backend::kFast;
    slice.flow_counts = {15, 25, 35, 45};
    slice.textents = {ms(50), ms(100)};
    slice.rattacks = {mbps(25)};
    slice.gammas = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
    slice.replicates = 4;
    slice.control.warmup = sec(5);
    slice.control.measure = sec(15);
    slice.base_seed = options.seed;
    specs_ = {sw::CampaignSpec{slice, "", "", "packet_slice"},
              sw::CampaignSpec{fluid_grid_spec(options.seed), "", "",
                               "fluid_grid"}};
    rows_ = 0;
    for (const sw::CampaignSpec& s : specs_) {
      s.spec.validate();
      rows_ += s.spec.enumerate().size();
    }
    dir_ = options.work_dir + "/campaign-" + std::to_string(::getpid());
  }

  void run(const RunOptions& options, Outcome& out) override {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    std::vector<double> cold_walls;
    std::vector<double> resume_walls;
    std::vector<double> traced_walls;
    std::vector<std::map<std::string, double>> samples;
    std::string merged;  // concatenated merged CSVs of the first cold run
    run_passes(options, out, [&](bool traced) {
      if (!traced) {
        const std::string d = fresh_store();
        check_fork_safe(out.checks, "cold run_campaign");
        std::int64_t t0 = now_ns();
        const sw::CampaignResult cold =
            sw::run_campaign(specs_, campaign_options(options, d));
        cold_walls.push_back(seconds_between(t0, now_ns()));
        out.checks.check(cold.ok(), "cold campaign reports failures");
        check_same_table(out.checks, merged, merged_csv(out.checks, cold),
                         "campaign");
        for (int r = 0; r < kResumesPerCold; ++r) {
          check_fork_safe(out.checks, "resumed run_campaign");
          t0 = now_ns();
          const sw::CampaignResult again =
              sw::run_campaign(specs_, campaign_options(options, d));
          resume_walls.push_back(seconds_between(t0, now_ns()));
          out.checks.check(again.ok(), "resumed campaign reports failures");
          out.checks.check(again.worker_simulated + again.final_simulated == 0,
                           "resume simulated " +
                               std::to_string(again.worker_simulated +
                                              again.final_simulated) +
                               " tasks");
          out.checks.check(merged_csv(out.checks, again) == merged,
                           "resumed campaign CSVs differ from the cold run");
        }
        fs::remove_all(d);
        return;
      }
      samples.push_back(traced_pass(options, out, merged, traced_walls));
    });
    // In-process reference: the merged tables must be byte-identical to
    // plain run_sweep tables of the same specs. Last, because it starts
    // threads in this process.
    std::string reference;
    for (const sw::CampaignSpec& s : specs_) {
      sw::SweepOptions o;
      o.threads = options.threads;
      const sw::SweepResult r = sw::run_sweep(s.spec, o);
      check_table(out.checks, r, 0, "reference sweep");
      reference += csv_of(r);
    }
    out.checks.check(reference == merged,
                     "campaign CSVs differ from in-process run_sweep CSVs");
    fs::remove_all(dir_);

    out.digest = fnv1a64(merged);
    std::vector<double> rates;
    for (double w : cold_walls) rates.push_back(static_cast<double>(rows_) / w);
    std::vector<double> traced_rates;
    for (double w : traced_walls) {
      traced_rates.push_back(static_cast<double>(rows_) / w);
    }
    out.end_to_end = {
        {"points_per_s", median(rates), "1/s"},
        {"call_p50_s", median(resume_walls), "s"},
        {"peak_rss_mb", out.first_pass_rss_mb, "MB"},
    };
    out.extras = {
        {"resume_s", median(resume_walls), "s"},
        {"resume_samples", static_cast<double>(resume_walls.size()), "count"},
        {"cold_s", median(cold_walls), "s"},
        {"rows", static_cast<double>(rows_), "count"},
    };
    out.per_layer = median_per_key(samples);
    finish_overhead(out, rates, traced_rates);
  }

 private:
  /// A new, empty store directory.
  std::string fresh_store() {
    const std::string d = dir_ + "/store-" + std::to_string(stores_++);
    fs::remove_all(d);
    return d;
  }

  static sw::CampaignOptions campaign_options(const RunOptions& options,
                                              const std::string& store_dir) {
    sw::CampaignOptions o;
    o.store_dir = store_dir;
    o.workers = options.threads;
    o.threads = 1;
    return o;
  }

  /// Check every merged table and return their CSVs, concatenated.
  static std::string merged_csv(CheckLog& log, const sw::CampaignResult& r) {
    std::string text;
    for (const sw::CampaignSpecResult& s : r.specs) {
      check_table(log, s.result, 0, "campaign");
      text += csv_of(s.result);
    }
    return text;
  }

  /// run_campaign forks, so it must run in a process without other threads.
  static void check_fork_safe(CheckLog& log, const std::string& what) {
    const int threads = process_threads();
    log.check(threads == 1, what + " from a process with " +
                                std::to_string(threads) + " threads");
  }

  /// One traced pass: (A) a cold run_campaign whose on_progress callback
  /// marks the campaign layer's phases, then (B) a cold mirrored campaign
  /// whose forked workers and final replay go through a TracingStore.
  std::map<std::string, double> traced_pass(const RunOptions& options,
                                            Outcome& out,
                                            const std::string& merged,
                                            std::vector<double>& traced_walls) {
    std::map<std::string, double> v;
    const std::uint64_t run_id = run_id_of(options);
    const int workers = options.threads;

    // (A) run_campaign, seen through on_progress.
    {
      const std::string d = fresh_store();
      CampaignProgressSpans marks;
      sw::CampaignOptions o = campaign_options(options, d);
      o.on_progress = [&marks](const sw::CampaignProgress& p) { marks(p); };
      check_fork_safe(out.checks, "traced run_campaign");
      Tracer tracer(run_id);
      const std::int64_t root = tracer.open("campaign.run", -1);
      const sw::CampaignResult cold = sw::run_campaign(specs_, o);
      tracer.close(root);
      const Span run = tracer.get(root);
      out.checks.check(cold.ok(), "traced campaign reports failures");
      out.checks.check(merged_csv(out.checks, cold) == merged,
                       "traced campaign CSVs differ from the untraced run");
      if (out.checks.check(marks.first_report_ns != 0 && marks.all_done_ns != 0,
                           "run_campaign progress never reported completion")) {
        tracer.add(Span{"campaign.spawn", run.start_ns, marks.first_report_ns,
                        root, 1.0});
        tracer.add(Span{"campaign.workers", marks.first_report_ns,
                        marks.all_done_ns, root, 1.0});
        tracer.add(Span{"campaign.replay", marks.all_done_ns, run.end_ns,
                        root, 1.0});
        v["campaign.first_report_s"] =
            seconds_between(run.start_ns, marks.first_report_ns);
        v["campaign.replay_s"] = seconds_between(marks.all_done_ns, run.end_ns);
      }
      v["campaign.dup_ratio"] =
          static_cast<double>(cold.worker_simulated + cold.final_simulated) /
          static_cast<double>(cold.unique_tasks);
      std::vector<Span> spans = tracer.spans();
      check_trace(out.checks, spans, "traced run_campaign");
      out.traces.push_back(std::move(spans));
      fs::remove_all(d);
    }

    // (B) the mirrored campaign.
    const std::string d = fresh_store();
    Tracer tracer(run_id);
    const std::int64_t root = tracer.open("bench.pass", -1);
    check_fork_safe(out.checks, "mirrored campaign fork");
    std::fflush(nullptr);
    const std::int64_t pool = tracer.open("campaign.workers", root);
    std::vector<pid_t> pids;
    std::vector<std::string> paths;
    for (int w = 0; w < workers; ++w) {
      paths.push_back(d + ".w" + std::to_string(w));
      const pid_t pid = ::fork();
      if (pid == 0) {
        int code = 1;
        try {
          code = mirror_worker(specs_, d, workers, run_id, paths.back());
        } catch (...) {
          code = 1;
        }
        ::_exit(code);
      }
      out.checks.check(pid > 0, "fork failed");
      if (pid > 0) pids.push_back(pid);
    }
    for (pid_t pid : pids) {
      int status = 0;
      out.checks.check(::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                           WEXITSTATUS(status) == 0,
                       "mirrored campaign worker failed");
    }
    tracer.close(pool);

    // The merge replay run_campaign ends with, through the TracingStore.
    std::vector<sw::SweepResult> results;
    results.reserve(specs_.size());
    const std::int64_t replay = tracer.open("campaign.replay", root);
    const std::int64_t open = tracer.open("store.open", replay);
    sw::CampaignStore store(d);
    tracer.close(open);
    TracingStore traced(store, tracer);
    std::string text;
    sw::SweepOptions one_thread;
    one_thread.threads = 1;
    for (const sw::CampaignSpec& spec : specs_) {
      results.push_back(
          traced_sweep(tracer, traced, spec.spec, one_thread, replay));
      check_table(out.checks, results.back(), 0, "mirrored replay");
      out.checks.check(results.back().simulated == 0,
                       "mirrored replay simulated tasks");
      text += csv_of(results.back());
    }
    tracer.close(replay);
    tracer.close(root);

    // Collect the workers' spans after the pass: reading them is not part
    // of the campaign.
    const Span pool_span = tracer.get(pool);
    std::int64_t first_exit = 0;
    std::int64_t last_exit = 0;
    bool any_exit = false;
    double busy = 0.0;
    for (int w = 0; w < workers; ++w) {
      const std::int64_t lane =
          tracer.add(Span{"campaign.lane", pool_span.start_ns,
                          pool_span.end_ns, pool, 1.0 / workers});
      std::ifstream in(paths[static_cast<std::size_t>(w)]);
      std::stringstream file;
      file << in.rdbuf();
      std::uint64_t id = 0;
      std::vector<Span> child;
      if (!out.checks.check(parse_spans(file.str(), id, child) && id == run_id &&
                                !child.empty(),
                            "mirrored worker wrote no spans")) {
        continue;
      }
      first_exit = any_exit ? std::min(first_exit, child[0].end_ns)
                            : child[0].end_ns;
      last_exit = any_exit ? std::max(last_exit, child[0].end_ns)
                           : child[0].end_ns;
      any_exit = true;
      tracer.splice(child, lane);
      std::ifstream stats(paths[static_cast<std::size_t>(w)] + ".stats");
      std::uint64_t bad = 0;
      double claims_busy = 0.0;
      stats >> bad >> claims_busy;
      out.checks.check(bad == 0, "mirrored worker rows failed");
      busy += claims_busy;
    }
    v["campaign.worker_exit_spread_s"] = seconds_between(first_exit, last_exit);
    v["store.busy_claims"] = busy;
    double bytes = 0.0;
    for (const fs::directory_entry& e : fs::directory_iterator(d)) {
      if (e.is_regular_file()) bytes += static_cast<double>(e.file_size());
    }
    v["store.bytes"] = bytes;
    out.checks.check(text == merged,
                     "mirrored campaign CSVs differ from run_campaign's");
    const Span pass = tracer.get(root);
    traced_walls.push_back(seconds_between(pass.start_ns, pass.end_ns));

    std::vector<Span> spans = tracer.spans();
    check_trace(out.checks, spans, "mirrored campaign");
    std::vector<Table> tables;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      tables.push_back(Table{&specs_[i].spec, &results[i]});
    }
    for (const auto& [name, value] : layer_values(spans, tables)) {
      if (!v.count(name)) v[name] = value;
    }
    out.traces.push_back(std::move(spans));
    fs::remove_all(d);
    for (const std::string& p : paths) {
      fs::remove(p);
      fs::remove(p + ".stats");
    }
    return v;
  }

  std::vector<sw::CampaignSpec> specs_;
  std::size_t rows_ = 0;
  std::string dir_;
  int stores_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig06_sweep") return std::make_unique<SweepWorkload>(fig06_spec);
  if (name == "gamma_search") return std::make_unique<GammaSearchWorkload>();
  if (name == "fluid_grid") {
    return std::make_unique<SweepWorkload>(fluid_grid_spec);
  }
  if (name == "campaign") return std::make_unique<CampaignWorkload>();
  return nullptr;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"core.packet_ns_per_event", "ns"},
      {"core.search.baseline_s", "s"},
      {"core.search.fluid_s", "s"},
      {"core.search.confirm_s", "s"},
      {"core.search.packet_runs", "count"},
      {"core.search.fluid_runs", "count"},
      {"core.search.baseline_reuse", "ratio"},
      {"sweep.task_p50_ms", "ms"},
      {"sweep.task_max_ms", "ms"},
      {"sweep.worker_busy_frac", "ratio"},
      {"sweep.tail_s", "s"},
      {"fluid.steps", "count"},
      {"fluid.ns_per_lane_step", "ns"},
      {"fluid.solves_per_row", "ratio"},
      {"store.lookup_us", "us"},
      {"store.lookup_calls", "count"},
      {"store.claim_us", "us"},
      {"store.claim_calls", "count"},
      {"store.append_us", "us"},
      {"store.append_calls", "count"},
      {"store.open_s", "s"},
      {"store.bytes", "bytes"},
      {"store.busy_claims", "count"},
      {"campaign.first_report_s", "s"},
      {"campaign.worker_exit_spread_s", "s"},
      {"campaign.replay_s", "s"},
      {"campaign.dup_ratio", "ratio"},
      {"sim.events", "count"},
      {"tcp.timeouts", "count"},
      {"tcp.fast_recoveries", "count"},
      {"attack.packets", "count"},
      {"self.bench_s", "s"},
      {"self.sweep_s", "s"},
      {"self.core_s", "s"},
      {"self.fluid_s", "s"},
      {"self.store_s", "s"},
      {"self.campaign_s", "s"},
      {"trace.accounted_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"host.anchor_ms", "ms"},
  };
  return metrics;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
}

}  // namespace perfbench
