#include "sweep/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "sweep/campaign_store.hpp"
#include "sweep/thread_pool.hpp"
#include "util/assert.hpp"

namespace pdos::sweep {

namespace {

/// The key of every task of `spec`, as run_sweep dispatches them: each
/// point, and each (flows, replicate) pair's baseline where the pair first
/// appears. The size is the task total run_sweep reports for the spec.
std::vector<std::uint64_t> task_keys(const SweepSpec& spec) {
  const std::vector<PointSpec> points = spec.enumerate();
  const TaskKeys keyer(spec);
  std::vector<std::uint64_t> keys;
  PairIndex baseline_pairs;
  for (const PointSpec& point : points) {
    const std::uint64_t seed = replicate_seed(spec.base_seed, point.replicate);
    keys.push_back(keyer.point(point, seed));
    if (baseline_pairs
            .insert(point.flows, point.replicate, baseline_pairs.size())
            .second) {
      keys.push_back(keyer.baseline(point, seed));
    }
  }
  return keys;
}

std::size_t distinct_keys(const std::vector<std::uint64_t>& keys) {
  return std::unordered_set<std::uint64_t>(keys.begin(), keys.end()).size();
}

std::ofstream open_output(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // best effort
  }
  return std::ofstream(path);
}

}  // namespace

bool CampaignResult::ok() const {
  for (const CampaignSpecResult& s : specs) {
    if (s.result.failures() > 0 || s.result.cancelled) return false;
    for (const PointResult& p : s.result.points) {
      if (p.status != PointStatus::kOk) return false;
    }
  }
  return true;
}

std::size_t count_unique_tasks(const SweepSpec& spec) {
  return distinct_keys(task_keys(spec));
}

SweepResult replay_from_store(const SweepSpec& spec, const PointStore& store) {
  const std::vector<PointSpec> points = spec.enumerate();
  const TaskKeys keyer(spec);
  SweepResult result;
  result.points.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult& slot = result.points[i];
    slot.index = i;
    slot.point = points[i];
    slot.seed = replicate_seed(spec.base_seed, points[i].replicate);
    CachedPoint hit;
    if (store.lookup_point(keyer.point(slot.point, slot.seed), hit)) {
      fill_cached_point(slot, hit);
      ++result.cache_hits;
    }
  }
  return result;
}

CampaignResult run_campaign(const std::vector<CampaignSpec>& specs,
                            const CampaignOptions& options) {
  PDOS_REQUIRE(!specs.empty(), "run_campaign: no specs");
  const auto start = std::chrono::steady_clock::now();

  // One key-only pass: each spec's task total and unique task count, and
  // the campaign's unique task count.
  CampaignResult campaign;
  CampaignProgress progress;
  std::vector<std::size_t> spec_totals;
  {
    std::unordered_set<std::uint64_t> keys;
    for (const CampaignSpec& spec : specs) {
      const std::vector<std::uint64_t> tasks = task_keys(spec.spec);
      spec_totals.push_back(tasks.size());
      progress.total += tasks.size();
      campaign.specs.push_back({SweepResult{}, distinct_keys(tasks)});
      keys.insert(tasks.begin(), tasks.end());
    }
    campaign.unique_tasks = keys.size();
  }

  CampaignStore store(options.store_dir, options.lease_ttl_seconds);

  // Runs under run_sweep's serialized progress callback (and once more at
  // the end if the last task's report did not show every task done).
  double last_partial = 0.0;
  bool reported_done = false;
  const auto report = [&] {
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (options.partial_interval_seconds > 0.0 &&
        progress.elapsed_seconds - last_partial >=
            options.partial_interval_seconds) {
      last_partial = progress.elapsed_seconds;
      store.refresh();
      for (const CampaignSpec& spec : specs) {
        if (spec.csv_path.empty()) continue;
        std::ofstream out = open_output(spec.csv_path + ".partial");
        if (out.good()) replay_from_store(spec.spec, store).write_csv(out);
      }
    }
    if (options.on_progress) options.on_progress(progress);
    reported_done = progress.done == progress.total;
  };

  SweepOptions sweep_options;
  sweep_options.threads =
      (options.workers > 0 ? options.workers : ThreadPool::default_threads()) *
      std::max(1, options.threads);
  sweep_options.cancel_on_failure = !options.keep_going;
  sweep_options.store = &store;
  sweep_options.claim_poll_seconds = options.claim_poll_seconds;
  std::size_t specs_done = 0;    // tasks of the specs already swept
  std::size_t specs_cached = 0;  // of those, answered from the store
  if (options.on_progress || options.partial_interval_seconds > 0.0) {
    sweep_options.on_progress = [&](const SweepProgress& p) {
      progress.done = specs_done + p.done;
      progress.cached = specs_cached + p.cached;
      report();
    };
  }

  for (std::size_t si = 0; si < specs.size(); ++si) {
    const CampaignSpec& spec = specs[si];
    SweepResult& result = campaign.specs[si].result;
    result = run_sweep(spec.spec, sweep_options);
    campaign.worker_simulated += result.simulated;
    specs_done += spec_totals[si];
    specs_cached += result.cache_hits;
    if (!spec.csv_path.empty()) {
      std::ofstream out = open_output(spec.csv_path);
      PDOS_REQUIRE(out.good(), "cannot open output: " + spec.csv_path);
      result.write_csv(out);
    }
    if (!spec.json_path.empty()) {
      std::ofstream out = open_output(spec.json_path);
      PDOS_REQUIRE(out.good(), "cannot open output: " + spec.json_path);
      result.write_json(out);
    }
  }
  if (!reported_done) {
    progress.done = specs_done;
    progress.cached = specs_cached;
    report();
  }

  campaign.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return campaign;
}

}  // namespace pdos::sweep
