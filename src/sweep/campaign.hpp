// Campaign orchestration: a batch of sweep specs over one CampaignStore.
//
// A campaign is one or more submitted sweep specs run in this process, one
// after another, each through the ordinary `run_sweep` engine on one
// thread pool over one CampaignStore. Each spec's table is the merged
// table: the store answers every task an earlier spec (or an earlier
// campaign, or a `pdos_sweep --resume`) already computed, and cached
// doubles round-trip bit-exactly, so the CSV bytes equal a plain
// `run_sweep` of the same spec.
//
// Cross-spec dedup costs nothing: keys are content hashes, so two specs
// that share a sub-grid (or a spec resubmitted by another user) share the
// store records, and only the first campaign simulates them.
//
// Independent processes may run campaigns over the same store directory at
// once: the store's lease protocol lets each claim the tasks it simulates,
// so together they simulate each unique task once (DESIGN.md §15). A crash
// ends the campaign in that process; its finished results stay in the
// store, its leases expire, and a rerun resumes from there.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sweep/campaign_store.hpp"
#include "sweep/sweep.hpp"

namespace pdos::sweep {

/// One submitted spec plus where its merged outputs go.
struct CampaignSpec {
  SweepSpec spec;
  std::string csv_path;   // empty: suppress the CSV file
  std::string json_path;  // empty: no JSON output
  std::string name;       // label for progress lines (e.g. file basename)
};

/// Campaign-wide progress: tasks of the specs already swept plus the
/// current spec's progress. Reported at least once; the last report has
/// `done == total`.
struct CampaignProgress {
  std::size_t done = 0;
  std::size_t total = 0;
  std::size_t cached = 0;  // of `done`, answered from the store
  double elapsed_seconds = 0.0;
};

struct CampaignOptions {
  /// CampaignStore directory (created if missing).
  std::string store_dir = kDefaultStoreDir;
  /// Each spec's run_sweep pool has workers × threads threads. `workers`
  /// <= 0 means ThreadPool::default_threads(); `threads` <= 0 counts as 1.
  int workers = 0;
  int threads = 1;
  bool keep_going = false;  // keep dispatching after a point failure
  double lease_ttl_seconds = 120.0;
  /// Longest wait between polls for tasks leased to other processes
  /// (SweepOptions::claim_poll_seconds).
  double claim_poll_seconds = 0.05;
  /// When > 0, each spec with a csv_path gets a lookup-only snapshot at
  /// `<csv_path>.partial`, rewritten at most this often while the campaign
  /// runs.
  double partial_interval_seconds = 0.0;
  /// Serialized; called after every finished task.
  std::function<void(const CampaignProgress&)> on_progress;
};

struct CampaignSpecResult {
  SweepResult result;  // the spec's run_sweep over the store
  std::size_t unique_tasks = 0;  // baselines + points, deduped within spec
};

struct CampaignResult {
  std::vector<CampaignSpecResult> specs;  // one per submitted spec
  /// Unique task keys across ALL specs — the floor of simulations a cold
  /// campaign must run, and (claim protocol working) also the ceiling, even
  /// with other processes sweeping the same store at once.
  std::size_t unique_tasks = 0;
  /// Sum of the specs' SweepResult::simulated. On a cold store,
  /// worker_simulated + final_simulated > unique_tasks means duplicated
  /// work (CI asserts it never happens).
  std::size_t worker_simulated = 0;
  /// Always 0: each spec's sweep is the merged table, so no replay pass
  /// after it runs. Kept so the sum above still reads as the total.
  std::size_t final_simulated = 0;
  double wall_seconds = 0.0;

  bool ok() const;
};

/// Sweep every spec in order through run_sweep on one CampaignStore, write
/// each spec's CSV/JSON, and return the tables. Each run_sweep joins its
/// thread pool before returning.
CampaignResult run_campaign(const std::vector<CampaignSpec>& specs,
                            const CampaignOptions& options);

/// Lookup-only replay: fill a result table from whatever the store already
/// holds, without claiming or simulating. Unresolved rows stay kSkipped.
/// Used for the `<csv>.partial` snapshots.
SweepResult replay_from_store(const SweepSpec& spec, const PointStore& store);

/// Unique task count (baselines + points) of one spec.
std::size_t count_unique_tasks(const SweepSpec& spec);

}  // namespace pdos::sweep
