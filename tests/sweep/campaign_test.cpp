// Campaign orchestration: cross-process dedup through the shared store,
// the no-duplicated-work invariant of run_campaign, forking only for tasks
// the store lacks, byte-identical merged CSVs across campaigns, and
// lookup-only replay.
#include "sweep/campaign.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/campaign_store.hpp"
#include "temp_dir.hpp"

namespace pdos::sweep {
namespace {

/// Small, fast-backend grid: 2 points x 2 replicates + 2 baselines.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.backend = Backend::kFast;
  spec.flow_counts = {3};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.3, 0.6};
  spec.replicates = 2;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.5);
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string csv_of(const SweepResult& result) {
  std::ostringstream out;
  result.write_csv(out);
  return out.str();
}

// The cross-process dedup satellite: a child process sweeps the grid cold
// through a CampaignStore, then this process sweeps the same grid against
// the same store — every task must be a hit and the tables byte-identical.
TEST(CampaignTest, SecondProcessGetsAllHitsAndIdenticalCsv) {
  TempDir dir;
  const SweepSpec spec = tiny_spec();
  const std::string child_csv = dir.sub("child.csv");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CampaignStore store(dir.sub("store.d"));
    SweepOptions options;
    options.threads = 1;
    options.store = &store;
    const SweepResult result = run_sweep(spec, options);
    std::ofstream out(child_csv, std::ios::binary);
    result.write_csv(out);
    out.close();  // _exit skips destructors; flush explicitly
    _exit(result.failures() == 0 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  CampaignStore store(dir.sub("store.d"));
  SweepOptions options;
  options.threads = 1;
  options.store = &store;
  const SweepResult result = run_sweep(spec, options);
  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.simulated, 0u);  // 100% cache hits
  EXPECT_EQ(result.cache_hits, count_unique_tasks(spec));
  EXPECT_EQ(csv_of(result), slurp(child_csv));
}

TEST(CampaignTest, ColdCampaignNeverDuplicatesWork) {
  TempDir dir;
  CampaignSpec spec;
  spec.spec = tiny_spec();
  spec.csv_path = dir.sub("out/tiny.csv");
  spec.name = "tiny";

  CampaignOptions options;
  options.store_dir = dir.sub("store.d");
  options.workers = 2;
  options.threads = 1;
  options.claim_poll_seconds = 0.01;

  const CampaignResult cold = run_campaign({spec}, options);
  EXPECT_TRUE(cold.ok());
  EXPECT_EQ(cold.worker_failures, 0);
  EXPECT_EQ(cold.unique_tasks, count_unique_tasks(spec.spec));
  // The claim protocol's whole point: K workers, each walking the full
  // grid, together simulate each unique task at most once.
  EXPECT_LE(cold.worker_simulated + cold.final_simulated, cold.unique_tasks);
  EXPECT_GT(cold.worker_simulated + cold.final_simulated, 0u);
  const std::string cold_csv = slurp(spec.csv_path);
  EXPECT_FALSE(cold_csv.empty());

  // Resubmitting the identical campaign answers everything from the store
  // and reproduces the merged CSV byte for byte.
  CampaignSpec again = spec;
  again.csv_path = dir.sub("out/tiny2.csv");
  const CampaignResult warm = run_campaign({again}, options);
  EXPECT_TRUE(warm.ok());
  EXPECT_EQ(warm.worker_simulated, 0u);
  EXPECT_EQ(warm.final_simulated, 0u);
  EXPECT_EQ(slurp(again.csv_path), cold_csv);
}

TEST(CampaignTest, AllHitResumeForksNoWorkers) {
  TempDir dir;
  CampaignSpec spec;
  spec.spec = tiny_spec();
  spec.csv_path = dir.sub("cold.csv");
  CampaignOptions options;
  options.store_dir = dir.sub("store.d");
  options.workers = 2;
  options.threads = 1;
  options.claim_poll_seconds = 0.01;
  const CampaignResult cold = run_campaign({spec}, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.workers_forked, 2);

  // Nothing is left to compute: the parent answers every task from the
  // store it opened, without a fork, and reports the grid done once.
  CampaignSpec again = spec;
  again.csv_path = dir.sub("resume.csv");
  std::vector<CampaignProgress> reports;
  options.on_progress = [&](const CampaignProgress& p) {
    reports.push_back(p);
  };
  const CampaignResult resume = run_campaign({again}, options);
  EXPECT_TRUE(resume.ok());
  EXPECT_EQ(resume.workers_forked, 0);
  EXPECT_EQ(resume.worker_simulated + resume.final_simulated, 0u);
  EXPECT_EQ(resume.unique_tasks, cold.unique_tasks);
  EXPECT_EQ(resume.specs.at(0).unique_tasks, count_unique_tasks(spec.spec));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].done, reports[0].total);
  EXPECT_EQ(reports[0].cached, reports[0].total);
  EXPECT_EQ(reports[0].workers_alive, 0);
  EXPECT_EQ(slurp(again.csv_path), slurp(spec.csv_path));
}

TEST(CampaignTest, WorkersNeverExceedMissingTasks) {
  TempDir dir;
  CampaignSpec spec;
  spec.spec = tiny_spec();
  spec.spec.replicates = 1;
  spec.spec.gammas = {0.2, 0.4};
  CampaignOptions options;
  options.store_dir = dir.sub("store.d");
  options.workers = 2;
  options.threads = 1;
  options.claim_poll_seconds = 0.01;
  ASSERT_TRUE(run_campaign({spec}, options).ok());

  // One more gamma is one more point (its baseline is shared): one task
  // is missing, so one worker is forked however many are allowed.
  spec.spec.gammas = {0.2, 0.4, 0.6};
  spec.csv_path = dir.sub("grown.csv");
  options.workers = 4;
  const CampaignResult grown = run_campaign({spec}, options);
  EXPECT_TRUE(grown.ok());
  EXPECT_EQ(grown.workers_forked, 1);
  EXPECT_EQ(grown.worker_simulated + grown.final_simulated, 1u);

  SweepOptions in_process;
  in_process.threads = 1;
  EXPECT_EQ(slurp(spec.csv_path), csv_of(run_sweep(spec.spec, in_process)));
}

TEST(CampaignTest, OverlappingSpecsShareTheStore) {
  TempDir dir;
  // Warm the store with a 1-gamma subset...
  SweepSpec subset = tiny_spec();
  subset.gammas = {0.3};
  {
    CampaignStore store(dir.sub("store.d"));
    SweepOptions options;
    options.threads = 1;
    options.store = &store;
    const SweepResult r = run_sweep(subset, options);
    ASSERT_EQ(r.failures(), 0u);
  }
  // ...then a lookup-only replay of the 2-gamma superset resolves exactly
  // the shared sub-grid (keys are content hashes, not per-spec).
  CampaignStore store(dir.sub("store.d"));
  const SweepSpec superset = tiny_spec();
  const SweepResult replay = replay_from_store(superset, store);
  std::size_t ok = 0, skipped = 0;
  for (const auto& point : replay.points) {
    if (point.status == PointStatus::kOk) ++ok;
    if (point.status == PointStatus::kSkipped) ++skipped;
  }
  EXPECT_EQ(ok, subset.enumerate().size());
  EXPECT_EQ(skipped, superset.enumerate().size() - subset.enumerate().size());

  // A full sweep of the superset only simulates the missing gamma.
  SweepOptions options;
  options.threads = 1;
  options.store = &store;
  const SweepResult full = run_sweep(superset, options);
  EXPECT_EQ(full.failures(), 0u);
  EXPECT_EQ(full.simulated,
            count_unique_tasks(superset) - count_unique_tasks(subset));
}

TEST(CampaignTest, CountUniqueTasksIsPointsPlusUniqueBaselines) {
  const SweepSpec spec = tiny_spec();
  // One flow count: one baseline per replicate, shared by both gammas.
  EXPECT_EQ(count_unique_tasks(spec),
            spec.enumerate().size() + spec.replicates);
}

}  // namespace
}  // namespace pdos::sweep
