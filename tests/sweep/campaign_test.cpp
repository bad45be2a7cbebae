// Campaign orchestration: cross-process dedup through the shared store,
// the no-duplicated-work invariant of concurrent run_campaign processes,
// all-hit resumes, the pool size, partial snapshots, byte-identical merged
// CSVs, and lookup-only replay.
#include "sweep/campaign.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
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

/// Line count and first line of a CSV text.
std::pair<std::size_t, std::string> csv_shape(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  std::size_t lines = header.empty() ? 0 : 1;
  for (std::string line; std::getline(in, line);) ++lines;
  return {lines, header};
}

CampaignOptions tiny_options(const TempDir& dir) {
  CampaignOptions options;
  options.store_dir = dir.sub("store.d");
  options.workers = 2;
  options.threads = 1;
  options.claim_poll_seconds = 0.01;
  return options;
}

// Two independent processes run the same campaign on one cold store at
// once. The store's leases split the grid between them: together they
// simulate each unique task at most once, and each writes the CSV a plain
// in-process run_sweep writes.
TEST(CampaignTest, ColdCampaignNeverDuplicatesWork) {
  TempDir dir;
  const CampaignOptions options = tiny_options(dir);
  std::vector<pid_t> pids;
  for (int p = 0; p < 2; ++p) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int code = 1;
      try {
        CampaignSpec spec;
        spec.spec = tiny_spec();
        spec.csv_path = dir.sub("out/p" + std::to_string(p) + ".csv");
        const CampaignResult r = run_campaign({spec}, options);
        std::ofstream(dir.sub("simulated" + std::to_string(p)))
            << r.worker_simulated + r.final_simulated << "\n";
        code = r.ok() ? 0 : 1;
      } catch (...) {
      }
      _exit(code);
    }
    pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  std::size_t simulated = 0;
  for (int p = 0; p < 2; ++p) {
    std::size_t n = 0;
    std::ifstream(dir.sub("simulated" + std::to_string(p))) >> n;
    simulated += n;
  }
  EXPECT_LE(simulated, count_unique_tasks(tiny_spec()));
  EXPECT_GT(simulated, 0u);
  SweepOptions in_process;
  in_process.threads = 1;
  const std::string reference = csv_of(run_sweep(tiny_spec(), in_process));
  EXPECT_EQ(slurp(dir.sub("out/p0.csv")), reference);
  EXPECT_EQ(slurp(dir.sub("out/p1.csv")), reference);
}

TEST(CampaignTest, AllHitResumeSimulatesNothing) {
  TempDir dir;
  CampaignSpec spec;
  spec.spec = tiny_spec();
  spec.csv_path = dir.sub("cold.csv");
  CampaignOptions options = tiny_options(dir);
  const CampaignResult cold = run_campaign({spec}, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.unique_tasks, count_unique_tasks(spec.spec));
  EXPECT_EQ(cold.worker_simulated, cold.unique_tasks);

  // Every task is a store hit, and the last report shows the grid done.
  CampaignSpec again = spec;
  again.csv_path = dir.sub("resume.csv");
  std::vector<CampaignProgress> reports;
  options.on_progress = [&](const CampaignProgress& p) {
    reports.push_back(p);
  };
  const CampaignResult resume = run_campaign({again}, options);
  EXPECT_TRUE(resume.ok());
  EXPECT_EQ(resume.worker_simulated + resume.final_simulated, 0u);
  EXPECT_EQ(resume.unique_tasks, cold.unique_tasks);
  EXPECT_EQ(resume.specs.at(0).unique_tasks, count_unique_tasks(spec.spec));
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.back().done, reports.back().total);
  EXPECT_EQ(reports.back().cached, reports.back().total);
  EXPECT_EQ(reports.back().total, count_unique_tasks(spec.spec));
  EXPECT_EQ(slurp(again.csv_path), slurp(spec.csv_path));
}

TEST(CampaignTest, EachSpecSweepsOnWorkersTimesThreads) {
  TempDir dir;
  CampaignSpec spec;
  spec.spec = tiny_spec();
  CampaignSpec other = spec;
  other.spec.gammas = {0.3};
  CampaignOptions options = tiny_options(dir);
  options.threads = 2;
  const CampaignResult wide = run_campaign({spec, other}, options);
  ASSERT_EQ(wide.specs.size(), 2u);
  EXPECT_EQ(wide.specs[0].result.threads, 4);
  EXPECT_EQ(wide.specs[1].result.threads, 4);
  // The second spec is a sub-grid of the first: all store hits.
  EXPECT_EQ(wide.specs[1].result.simulated, 0u);

  options.threads = 0;  // counts as 1
  const CampaignResult narrow = run_campaign({spec}, options);
  EXPECT_EQ(narrow.specs.at(0).result.threads, 2);
}

// --partial-interval: a lookup-only snapshot of the table lands next to the
// CSV while the campaign runs, with the final table's header and rows.
TEST(CampaignTest, PartialSnapshotIsWrittenMidRun) {
  TempDir dir;
  CampaignSpec spec;
  spec.spec = tiny_spec();
  spec.csv_path = dir.sub("tiny.csv");
  CampaignOptions options = tiny_options(dir);
  options.partial_interval_seconds = 1e-9;
  std::string snapshot;
  options.on_progress = [&](const CampaignProgress& p) {
    // The first report is the first baseline: no point is stored yet.
    if (p.done == 1) snapshot = slurp(spec.csv_path + ".partial");
  };
  ASSERT_TRUE(run_campaign({spec}, options).ok());

  const std::string final_csv = slurp(spec.csv_path);
  ASSERT_FALSE(snapshot.empty());
  EXPECT_NE(snapshot, final_csv);
  EXPECT_EQ(csv_shape(snapshot), csv_shape(final_csv));
  EXPECT_EQ(csv_shape(final_csv).first, spec.spec.enumerate().size() + 1);
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
