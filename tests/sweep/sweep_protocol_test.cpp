// The sweep's task protocol against a scripted store: every task resolves
// by lookup → claim → {hit, deferred to the drain pass, miss} and finishes
// with store + tick or release + error + tick. A real CampaignStore only
// answers kBusy when another process holds a live lease, so these tests
// script the answers instead and run the defer/drain paths
// deterministically in one process.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sweep/point_cache.hpp"
#include "sweep/sweep.hpp"

namespace pdos::sweep {
namespace {

/// An in-memory PointStore whose claim answers follow a script.
class ScriptedStore : public PointStore {
 public:
  enum class Script {
    kAcquire,       // every claim is granted: a plain cache
    kPeerStores,    // a key's first claim is busy; a peer's record for it
                    // lands on the next refresh
    kLeaseExpires,  // a key's first claim is busy; later claims are
                    // granted (the peer's lease expired) and nothing lands
  };

  explicit ScriptedStore(Script script) : script_(script) {}

  /// The records the scripted peer publishes (kPeerStores only).
  void set_peer_records(const ScriptedStore& peer) {
    peer_points_ = peer.points_;
    peer_baselines_ = peer.baselines_;
  }

  bool lookup_point(std::uint64_t key, CachedPoint& out) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = points_.find(key);
    if (it == points_.end()) return false;
    out = it->second;
    return true;
  }
  bool lookup_baseline(std::uint64_t key, double& goodput) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = baselines_.find(key);
    if (it == baselines_.end()) return false;
    goodput = it->second;
    return true;
  }
  void store_point(std::uint64_t key, const CachedPoint& value) override {
    std::lock_guard<std::mutex> lock(mutex_);
    points_[key] = value;
  }
  void store_baseline(std::uint64_t key, double goodput) override {
    std::lock_guard<std::mutex> lock(mutex_);
    baselines_[key] = goodput;
  }
  std::size_t size() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return points_.size() + baselines_.size();
  }
  ClaimStatus claim_point(std::uint64_t key) override { return claim(key); }
  ClaimStatus claim_baseline(std::uint64_t key) override {
    return claim(key);
  }
  void release_point(std::uint64_t key) override { release(key); }
  void release_baseline(std::uint64_t key) override { release(key); }
  void refresh() override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (script_ != Script::kPeerStores) return;
    for (std::uint64_t key : busy_) {
      if (peer_points_.count(key) != 0) points_[key] = peer_points_[key];
      if (peer_baselines_.count(key) != 0) {
        baselines_[key] = peer_baselines_[key];
      }
    }
  }

  std::size_t busy_claims() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return busy_.size();
  }
  std::vector<std::uint64_t> released() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return released_;
  }

 private:
  ClaimStatus claim(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool first = claimed_.insert(key).second;
    if (first && script_ != Script::kAcquire) {
      busy_.insert(key);
      return ClaimStatus::kBusy;
    }
    return ClaimStatus::kAcquired;
  }
  void release(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mutex_);
    released_.push_back(key);
  }

  const Script script_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, CachedPoint> points_;
  std::unordered_map<std::uint64_t, double> baselines_;
  std::unordered_map<std::uint64_t, CachedPoint> peer_points_;
  std::unordered_map<std::uint64_t, double> peer_baselines_;
  std::set<std::uint64_t> claimed_;
  std::set<std::uint64_t> busy_;
  std::vector<std::uint64_t> released_;
};

std::string csv_of(const SweepResult& result) {
  std::ostringstream out;
  result.write_csv(out);
  return out.str();
}

class SweepProtocolTest : public ::testing::TestWithParam<Backend> {
 protected:
  /// 3 replicates of 2 points: on the fluid tier the replicates collapse
  /// to one lane-batched solve per point unless they are drained one by
  /// one, so the drained runs below also pin that the solve-once rule
  /// leaves the CSV bytes unchanged.
  SweepSpec spec() const {
    SweepSpec spec;
    spec.backend = GetParam();
    spec.flow_counts = {3};
    spec.textents = {ms(50)};
    spec.rattacks = {mbps(25)};
    spec.gammas = {0.4, 0.6};
    spec.replicates = 3;
    spec.control.warmup = sec(0.5);
    spec.control.measure = sec(1.0);
    return spec;
  }

  static SweepOptions options(PointStore* store) {
    SweepOptions options;
    options.threads = 2;
    options.store = store;
    options.claim_poll_seconds = 1e-3;
    return options;
  }

  static constexpr std::size_t kTasks = 6 + 3;  // points + baselines
};

TEST_P(SweepProtocolTest, BusyThenStoredRecordResolvesAsHit) {
  const SweepResult plain = run_sweep(spec(), options(nullptr));
  ASSERT_EQ(plain.failures(), 0u);

  ScriptedStore peer(ScriptedStore::Script::kAcquire);
  ASSERT_EQ(run_sweep(spec(), options(&peer)).simulated, kTasks);

  ScriptedStore store(ScriptedStore::Script::kPeerStores);
  store.set_peer_records(peer);
  const SweepResult drained = run_sweep(spec(), options(&store));
  EXPECT_EQ(store.busy_claims(), kTasks);  // every task was deferred once
  EXPECT_EQ(drained.cache_hits, kTasks);   // ... and resolved from the peer
  EXPECT_EQ(drained.simulated, 0u);
  EXPECT_TRUE(store.released().empty());
  EXPECT_EQ(csv_of(drained), csv_of(plain));
}

TEST_P(SweepProtocolTest, ExpiredLeaseIsSimulatedLocally) {
  const SweepResult plain = run_sweep(spec(), options(nullptr));
  ASSERT_EQ(plain.failures(), 0u);

  ScriptedStore store(ScriptedStore::Script::kLeaseExpires);
  const SweepResult drained = run_sweep(spec(), options(&store));
  EXPECT_EQ(store.busy_claims(), kTasks);
  EXPECT_EQ(drained.cache_hits, 0u);
  EXPECT_EQ(drained.simulated, kTasks);  // one workspace run per task
  EXPECT_EQ(store.size(), kTasks);       // ... each stored
  EXPECT_TRUE(store.released().empty());
  EXPECT_EQ(csv_of(drained), csv_of(plain));
}

TEST_P(SweepProtocolTest, ThrowingComputeReleasesItsClaim) {
  // The second point's planner throws (γ above C_attack forces a negative
  // T_space). It sits in another flows block, so on the fluid tier it is
  // in a task of its own; ThrowingPlanFailsOnlyItsOwnRows shares a task.
  SweepSpec spec = this->spec();
  PointSpec good;
  good.flows = 3;
  good.gamma = 0.5;
  PointSpec bad;
  bad.flows = 4;
  bad.gamma = 5.0;
  spec.explicit_points = {good, bad};
  spec.replicates = 1;

  SweepOptions plain_options = options(nullptr);
  plain_options.cancel_on_failure = false;
  const SweepResult plain = run_sweep(spec, plain_options);
  ASSERT_EQ(plain.failures(), 1u);
  const std::uint64_t bad_key =
      point_key(spec, plain.points[1].point, plain.points[1].seed);

  for (auto script : {ScriptedStore::Script::kAcquire,
                      ScriptedStore::Script::kLeaseExpires}) {
    SCOPED_TRACE(script == ScriptedStore::Script::kAcquire ? "acquire"
                                                           : "drained");
    ScriptedStore store(script);
    SweepOptions store_options = options(&store);
    store_options.cancel_on_failure = false;
    const SweepResult result = run_sweep(spec, store_options);
    EXPECT_EQ(result.points[0].status, PointStatus::kOk);
    EXPECT_EQ(result.points[1].status, PointStatus::kFailed);
    EXPECT_FALSE(result.points[1].error.empty());
    EXPECT_EQ(store.released(), std::vector<std::uint64_t>{bad_key});
    EXPECT_EQ(result.simulated, 3u);  // two baselines and the good point
    EXPECT_EQ(csv_of(result), csv_of(plain));
  }
}

TEST_P(SweepProtocolTest, ThrowingPlanFailsOnlyItsOwnRows) {
  // A bad point (γ 5.0: its planner throws) between two good points of
  // the same flows block. On the fluid tier all three share one plan
  // chunk: the bad plan is left out of the batch, only its rows fail,
  // with the planner's cause, and only their claims are released.
  SweepSpec spec = this->spec();
  PointSpec good;
  good.flows = 3;
  good.gamma = 0.4;
  PointSpec bad = good;
  bad.gamma = 5.0;
  PointSpec other = good;
  other.gamma = 0.6;
  spec.explicit_points = {good, bad, other};
  spec.replicates = 2;

  SweepOptions plain_options = options(nullptr);
  plain_options.cancel_on_failure = false;
  const SweepResult plain = run_sweep(spec, plain_options);
  ASSERT_EQ(plain.points.size(), 6u);
  std::vector<std::uint64_t> bad_keys;
  for (const PointResult& row : plain.points) {
    SCOPED_TRACE(row.index);
    if (row.point.gamma == bad.gamma) {
      EXPECT_EQ(row.status, PointStatus::kFailed);
      EXPECT_NE(row.error.find("plan_attack_at_gamma"), std::string::npos)
          << row.error;
      bad_keys.push_back(point_key(spec, row.point, row.seed));
    } else {
      EXPECT_EQ(row.status, PointStatus::kOk) << row.error;
    }
  }
  ASSERT_EQ(bad_keys.size(), 2u);

  for (auto script : {ScriptedStore::Script::kAcquire,
                      ScriptedStore::Script::kLeaseExpires}) {
    SCOPED_TRACE(script == ScriptedStore::Script::kAcquire ? "acquire"
                                                           : "drained");
    ScriptedStore store(script);
    SweepOptions store_options = options(&store);
    store_options.cancel_on_failure = false;
    const SweepResult result = run_sweep(spec, store_options);
    std::vector<std::uint64_t> released = store.released();
    std::sort(released.begin(), released.end());
    std::vector<std::uint64_t> expected = bad_keys;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(released, expected);
    EXPECT_EQ(result.simulated, 6u);  // two baselines and four good rows
    EXPECT_EQ(csv_of(result), csv_of(plain));
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SweepProtocolTest,
                         ::testing::Values(Backend::kFull, Backend::kFluid),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

}  // namespace
}  // namespace pdos::sweep
