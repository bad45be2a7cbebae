// Result stores: point/baseline key sensitivity to every input that shapes
// a run, stability across calls and builds, and TaskKeys' equality with
// the free key functions; then the PointStore persistence
// contract — miss then hit, bit-exact reload, tolerance of corrupt or
// foreign files, directory creation — on the file-backed store,
// CampaignStore. Its sharding, claims and compaction are covered by
// campaign_store_test.
#include "sweep/point_cache.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "sweep/campaign_store.hpp"
#include "sweep/sweep.hpp"
#include "temp_dir.hpp"

namespace pdos::sweep {
namespace {

SweepSpec quick_spec() {
  SweepSpec spec;
  spec.flow_counts = {15};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.5};
  spec.control.warmup = sec(1);
  spec.control.measure = sec(2);
  return spec;
}

CachedPoint sample_point() {
  CachedPoint p;
  p.c_psi = 0.123456789012345678;
  p.analytic_degradation = 0.25;
  p.analytic_gain = 0.5;
  p.shrew = true;
  p.baseline_goodput = 14095466.666666666;
  p.goodput = 7047733.3333333331;
  p.measured_degradation = 0.5;
  p.measured_gain = 0.25;
  p.utilization = 0.47;
  p.fairness = 0.93;
  p.timeouts = 321;
  p.fast_recoveries = 12;
  p.attack_packets = 98765;
  p.events = 1234567890123ull;
  return p;
}

TEST(PointCacheTest, MissThenHit) {
  TempDir dir;
  CampaignStore store(dir.path());
  PointStore& cache = store;
  CachedPoint out;
  EXPECT_FALSE(cache.lookup_point(42, out));
  cache.store_point(42, sample_point());
  ASSERT_TRUE(cache.lookup_point(42, out));
  EXPECT_EQ(out.timeouts, 321u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PointCacheTest, PersistsExactDoublesAcrossReload) {
  TempDir dir;
  const CachedPoint stored = sample_point();
  {
    CampaignStore cache(dir.path());
    cache.store_point(7, stored);
    cache.store_baseline(9, 14095466.666666666);
  }
  CampaignStore reloaded(dir.path());
  EXPECT_EQ(reloaded.size(), 2u);
  CachedPoint out;
  ASSERT_TRUE(reloaded.lookup_point(7, out));
  // Bit-exact round-trip of every field: cached results must reproduce the
  // CSV a live run would write, byte for byte.
  EXPECT_EQ(out.c_psi, stored.c_psi);
  EXPECT_EQ(out.analytic_degradation, stored.analytic_degradation);
  EXPECT_EQ(out.analytic_gain, stored.analytic_gain);
  EXPECT_EQ(out.shrew, stored.shrew);
  EXPECT_EQ(out.baseline_goodput, stored.baseline_goodput);
  EXPECT_EQ(out.goodput, stored.goodput);
  EXPECT_EQ(out.measured_degradation, stored.measured_degradation);
  EXPECT_EQ(out.measured_gain, stored.measured_gain);
  EXPECT_EQ(out.utilization, stored.utilization);
  EXPECT_EQ(out.fairness, stored.fairness);
  EXPECT_EQ(out.timeouts, stored.timeouts);
  EXPECT_EQ(out.fast_recoveries, stored.fast_recoveries);
  EXPECT_EQ(out.attack_packets, stored.attack_packets);
  EXPECT_EQ(out.events, stored.events);
  double goodput = 0.0;
  ASSERT_TRUE(reloaded.lookup_baseline(9, goodput));
  EXPECT_EQ(goodput, 14095466.666666666);
}

TEST(PointCacheTest, SkipsMalformedLines) {
  TempDir dir;
  std::string seg_path;
  {
    CampaignStore cache(dir.path());
    cache.store_point(1, sample_point());
    cache.store_baseline(2, 5.0);
    seg_path = cache.segment_path(1);  // keys 1, 2 and 0xff share it
  }
  // Simulate a torn tail write plus random garbage in the middle.
  {
    std::ofstream out(seg_path, std::ios::app);
    out << "X nonsense record\n";
    out << "P 00000000000000ff 1.0 2.0\n";  // truncated point line
    out << "B zzzz not-a-number\n";
    out << "P 00000000000000";  // no newline, torn mid-key
  }
  CampaignStore reloaded(dir.path());
  EXPECT_EQ(reloaded.size(), 2u) << "only the two intact records survive";
  CachedPoint out;
  EXPECT_TRUE(reloaded.lookup_point(1, out));
  CachedPoint bogus;
  EXPECT_FALSE(reloaded.lookup_point(0xff, bogus));
}

TEST(PointCacheTest, ForeignHeaderLoadsEmptyAndIsRewritten) {
  TempDir dir;
  std::string seg_path;
  {
    CampaignStore probe(dir.path());
    seg_path = probe.segment_path(1);  // key 3 shares it
  }
  {
    std::ofstream out(seg_path);
    out << "some-other-format-v9\n";
    out << "P 0000000000000001 1 1 1 1 1 1 1 1 1 1 1 1 1 1\n";
  }
  CampaignStore cache(dir.path());
  EXPECT_EQ(cache.size(), 0u) << "foreign file must be ignored";
  cache.store_baseline(3, 7.0);

  CampaignStore reloaded(dir.path());
  EXPECT_EQ(reloaded.size(), 1u);
  double goodput = 0.0;
  EXPECT_TRUE(reloaded.lookup_baseline(3, goodput));
  EXPECT_EQ(goodput, 7.0);
}

TEST(PointCacheTest, MissingDirectoryIsCreated) {
  TempDir dir;
  const std::string nested = dir.sub("not/yet/there");
  {
    CampaignStore cache(nested);
    cache.store_baseline(1, 2.0);
  }
  CampaignStore reloaded(nested);
  double goodput = 0.0;
  EXPECT_TRUE(reloaded.lookup_baseline(1, goodput));
}

TEST(PointCacheKeyTest, DistinctPointsGetDistinctKeys) {
  const SweepSpec spec = quick_spec();
  PointSpec a;
  a.flows = 15;
  a.gamma = 0.5;
  PointSpec b = a;
  b.gamma = 0.6;
  EXPECT_NE(point_key(spec, a, 1), point_key(spec, b, 1));
  EXPECT_NE(point_key(spec, a, 1), point_key(spec, a, 2))
      << "seed must be part of the key";
}

TEST(PointCacheKeyTest, ScenarioChangesInvalidateTheKey) {
  const SweepSpec spec = quick_spec();
  PointSpec point;
  const std::uint64_t base = point_key(spec, point, 1);

  SweepSpec queue_changed = spec;
  queue_changed.queue = QueueKind::kDropTail;
  EXPECT_NE(point_key(queue_changed, point, 1), base);

  SweepSpec window_changed = spec;
  window_changed.control.measure = sec(3);
  EXPECT_NE(point_key(window_changed, point, 1), base);

  SweepSpec scenario_changed = spec;
  scenario_changed.scenario = ScenarioKind::kTestbed;
  EXPECT_NE(point_key(scenario_changed, point, 1), base);
}

TEST(PointCacheKeyTest, BaselineKeyIgnoresAttackAxes) {
  const SweepSpec spec = quick_spec();
  PointSpec a;
  a.textent = ms(50);
  a.rattack = mbps(25);
  a.gamma = 0.4;
  PointSpec b = a;
  b.textent = ms(100);
  b.rattack = mbps(40);
  b.gamma = 0.8;
  EXPECT_EQ(baseline_key(spec, a, 1), baseline_key(spec, b, 1))
      << "one baseline normalizes every attack point of its pair";
  b.flows = 25;
  EXPECT_NE(baseline_key(spec, a, 1), baseline_key(spec, b, 1));
}

TEST(PointCacheKeyTest, BackendIsPartOfTheKey) {
  // A --resume replay must never answer a fluid (or fast) point from a
  // store populated by a full-packet campaign, or vice versa: the tiers
  // measure different things at identical parameters.
  const SweepSpec spec = quick_spec();
  PointSpec point;
  const Backend backends[] = {Backend::kFull, Backend::kFast, Backend::kFluid};
  for (Backend a : backends) {
    for (Backend b : backends) {
      if (a == b) continue;
      SweepSpec tier_a = spec;
      tier_a.backend = a;
      SweepSpec tier_b = spec;
      tier_b.backend = b;
      EXPECT_NE(point_key(tier_a, point, 1), point_key(tier_b, point, 1))
          << backend_name(a) << " vs " << backend_name(b);
      EXPECT_NE(baseline_key(tier_a, point, 1), baseline_key(tier_b, point, 1))
          << backend_name(a) << " vs " << backend_name(b);
    }
  }
}

TEST(PointCacheKeyTest, KeysAreStableAcrossCalls) {
  const SweepSpec spec = quick_spec();
  PointSpec point;
  EXPECT_EQ(point_key(spec, point, 1), point_key(spec, point, 1));
  EXPECT_EQ(baseline_key(spec, point, 1), baseline_key(spec, point, 1));
}

/// TaskKeys must hash the same bytes as point_key/baseline_key, for every
/// task of `spec`: each point, and its (flows, replicate) baseline.
void expect_keyer_matches(const SweepSpec& spec) {
  const TaskKeys keys(spec);
  const std::vector<PointSpec> points = spec.enumerate();
  ASSERT_FALSE(points.empty());
  for (const PointSpec& point : points) {
    const std::uint64_t seed = replicate_seed(spec.base_seed, point.replicate);
    EXPECT_EQ(keys.point(point, seed), point_key(spec, point, seed))
        << "flows " << point.flows << ", gamma " << point.gamma
        << ", replicate " << point.replicate;
    EXPECT_EQ(keys.baseline(point, seed), baseline_key(spec, point, seed))
        << "flows " << point.flows << ", replicate " << point.replicate;
  }
}

TEST(PointCacheKeyTest, TaskKeysEqualTheFreeFunctions) {
  for (ScenarioKind scenario :
       {ScenarioKind::kNs2Dumbbell, ScenarioKind::kTestbed}) {
    for (QueueKind queue : {QueueKind::kRed, QueueKind::kDropTail}) {
      for (Backend backend :
           {Backend::kFull, Backend::kFast, Backend::kFluid}) {
        SCOPED_TRACE(std::string(scenario_kind_name(scenario)) + " " +
                     (queue == QueueKind::kRed ? "red " : "droptail ") +
                     backend_name(backend));
        SweepSpec spec = quick_spec();
        spec.scenario = scenario;
        spec.queue = queue;
        spec.backend = backend;
        spec.flow_counts = {1, 15, 45};
        spec.textents = {ms(50), ms(100)};
        spec.gammas = {0.3, 0.6};
        spec.replicates = 3;
        expect_keyer_matches(spec);
      }
    }
  }
}

TEST(PointCacheKeyTest, TaskKeysCoverExplicitPoints) {
  // Explicit points bring their own flow counts, none of them in
  // flow_counts.
  SweepSpec spec = quick_spec();
  spec.backend = Backend::kFluid;
  PointSpec a;
  a.flows = 3;
  a.gamma = 0.4;
  PointSpec b;
  b.flows = 7;
  b.textent = ms(100);
  b.gamma = 0.7;
  spec.explicit_points = {a, b, a};
  spec.replicates = 2;
  expect_keyer_matches(spec);
}

TEST(PointCacheKeyTest, KeysEqualTheRecordedBuild) {
  // Keys recorded from an earlier build's point_key/baseline_key. A store
  // written by any build with the same schema and compiler must keep
  // replaying, so these values must never move; bump kPointCacheSchema
  // (and re-record) when they have to. __VERSION__ is part of the key, so
  // the values only hold for the compiler they were recorded with.
  constexpr const char* kRecordedCompiler = "12.2.0";
  if (std::string(__VERSION__) != kRecordedCompiler) {
    GTEST_SKIP() << "keys were recorded with compiler " << kRecordedCompiler
                 << ", this build's __VERSION__ is " << __VERSION__;
  }
  ASSERT_EQ(kPointCacheSchema, 3);
  const SweepSpec spec = quick_spec();
  PointSpec point;
  point.replicate = 1;
  const std::uint64_t seed = replicate_seed(spec.base_seed, 1);
  EXPECT_EQ(point_key(spec, point, seed), 0x6a0bb6d43baa9fbaULL);
  EXPECT_EQ(baseline_key(spec, point, seed), 0x395a0a26d039eb35ULL);
  const TaskKeys keys(spec);
  EXPECT_EQ(keys.point(point, seed), 0x6a0bb6d43baa9fbaULL);
  EXPECT_EQ(keys.baseline(point, seed), 0x395a0a26d039eb35ULL);
}

}  // namespace
}  // namespace pdos::sweep
