#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "core/planner.hpp"
#include "sweep/campaign_store.hpp"
#include "sweep/spec.hpp"
#include "temp_dir.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pdos::sweep {
namespace {

/// A spec small enough for unit tests: 3 flows, short windows, 2 gammas.
SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.flow_counts = {3};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.3, 0.6};
  spec.replicates = 2;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.5);
  return spec;
}

TEST(PairIndex, MatchesMapReferenceAcrossRandomInserts) {
  // The flat sorted-vector index must behave exactly like the std::map it
  // replaced, including repeated keys, negative components, and lookups.
  PairIndex index;
  std::map<std::pair<int, int>, std::size_t> ref;
  std::mt19937 rng(20250806);
  std::size_t next_slot = 0;
  for (int i = 0; i < 2000; ++i) {
    const int a = static_cast<int>(rng() % 17) - 8;
    const int b = static_cast<int>(rng() % 16);
    const auto [slot, inserted] = index.insert(a, b, next_slot);
    const auto [it, ref_inserted] = ref.emplace(std::make_pair(a, b),
                                                next_slot);
    ASSERT_EQ(inserted, ref_inserted);
    ASSERT_EQ(slot, it->second);
    if (inserted) ++next_slot;
  }
  EXPECT_EQ(index.size(), ref.size());
  for (const auto& [key, slot] : ref) {
    ASSERT_TRUE(index.contains(key.first, key.second));
    ASSERT_EQ(index.at(key.first, key.second), slot);
  }
  EXPECT_FALSE(index.contains(99, 99));
  EXPECT_THROW(index.at(99, 99), InvariantError);
}

TEST(SeedDerivation, StableAndDistinct) {
  const std::uint64_t a = replicate_seed(1, 0);
  EXPECT_EQ(a, replicate_seed(1, 0));  // deterministic
  std::set<std::uint64_t> seeds;
  for (int rep = 0; rep < 100; ++rep) seeds.insert(replicate_seed(1, rep));
  EXPECT_EQ(seeds.size(), 100u);  // no collisions across replicates
  EXPECT_NE(replicate_seed(1, 0), replicate_seed(2, 0));  // base matters
}

TEST(DeriveSeed, AsymmetricAndMixing) {
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(0, 0), 0u);
}

TEST(SweepSpec, EnumerationIsStable) {
  const SweepSpec spec = tiny_spec();
  const auto a = spec.enumerate();
  const auto b = spec.enumerate();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 4u);  // 2 gammas x 2 replicates
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].gamma, b[i].gamma);
    EXPECT_EQ(a[i].replicate, b[i].replicate);
  }
}

TEST(SweepSpec, AutoGammaGridRespectsFeasibility) {
  SweepSpec spec = tiny_spec();
  spec.gammas.clear();  // auto grid
  spec.gamma_points = 9;
  spec.replicates = 1;
  const auto points = spec.enumerate();
  ASSERT_FALSE(points.empty());
  const double c_attack = mbps(25) / mbps(15);
  for (const auto& point : points) {
    EXPECT_GT(point.gamma, 0.0);
    EXPECT_LT(point.gamma, 1.0);
    EXPECT_LE(point.gamma, c_attack);
  }
}

TEST(SweepSpec, ExplicitPointsPassThrough) {
  SweepSpec spec;
  PointSpec point;
  point.flows = 5;
  point.gamma = 0.42;
  spec.explicit_points = {point};
  spec.replicates = 3;
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 3u);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(points[static_cast<std::size_t>(rep)].replicate, rep);
    EXPECT_EQ(points[static_cast<std::size_t>(rep)].gamma, 0.42);
  }
}

// The acceptance-criterion test: the same spec at 1 thread and at 8
// threads must produce byte-identical CSV (and JSON) output.
TEST(SweepSpec, EveryScenarioASpecCanNameValidates) {
  // SweepSpec::validate checks only the spec's own fields: make_scenario
  // sets just the scenario factory, queue, backend and seed from a spec,
  // and every such config at any flow count >= 1 must pass
  // ScenarioConfig::validate, or a bad spec would fail row by row at run
  // time instead of up front.
  for (ScenarioKind scenario :
       {ScenarioKind::kNs2Dumbbell, ScenarioKind::kTestbed}) {
    for (QueueKind queue : {QueueKind::kRed, QueueKind::kDropTail}) {
      for (Backend backend :
           {Backend::kFull, Backend::kFast, Backend::kFluid}) {
        for (int flows : {1, 2, 15, 1000}) {
          SweepSpec spec;
          spec.scenario = scenario;
          spec.queue = queue;
          spec.backend = backend;
          PointSpec point;
          point.flows = flows;
          EXPECT_NO_THROW(spec.make_scenario(point).validate())
              << backend_name(backend) << " flows=" << flows;
        }
      }
    }
  }
}

TEST(RunSweep, OutputIsByteIdenticalAcrossThreadCounts) {
  const SweepSpec spec = tiny_spec();

  SweepOptions serial;
  serial.threads = 1;
  const SweepResult a = run_sweep(spec, serial);

  SweepOptions parallel;
  parallel.threads = 8;
  const SweepResult b = run_sweep(spec, parallel);

  EXPECT_EQ(a.threads, 1);
  EXPECT_EQ(b.threads, 8);
  EXPECT_EQ(a.failures(), 0u);
  EXPECT_EQ(b.failures(), 0u);

  std::ostringstream csv_a, csv_b, json_a, json_b;
  a.write_csv(csv_a);
  b.write_csv(csv_b);
  a.write_json(json_a);
  b.write_json(json_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(json_a.str(), json_b.str());
}

TEST(RunSweep, ReplicatesDiffer) {
  SweepSpec spec = tiny_spec();
  spec.gammas = {0.6};
  const SweepResult result = run_sweep(spec, {});
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_NE(result.points[0].seed, result.points[1].seed);
  // Different seeds, different stochastic environment, different goodput.
  EXPECT_NE(result.points[0].goodput, result.points[1].goodput);
}

TEST(RunSweep, CancellationPropagates) {
  SweepSpec spec;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.0);
  // Point 0 is infeasible (gamma > C_attack forces T_space < 0, the planner
  // throws); the rest are fine. With one thread the failure lands before
  // any later point is dispatched, so everything after it must be skipped.
  PointSpec bad;
  bad.flows = 3;
  bad.gamma = 5.0;
  PointSpec good;
  good.flows = 3;
  good.gamma = 0.5;
  spec.explicit_points = {bad, good, good, good};

  SweepOptions options;
  options.threads = 1;
  const SweepResult result = run_sweep(spec, options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.failures(), 1u);
  EXPECT_EQ(result.points[0].status, PointStatus::kFailed);
  EXPECT_FALSE(result.points[0].error.empty());
  // Every skipped row names the failure that cancelled the sweep, in the
  // CSV and JSON tables alike.
  const std::string cause =
      "skipped: sweep cancelled after: " + result.points[0].error;
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_EQ(result.points[i].status, PointStatus::kSkipped);
    EXPECT_EQ(result.points[i].error, cause);
  }
  std::ostringstream csv;
  std::ostringstream json;
  result.write_csv(csv);
  result.write_json(json);
  EXPECT_NE(csv.str().find(",skipped,"), std::string::npos);
  EXPECT_NE(csv.str().find("skipped: sweep cancelled after: "),
            std::string::npos);
  EXPECT_NE(json.str().find("\"error\": \"skipped: sweep cancelled after: "),
            std::string::npos);
}

TEST(RunSweep, KeepGoingRunsPastFailures) {
  SweepSpec spec;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.0);
  PointSpec bad;
  bad.flows = 3;
  bad.gamma = 5.0;
  PointSpec good;
  good.flows = 3;
  good.gamma = 0.5;
  spec.explicit_points = {bad, good};

  SweepOptions options;
  options.threads = 2;
  options.cancel_on_failure = false;
  const SweepResult result = run_sweep(spec, options);
  EXPECT_FALSE(result.cancelled);
  EXPECT_EQ(result.failures(), 1u);
  EXPECT_EQ(result.completed(), 1u);
  EXPECT_EQ(result.points[1].status, PointStatus::kOk);
}

TEST(RunSweep, ProgressReachesTotal) {
  SweepSpec spec = tiny_spec();
  spec.gammas = {0.5};
  spec.replicates = 1;
  std::atomic<std::size_t> last_done{0};
  std::atomic<std::size_t> total{0};
  SweepOptions options;
  options.threads = 2;
  options.on_progress = [&](const SweepProgress& progress) {
    EXPECT_GT(progress.done, last_done.load());  // serialized + monotonic
    last_done.store(progress.done);
    total.store(progress.total);
  };
  const SweepResult result = run_sweep(spec, options);
  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(last_done.load(), total.load());
  EXPECT_EQ(total.load(), 2u);  // 1 baseline + 1 point
}

TEST(RunSweep, CacheHitsAreWeightedNearZeroInEta) {
  // The ETA extrapolates wall cost from the SIMULATED tasks only. An
  // all-hit --resume replay must report eta 0 and cached == done at every
  // snapshot, instead of pricing microsecond store replays at full
  // simulation cost.
  TempDir dir;
  CampaignStore store(dir.path());
  SweepSpec spec = tiny_spec();
  SweepOptions options;
  options.threads = 1;
  options.store = &store;

  // First pass simulates everything: no snapshot reports a cache hit.
  std::size_t snapshots = 0;
  options.on_progress = [&](const SweepProgress& progress) {
    EXPECT_EQ(progress.cached, 0u);
    ++snapshots;
  };
  const SweepResult first = run_sweep(spec, options);
  ASSERT_EQ(first.failures(), 0u);
  EXPECT_GT(snapshots, 0u);

  // Resume: every task replays from the store, so the simulated-task count
  // stays zero and the hit-weighted ETA must stay exactly 0.
  options.on_progress = [](const SweepProgress& progress) {
    EXPECT_EQ(progress.cached, progress.done);
    EXPECT_EQ(progress.eta_seconds, 0.0);
  };
  const SweepResult resumed = run_sweep(spec, options);
  EXPECT_EQ(resumed.failures(), 0u);
  EXPECT_EQ(resumed.cache_hits, resumed.points.size() + 2u);  // + baselines
}

TEST(RunSweep, MeasurementsAreSane) {
  SweepSpec spec = tiny_spec();
  spec.gammas = {0.6};
  spec.replicates = 1;
  const SweepResult result = run_sweep(spec, {});
  ASSERT_EQ(result.points.size(), 1u);
  const PointResult& point = result.points[0];
  ASSERT_EQ(point.status, PointStatus::kOk);
  EXPECT_GT(point.baseline_goodput, 0.0);
  EXPECT_GT(point.goodput, 0.0);
  EXPECT_LT(point.goodput, point.baseline_goodput);  // the attack hurts
  EXPECT_GE(point.measured_degradation, 0.0);
  EXPECT_GT(point.attack_packets, 0u);
  EXPECT_GT(point.c_psi, 0.0);
}

TEST(SpecParser, ParsesTheFullGrammar) {
  const SpecFile file = parse_spec(R"(
# a comment
scenario     = ns2
queue        = droptail
backend      = fluid
flows        = 3, 5
textent_ms   = 50, 75
rattack_mbps = 25
gamma        = 0.3, 0.6
kappa        = 2.0
replicates   = 2
base_seed    = 7
warmup_s     = 1
measure_s    = 2
threads      = 4
csv          = out.csv
json         = out.json
)");
  EXPECT_EQ(file.spec.scenario, ScenarioKind::kNs2Dumbbell);
  EXPECT_EQ(file.spec.queue, QueueKind::kDropTail);
  EXPECT_EQ(file.spec.backend, Backend::kFluid);
  EXPECT_EQ(file.spec.flow_counts, (std::vector<int>{3, 5}));
  ASSERT_EQ(file.spec.textents.size(), 2u);
  EXPECT_DOUBLE_EQ(file.spec.textents[1], ms(75));
  EXPECT_DOUBLE_EQ(file.spec.kappa, 2.0);
  EXPECT_EQ(file.spec.replicates, 2);
  EXPECT_EQ(file.spec.base_seed, 7u);
  EXPECT_DOUBLE_EQ(file.spec.control.measure, sec(2));
  EXPECT_EQ(file.options.threads, 4);
  EXPECT_EQ(file.csv_path, "out.csv");
  EXPECT_EQ(file.json_path, "out.json");
}

TEST(SpecParser, AutoGammaAndDefaults) {
  const SpecFile file = parse_spec("gamma = auto\n");
  EXPECT_TRUE(file.spec.gammas.empty());
  EXPECT_EQ(file.options.threads, 0);
}

TEST(SpecParser, GridOfNoPointsIsASpecError) {
  // Every γ lies above C_attack = 1/15: the spec parses, but no point runs.
  const SpecFile empty =
      parse_spec("flows = 15\nrattack_mbps = 1\ngamma = 0.5\n");
  ASSERT_TRUE(empty.spec.enumerate().empty());
  try {
    enumerate_nonempty(empty.spec);
    ADD_FAILURE() << "a grid of no points was accepted";
  } catch (const ParameterError& e) {
    EXPECT_NE(std::string(e.what()).find("enumerates no points"),
              std::string::npos)
        << e.what();
  }
  const SpecFile runnable = parse_spec("gamma = 0.5\n");
  EXPECT_EQ(enumerate_nonempty(runnable.spec).size(),
            runnable.spec.enumerate().size());
}

TEST(SpecParser, RejectsUnknownKeysAndGarbage) {
  EXPECT_THROW(parse_spec("no_such_key = 1\n"), ParameterError);
  EXPECT_THROW(parse_spec("flows\n"), ParameterError);
  EXPECT_THROW(parse_spec("flows = abc\n"), ParameterError);
  EXPECT_THROW(parse_spec("scenario = ns3\n"), ParameterError);
  EXPECT_THROW(parse_spec("backend = warp\n"), ParameterError);
  // Integer keys take exact integers: no truncation, no range overflow.
  for (const char* key :
       {"flows", "replicates", "gamma_points", "threads", "base_seed"}) {
    SCOPED_TRACE(key);
    const std::string k = key;
    EXPECT_THROW(parse_spec(k + " = 4.7\n"), ParameterError);
    EXPECT_THROW(parse_spec(k + " = 1e3\n"), ParameterError);
    EXPECT_THROW(parse_spec(k + " = -1\n"), ParameterError);
    EXPECT_THROW(parse_spec(k + " = 99999999999999999999999\n"),
                 ParameterError);
  }
  EXPECT_THROW(parse_spec("replicates = 2147483648\n"), ParameterError);
  EXPECT_THROW(parse_spec("flows = 15, 2.5\n"), ParameterError);
  EXPECT_THROW(parse_spec("gamma_points = 1\n"), ParameterError);
  // base_seed is read as a uint64, not through a double: 2^53 + 1 survives.
  EXPECT_EQ(parse_spec("base_seed = 9007199254740993\n").spec.base_seed,
            9007199254740993ull);
  EXPECT_EQ(parse_spec("base_seed = 18446744073709551615\n").spec.base_seed,
            18446744073709551615ull);
  // Retired keys fail as unknown keys, naming the key: a spec that still
  // sets them must not silently run without them.
  for (const char* key :
       {"batch_replicates", "shards", "cache", "hybrid_foreground"}) {
    SCOPED_TRACE(key);
    try {
      parse_spec(std::string(key) + " = 4\n");
      ADD_FAILURE() << key << " = 4 parsed";
    } catch (const ParameterError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key '" +
                                           std::string(key) + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // The retired hybrid tier fails naming the key; it is not aliased to a
  // tier that would hand back different numbers under the same name.
  try {
    parse_spec("backend = hybrid\n");
    ADD_FAILURE() << "backend = hybrid parsed";
  } catch (const ParameterError& e) {
    EXPECT_NE(std::string(e.what()).find("backend"), std::string::npos)
        << e.what();
  }
  // The CLIs read their numeric flags through the same exact parsers:
  // garbage is an error naming the flag, never a silent 0.
  EXPECT_EQ(parse_int("--workers", "4", 1), 4);
  EXPECT_EQ(parse_double("--lease-ttl", "2.5"), 2.5);
  for (const char* bad : {"2.5", "x", "", "0", "4 "}) {
    SCOPED_TRACE(bad);
    try {
      parse_int("--workers", bad, 1);
      ADD_FAILURE() << "--workers " << bad << " parsed";
    } catch (const ParameterError& e) {
      EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos);
    }
  }
  for (const char* bad : {"abc", "", "1s"}) {
    SCOPED_TRACE(bad);
    try {
      parse_double("--lease-ttl", bad);
      ADD_FAILURE() << "--lease-ttl " << bad << " parsed";
    } catch (const ParameterError& e) {
      EXPECT_NE(std::string(e.what()).find("--lease-ttl"), std::string::npos);
    }
  }
}

// strtod reads "inf" and "nan"; a spec number must be finite, or
// `measure_s = inf` runs forever. The message names the key.
TEST(SpecParser, RejectsNonFiniteNumbers) {
  for (const char* key : {"kappa", "warmup_s", "measure_s", "textent_ms",
                          "rattack_mbps", "gamma"}) {
    for (const char* value : {"inf", "-inf", "infinity", "INF", "nan",
                              "-nan", "NAN(1)"}) {
      SCOPED_TRACE(std::string(key) + " = " + value);
      try {
        parse_spec(std::string(key) + " = " + value + "\n");
        ADD_FAILURE() << "parsed";
      } catch (const ParameterError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_THROW(parse_spec("gamma = 0.2, inf\n"), ParameterError);
  EXPECT_THROW(parse_double("--lease-ttl", "inf"), ParameterError);
  EXPECT_EQ(parse_double("--lease-ttl", "1e300"), 1e300);
}

// A run window no run could use fails at parse time, naming the key,
// instead of starting and ending as a skipped row: a negative warm-up, and
// a horizon whose time series would need more than kMaxSeriesBins bins
// (`measure_s = 1e9` needs 10^10 bins at 100 ms).
TEST(SpecParser, RejectsRunWindowsOutOfRange) {
  for (const char* text : {"warmup_s = -1\n", "warmup_s = -1e-9\n"}) {
    SCOPED_TRACE(text);
    try {
      parse_spec(text);
      ADD_FAILURE() << "parsed";
    } catch (const ParameterError& e) {
      EXPECT_NE(std::string(e.what()).find("warmup_s"), std::string::npos)
          << e.what();
    }
  }
  for (const char* text :
       {"measure_s = 1e9\n", "measure_s = 0\n", "measure_s = 100000\n",
        "backend = fluid\nmeasure_s = 1e9\n", "warmup_s = 1e9\n"}) {
    SCOPED_TRACE(text);
    try {
      parse_spec(text);
      ADD_FAILURE() << "parsed";
    } catch (const ParameterError& e) {
      EXPECT_NE(std::string(e.what()).find("measure_s"), std::string::npos)
          << e.what();
    }
  }
  // The ceiling is 10^6 bins of 100 ms: 27.8 h still parses, one bin
  // more does not.
  EXPECT_NO_THROW(parse_spec("warmup_s = 0\nmeasure_s = 100000\n"));
  EXPECT_THROW(parse_spec("warmup_s = 0.1\nmeasure_s = 100000\n"),
               ParameterError);
  EXPECT_NO_THROW(parse_spec("warmup_s = 0\nmeasure_s = 120\n"));
}

TEST(RunSweep, FluidBackendProducesComparableDegradation) {
  SweepSpec spec;
  spec.flow_counts = {15};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.5};
  spec.control.warmup = sec(5);
  spec.control.measure = sec(10);

  SweepOptions options;
  options.threads = 1;
  const SweepResult packet = run_sweep(spec, options);
  spec.backend = Backend::kFluid;
  const SweepResult fluid = run_sweep(spec, options);
  ASSERT_EQ(packet.failures(), 0u);
  ASSERT_EQ(fluid.failures(), 0u);
  ASSERT_EQ(packet.points.size(), 1u);
  ASSERT_EQ(fluid.points.size(), 1u);
  EXPECT_GT(fluid.points[0].baseline_goodput, 0.0);
  EXPECT_NEAR(fluid.points[0].measured_degradation,
              packet.points[0].measured_degradation, 0.25);
}

TEST(RunSweep, FluidBatchedPointsMatchDirectMeasurement) {
  // The fluid tier's phase-2 path groups a flows block's points, dedupes
  // replicates (fluid is seed-invariant), and solves the unique plans as
  // lanes of batched fluid evaluations (DESIGN.md §16). Every recorded
  // point must still be bit-identical to a direct single-point
  // measure_gain on the same scenario — across a grid wide enough to
  // force multiple batches and a ragged tail (2 textents × 5 gammas = 10
  // unique plans at width 8), plus replicates that must fan out.
  SweepSpec spec;
  spec.flow_counts = {9};
  spec.textents = {ms(50), ms(80)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.2, 0.35, 0.5, 0.65, 0.8};
  spec.replicates = 2;
  spec.backend = Backend::kFluid;
  spec.control.warmup = sec(2);
  spec.control.measure = sec(6);

  SweepOptions options;
  options.threads = 1;
  const SweepResult swept = run_sweep(spec, options);
  ASSERT_EQ(swept.failures(), 0u);
  ASSERT_EQ(swept.points.size(), 20u);

  for (const PointResult& point : swept.points) {
    const ScenarioConfig scenario = spec.make_scenario(point.point);
    const RunControl& control = spec.control;
    const BitRate baseline = measure_baseline(scenario, control);
    EXPECT_EQ(point.baseline_goodput, baseline);
    // The exact train the sweep planner derives for this point.
    AttackPlanRequest request;
    request.victim = scenario.victim_profile();
    request.textent = point.point.textent;
    request.rattack = point.point.rattack;
    request.kappa = point.point.kappa;
    request.attack_packet_bytes = scenario.attack_packet_bytes;
    request.victim_min_rto = scenario.tcp.rto_min;
    const AttackPlan plan = plan_attack_at_gamma(request, point.point.gamma);
    const GainMeasurement direct = measure_gain(
        scenario, plan.train, point.point.kappa, control, baseline);
    EXPECT_EQ(point.measured_gain, direct.gain)
        << "textent " << point.point.textent << " gamma "
        << point.point.gamma << " replicate " << point.point.replicate;
    EXPECT_EQ(point.measured_degradation, direct.degradation);
    EXPECT_EQ(point.goodput, direct.run.goodput_rate);
  }
}

TEST(RunSweep, FluidOutputIsLayoutInvariant) {
  // The fluid tier cuts each flows block into tasks of up to 8 unique
  // attack plans and solves a task's plans as one lane batch. The bytes
  // must not depend on how the rows fall into tasks or lanes: 2 flows
  // blocks × 10 unique plans (a full chunk and a ragged one) × 3
  // replicates, run on 1, 3 and 8 threads, and over a store holding every
  // other row and baseline, so chunks batch only their misses.
  SweepSpec spec;
  spec.backend = Backend::kFluid;
  spec.flow_counts = {3, 6};
  spec.textents = {ms(50), ms(80)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.2, 0.35, 0.5, 0.65, 0.8};
  spec.replicates = 3;
  spec.control.warmup = sec(0.5);
  spec.control.measure = sec(1.5);

  const auto outputs = [](const SweepResult& result) {
    std::ostringstream csv, json;
    result.write_csv(csv);
    result.write_json(json);
    return std::make_pair(csv.str(), json.str());
  };
  TempDir dir;
  CampaignStore full(dir.sub("full"));
  SweepOptions options;
  options.threads = 1;
  options.store = &full;
  const SweepResult cold = run_sweep(spec, options);
  ASSERT_EQ(cold.points.size(), 60u);
  ASSERT_EQ(cold.failures(), 0u);
  ASSERT_EQ(cold.simulated, 60u + 6u);  // rows + (flows, replicate) pairs
  const auto expected = outputs(cold);

  options.store = nullptr;
  for (int threads : {3, 8}) {
    SCOPED_TRACE(threads);
    options.threads = threads;
    EXPECT_EQ(outputs(run_sweep(spec, options)), expected);
  }

  for (int threads : {1, 3, 8}) {
    SCOPED_TRACE(threads);
    // Every other row, and the even replicates' baselines, from the cold
    // run's store.
    CampaignStore partial(dir.sub("partial-" + std::to_string(threads)));
    std::size_t stored = 0;
    for (const PointResult& row : cold.points) {
      const std::uint64_t key = point_key(spec, row.point, row.seed);
      CachedPoint record;
      if (row.index % 2 == 0 && full.lookup_point(key, record)) {
        partial.store_point(key, record);
        ++stored;
      }
      const std::uint64_t base = baseline_key(spec, row.point, row.seed);
      double goodput = 0.0;
      if (row.point.replicate % 2 == 0 && full.lookup_baseline(base, goodput) &&
          !partial.lookup_baseline(base, goodput)) {
        partial.store_baseline(base, goodput);
        ++stored;
      }
    }
    ASSERT_EQ(stored, 30u + 4u);
    options.threads = threads;
    options.store = &partial;
    const SweepResult resumed = run_sweep(spec, options);
    EXPECT_EQ(resumed.cache_hits, stored);
    EXPECT_EQ(resumed.simulated, 60u + 6u - stored);
    EXPECT_EQ(outputs(resumed), expected);
  }
}

TEST(SweepResult, CsvHasHeaderAndOneRowPerPoint) {
  SweepSpec spec = tiny_spec();
  spec.gammas = {0.5};
  spec.replicates = 1;
  const SweepResult result = run_sweep(spec, {});
  std::ostringstream out;
  result.write_csv(out);
  const std::string csv = out.str();
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + result.points.size());
  EXPECT_EQ(csv.find("index,scenario_flows,"), 0u);
}

TEST(AggregateReplicates, MeanStddevAndCiOverReplicates) {
  // Hand-checkable statistics: two axes groups, one with gains {1, 2, 3}
  // (mean 2, sample stddev 1), one with a failed replicate excluded.
  SweepResult result;
  auto push = [&result](double gamma, int replicate, double gain,
                        PointStatus status) {
    PointResult r;
    r.index = result.points.size();
    r.point.gamma = gamma;
    r.point.replicate = replicate;
    r.status = status;
    r.measured_gain = gain;
    r.measured_degradation = gain / 2.0;
    r.goodput = gain * 1e6;
    result.points.push_back(r);
  };
  push(0.3, 0, 1.0, PointStatus::kOk);
  push(0.3, 1, 2.0, PointStatus::kOk);
  push(0.3, 2, 3.0, PointStatus::kOk);
  push(0.6, 0, 5.0, PointStatus::kOk);
  push(0.6, 1, 0.0, PointStatus::kFailed);
  push(0.6, 2, 7.0, PointStatus::kOk);

  const std::vector<AggregateRow> rows = aggregate_replicates(result);
  ASSERT_EQ(rows.size(), 2u);

  EXPECT_EQ(rows[0].replicates, 3u);
  EXPECT_DOUBLE_EQ(rows[0].mean_gain, 2.0);
  EXPECT_DOUBLE_EQ(rows[0].stddev_gain, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].ci95_gain, 1.96 / std::sqrt(3.0));
  EXPECT_DOUBLE_EQ(rows[0].mean_degradation, 1.0);
  EXPECT_DOUBLE_EQ(rows[0].mean_goodput, 2e6);

  EXPECT_EQ(rows[1].replicates, 2u);  // the failed replicate is excluded
  EXPECT_DOUBLE_EQ(rows[1].mean_gain, 6.0);
  EXPECT_DOUBLE_EQ(rows[1].stddev_gain, std::sqrt(2.0));

  std::ostringstream csv;
  write_aggregate_csv(rows, csv);
  EXPECT_NE(csv.str().find("mean_gain"), std::string::npos);
  EXPECT_NE(csv.str().find("ci95_gain"), std::string::npos);

  std::ostringstream json;
  write_aggregate_json(rows, json);
  EXPECT_EQ(json.str().front(), '[');
  EXPECT_NE(json.str().find("\"replicates\": 3"), std::string::npos);
}

TEST(AggregateReplicates, SingleReplicateHasZeroSpread) {
  SweepResult result;
  PointResult r;
  r.status = PointStatus::kOk;
  r.measured_gain = 4.2;
  result.points.push_back(r);
  const auto rows = aggregate_replicates(result);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].replicates, 1u);
  EXPECT_DOUBLE_EQ(rows[0].mean_gain, 4.2);
  EXPECT_DOUBLE_EQ(rows[0].stddev_gain, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].ci95_gain, 0.0);
}

}  // namespace
}  // namespace pdos::sweep
