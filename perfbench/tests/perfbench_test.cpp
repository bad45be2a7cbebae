// Tests of the benchmark's own arithmetic and checks: self time, span
// nesting, lane accounting, span serialization, the store hook's task
// grouping, digests and the result invariants. Build and run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checks.hpp"
#include "hooks.hpp"
#include "trace.hpp"
#include "util/units.hpp"

namespace perfbench {
namespace {

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int64_t parent, double weight = 1.0) {
  return Span{name, start, end, parent, weight};
}

TEST(UnionLength, MergesOverlapsAndClips) {
  EXPECT_EQ(union_length({}, 0, 100), 0);
  EXPECT_EQ(union_length({{10, 20}, {15, 30}, {40, 50}}, 0, 100), 30);
  EXPECT_EQ(union_length({{40, 50}, {10, 20}}, 0, 100), 20);  // unsorted
  EXPECT_EQ(union_length({{-10, 20}, {90, 120}}, 0, 100), 30);  // clipped
  EXPECT_EQ(union_length({{10, 60}, {20, 30}}, 0, 100), 50);  // contained
}

TEST(SelfTimes, DurationMinusChildCoverage) {
  // root [0,100] > a [10,40] > c [20,30]; root > b [50,70].
  const std::vector<Span> spans = {
      span("bench.pass", 0, 100, -1), span("core.a", 10, 40, 0),
      span("store.c", 20, 30, 1), span("fluid.b", 50, 70, 0)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
  const auto layers = layer_self_seconds(spans, 0);
  EXPECT_DOUBLE_EQ(layers.at("bench"), 50e-9);
  EXPECT_DOUBLE_EQ(layers.at("core"), 20e-9);
  EXPECT_DOUBLE_EQ(layers.at("store"), 10e-9);
  EXPECT_DOUBLE_EQ(layers.at("fluid"), 20e-9);
  EXPECT_DOUBLE_EQ(accounted_fraction(spans, 0), 1.0);
  EXPECT_TRUE(nesting_errors(spans).empty());
}

TEST(SelfTimes, ParallelLanesAccountForWallTime) {
  // A 2-lane region [0,100]: lane 0 busy [0,60], lane 1 busy [0,90].
  const std::vector<Span> spans = {
      span("sweep.run", 0, 100, -1),
      span("sweep.lane", 0, 100, 0, 0.5),
      span("sweep.lane", 0, 100, 0, 0.5),
      span("core.packet_run", 0, 60, 1, 0.5),
      span("core.packet_run", 0, 90, 2, 0.5)};
  EXPECT_TRUE(nesting_errors(spans).empty());
  const auto layers = layer_self_seconds(spans, 0);
  EXPECT_DOUBLE_EQ(layers.at("core"), 75e-9);   // (60 + 90) / 2
  EXPECT_DOUBLE_EQ(layers.at("sweep"), 25e-9);  // (40 + 10) / 2 idle
  EXPECT_DOUBLE_EQ(accounted_fraction(spans, 0), 1.0);

  const LaneStats lanes = lane_stats(spans, "sweep.run", "sweep.lane");
  EXPECT_DOUBLE_EQ(lanes.busy_fraction, 150.0 / 200.0);
  EXPECT_DOUBLE_EQ(lanes.tail_seconds, 30e-9);
}

TEST(SelfTimes, MissingCoverageShowsInAccountedFraction) {
  // Overlapping serial siblings double-count 10 ns of a 100 ns root.
  const std::vector<Span> spans = {span("bench.pass", 0, 100, -1),
                                   span("core.a", 0, 60, 0),
                                   span("core.b", 50, 100, 0)};
  EXPECT_DOUBLE_EQ(accounted_fraction(spans, 0), 1.1);
  const auto errors = nesting_errors(spans);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("overlaps"), std::string::npos);
}

TEST(Nesting, FlagsEscapesAndBadParents) {
  EXPECT_EQ(nesting_errors({span("a.x", 0, 10, -1), span("a.y", 5, 20, 0)})
                .size(),
            1u);  // child ends after its parent
  EXPECT_EQ(nesting_errors({span("a.x", 10, 0, -1)}).size(), 1u);
  EXPECT_EQ(nesting_errors({span("a.x", 0, 10, 1), span("a.y", 0, 10, -1)})
                .size(),
            1u);  // parent recorded after the child
  // Parallel lanes (lower weight than their parent) may overlap.
  EXPECT_TRUE(nesting_errors({span("a.x", 0, 10, -1),
                              span("a.lane", 0, 10, 0, 0.5),
                              span("a.lane", 0, 10, 0, 0.5)})
                  .empty());
}

TEST(Tracer, OpenCloseAndSplice) {
  Tracer tracer(7);
  const std::int64_t root = tracer.open("bench.pass", -1);
  const std::int64_t child = tracer.open("core.x", root);
  tracer.close(child);
  tracer.close(root);
  const std::int64_t base =
      tracer.splice({span("store.a", 1, 2, -1), span("store.b", 1, 2, 0)}, child);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(base, 2);
  EXPECT_EQ(spans[2].parent, child);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(Tracer, SpansRoundTripThroughText) {
  const std::vector<Span> spans = {span("bench.pass", 0, 100, -1),
                                   span("sweep.lane", 0, 100, 0, 0.25)};
  std::uint64_t id = 0;
  std::vector<Span> back;
  ASSERT_TRUE(parse_spans(format_spans(42, spans), id, back));
  EXPECT_EQ(id, 42u);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].name, "sweep.lane");
  EXPECT_EQ(back[1].parent, 0);
  EXPECT_DOUBLE_EQ(back[1].weight, 0.25);
  EXPECT_FALSE(parse_spans("garbage", id, back));
}

/// Inner store with scripted answers: keys below 100 hit, claims answer
/// `claim_status`.
class ScriptedStore : public NullStore {
 public:
  bool lookup_point(std::uint64_t key,
                    pdos::sweep::CachedPoint&) const override {
    return key < 100;
  }
  ClaimStatus claim_point(std::uint64_t) override { return claim_status; }
  ClaimStatus claim_status = ClaimStatus::kAcquired;
};

std::vector<std::string> names_under(const std::vector<Span>& spans,
                                     std::int64_t parent) {
  std::vector<std::string> out;
  for (const Span& s : spans) {
    if (s.parent == parent) out.push_back(s.name);
  }
  return out;
}

/// Open a root and a sweep span, run `calls` against a TracingStore over
/// `inner`, close both and return the spans.
template <class Calls>
std::vector<Span> trace_calls(pdos::sweep::PointStore& inner, Calls&& calls) {
  Tracer tracer(1);
  TracingStore store(inner, tracer);
  const std::int64_t root = tracer.open("bench.pass", -1);
  const std::int64_t sweep = tracer.open("sweep.run", root);
  store.begin_sweep(sweep, "core.packet_run", "core.baseline");
  calls(store);
  tracer.close(sweep);
  store.end_sweep(1);
  tracer.close(root);
  return tracer.spans();
}

TEST(TracingStore, GroupsAPacketTaskAndAReplay) {
  ScriptedStore inner;
  pdos::sweep::CachedPoint out;
  const std::vector<Span> spans = trace_calls(inner, [&](TracingStore& s) {
    EXPECT_FALSE(s.lookup_point(500, out));
    EXPECT_EQ(s.claim_point(500), TracingStore::ClaimStatus::kAcquired);
    s.store_point(500, out);
    EXPECT_TRUE(s.lookup_point(7, out));  // hit: settled without compute
  });
  EXPECT_TRUE(nesting_errors(spans).empty());
  EXPECT_DOUBLE_EQ(accounted_fraction(spans, 0), 1.0);
  // spans: 0 root, 1 sweep, 2 lane, 3 task, 4 replay, then the calls.
  EXPECT_EQ(names_under(spans, 2),
            (std::vector<std::string>{"sweep.task", "sweep.replay"}));
  EXPECT_EQ(names_under(spans, 3),
            (std::vector<std::string>{"store.lookup", "store.claim",
                                      "core.packet_run", "store.append"}));
  EXPECT_EQ(names_under(spans, 4), (std::vector<std::string>{"store.lookup"}));
}

TEST(TracingStore, KeepsAGroupOpenUntilEveryGrantedClaimIsStored) {
  // The fluid path: a group's lookups and claims, then one batched solve,
  // then its appends. A hit inside the group does not end it.
  ScriptedStore inner;
  pdos::sweep::CachedPoint out;
  const std::vector<Span> spans = trace_calls(inner, [&](TracingStore& s) {
    s.lookup_point(500, out);
    s.claim_point(500);
    s.lookup_point(7, out);
    s.lookup_point(501, out);
    s.claim_point(501);
    s.store_point(500, out);
    s.store_point(501, out);
  });
  EXPECT_TRUE(nesting_errors(spans).empty());
  EXPECT_EQ(names_under(spans, 2), (std::vector<std::string>{"sweep.task"}));
  EXPECT_EQ(durations_of(spans, "core.packet_run").size(), 2u);
  EXPECT_EQ(durations_of(spans, "store.lookup").size(), 3u);
}

TEST(TracingStore, CountsBusyClaimsAndRefreshesAtLaneLevel) {
  ScriptedStore inner;
  inner.claim_status = TracingStore::ClaimStatus::kBusy;
  pdos::sweep::CachedPoint out;
  std::uint64_t busy = 0;
  Tracer tracer(1);
  TracingStore store(inner, tracer);
  const std::int64_t sweep = tracer.open("sweep.run", -1);
  store.begin_sweep(sweep, "core.packet_run", "core.baseline");
  store.lookup_point(500, out);
  store.claim_point(500);  // deferred: ends the task
  store.refresh();
  busy = store.busy_claims();
  tracer.close(sweep);
  store.end_sweep(1);
  const std::vector<Span> spans = tracer.spans();
  EXPECT_EQ(busy, 1u);
  EXPECT_TRUE(nesting_errors(spans).empty());
  EXPECT_EQ(names_under(spans, 1),
            (std::vector<std::string>{"sweep.replay", "store.refresh"}));
}

TEST(TracingStore, TracesARealSweepWithoutACache) {
  pdos::sweep::SweepSpec spec;
  spec.flow_counts = {3};
  spec.gammas = {0.4, 0.7};
  spec.control.warmup = pdos::sec(0.5);
  spec.control.measure = pdos::sec(1.0);
  NullStore nothing;
  Tracer tracer(1);
  TracingStore store(nothing, tracer);
  const std::int64_t sweep = tracer.open("sweep.run", -1);
  store.begin_sweep(sweep, "core.packet_run", "core.baseline");
  pdos::sweep::SweepOptions options;
  options.threads = 2;
  options.store = &store;
  const pdos::sweep::SweepResult result = pdos::sweep::run_sweep(spec, options);
  tracer.close(sweep);
  store.end_sweep(result.threads);
  const std::vector<Span> spans = tracer.spans();

  EXPECT_EQ(bad_rows(result), 0u);
  EXPECT_TRUE(nesting_errors(spans).empty());
  EXPECT_NEAR(accounted_fraction(spans, 0), 1.0, 1e-9);
  EXPECT_EQ(durations_of(spans, "core.packet_run").size(), 2u);
  EXPECT_EQ(durations_of(spans, "core.baseline").size(), 1u);
  EXPECT_EQ(durations_of(spans, "sweep.lane").size(), 2u);
  // Tracing through the hook leaves the table unchanged.
  pdos::sweep::SweepOptions plain;
  plain.threads = 1;
  EXPECT_EQ(csv_of(pdos::sweep::run_sweep(spec, plain)), csv_of(result));
}

TEST(Digest, MatchesTheGoldenTestHash) {
  // tests/sweep/golden_output_test.cpp seeds FNV-1a/64 with
  // 1469598103934665603 (not the published 14695981039346656037 basis);
  // the benchmark's digests must use the same constant to be comparable.
  EXPECT_EQ(fnv1a64(""), 1469598103934665603ull);
  EXPECT_EQ(fnv1a64("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(hex64(0x10a056e89b4efd24ull), "0x10a056e89b4efd24");
}

TEST(Checks, CountsBadRowsAndCancellation) {
  pdos::sweep::SweepResult result;
  result.points.resize(3);
  result.points[0].status = pdos::sweep::PointStatus::kOk;
  result.points[1].status = pdos::sweep::PointStatus::kFailed;
  result.points[2].status = pdos::sweep::PointStatus::kSkipped;
  EXPECT_EQ(bad_rows(result), 2u);
  result.cancelled = true;
  EXPECT_EQ(bad_rows(result), 3u);

  CheckLog log;
  check_table(log, result, 4, "t");
  EXPECT_EQ(log.attempted(), 4u);  // 3 rows + the size check
  EXPECT_EQ(log.failed(), 4u);     // 3 bad + wrong size
  EXPECT_FALSE(log.messages().empty());
}

TEST(Checks, SearchInvariants) {
  pdos::GammaSearch search;
  search.grid_points = 3;
  search.confirm_top = 1;
  pdos::GammaSearchResult r;
  r.packet_runs = 2;
  r.fluid_runs = 4;
  r.gamma_star = 0.5;
  r.gamma_star_fluid = 0.5;
  r.gain = 0.3;
  r.candidates = {{0.2, 0.1, 0.0, false},
                  {0.5, 0.4, 0.3, true},
                  {0.8, 0.2, 0.0, false}};
  EXPECT_TRUE(search_violations(search, r).empty());

  pdos::GammaSearchResult bad = r;
  bad.packet_runs = 5;
  bad.gamma_star = 0.2;  // not confirmed
  EXPECT_EQ(search_violations(search, bad).size(), 2u);

  SearchRecord rec{15, 50.0, 25.0, r};
  EXPECT_DOUBLE_EQ(fluid_gain_error({rec}), 0.1);
  EXPECT_DOUBLE_EQ(gamma_star_match({rec}), 1.0);
  rec.result.gamma_star_fluid = 0.8;
  EXPECT_DOUBLE_EQ(gamma_star_match({rec, SearchRecord{15, 50.0, 25.0, r}}),
                   0.5);
  // The table text covers every result field the digest pins.
  EXPECT_NE(search_table({rec}).find("\n15,50,25,0.5"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
