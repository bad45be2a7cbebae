// Golden-output determinism pins for the figure scenarios beyond fig. 6.
//
// The fig06 digest (golden_output_test.cpp) covers the forward data path
// under the quick-mode sweep grid, but it never exercises a cwnd trace, the
// Dummynet-style DropTail bottleneck, or the test-bed's delayed-ACK (d = 2)
// reverse-path timing. These two digests close that gap:
//
//   fig03  — quasi-global synchronization trace: ns-2 dumbbell, 24 flows,
//            a 50 ms / 100 Mbps pulse every 2 s, cwnd trace of flow 0.
//   fig12  — test-bed scenario: 10 flows at 150 ms RTT, minRTO 200 ms,
//            delayed ACKs, run under BOTH the paper's RED config and a
//            Dummynet-style DropTail bottleneck.
//
// Every numeric field of the RunResult — bins, traces, queue counters, TCP
// state counters, event count — is serialized at full precision (%.17g
// round-trips doubles exactly) and FNV-1a hashed. The digests were
// generated at commit 6550a94 (pre express-lane/event-fusion); the default
// full link path must keep reproducing them bit-for-bit.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "attack/pulse.hpp"
#include "core/experiment.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

void append(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, value);
  out += buf;
}

void append(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 "\n", key, value);
  out += buf;
}

/// Serialize every observable field of a RunResult at full precision.
std::string serialize(const RunResult& r) {
  std::string out;
  append(out, "goodput_bytes", static_cast<std::uint64_t>(r.goodput_bytes));
  append(out, "goodput_rate", r.goodput_rate);
  append(out, "utilization", r.utilization);
  append(out, "fairness", r.fairness_index);
  append(out, "bin_width", r.bin_width);
  for (Bytes b : r.per_flow_goodput) {
    append(out, "flow", static_cast<std::uint64_t>(b));
  }
  for (double v : r.incoming_bins) append(out, "in", v);
  for (double v : r.attack_bins) append(out, "atk", v);
  for (double v : r.queue_occupancy) append(out, "occ", v);
  for (double v : r.red_avg_samples) append(out, "avg", v);
  append(out, "q_enqueued", r.bottleneck_queue.enqueued);
  append(out, "q_dequeued", r.bottleneck_queue.dequeued);
  append(out, "q_dropped", r.bottleneck_queue.dropped);
  append(out, "q_dropped_tcp", r.bottleneck_queue.dropped_tcp);
  append(out, "q_dropped_attack", r.bottleneck_queue.dropped_attack);
  append(out, "q_bytes_dropped", r.bottleneck_queue.bytes_dropped);
  append(out, "red_early", r.red_early_drops);
  append(out, "red_forced", r.red_forced_drops);
  append(out, "timeouts", r.total_timeouts);
  append(out, "fast_recoveries", r.total_fast_recoveries);
  append(out, "retransmits", r.total_retransmits);
  append(out, "jitter", r.mean_delivery_jitter);
  append(out, "attack_packets", r.attack_packets_sent);
  append(out, "events", r.events_executed);
  for (const auto& [t, w] : r.cwnd_trace) {
    append(out, "cwnd_t", t);
    append(out, "cwnd_w", w);
  }
  return out;
}

// Golden digests generated at commit 6550a94. Regenerate ONLY for a change
// that intentionally alters simulation semantics, and say so in the commit
// message.
constexpr std::uint64_t kFig03Digest = 0xdb3c1966f47adfa2ull;
constexpr std::uint64_t kFig12RedDigest = 0x328f57d94a030509ull;
constexpr std::uint64_t kFig12DropTailDigest = 0xebe7d50b5a3f53cfull;

TEST(GoldenFiguresTest, Fig03SynchronizationTraceMatchesDigest) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(24);
  PulseTrain train;
  train.textent = ms(50);
  train.rattack = mbps(100);
  train.tspace = ms(1950);

  RunControl control;
  control.warmup = sec(3);
  control.measure = sec(10);
  control.traced_flow = 0;

  const RunResult result = run_scenario(config, train, control);
  const std::uint64_t digest = fnv1a64(serialize(result));
  EXPECT_EQ(digest, kFig03Digest)
      << "fig03 scenario output changed: actual digest 0x" << std::hex
      << digest;
}

TEST(GoldenFiguresTest, Fig12TestbedRedMatchesDigest) {
  ScenarioConfig config = ScenarioConfig::testbed(10);
  const PulseTrain train =
      PulseTrain::from_gamma(ms(150), mbps(20), 0.5, config.bottleneck);

  RunControl control;
  control.warmup = sec(2);
  control.measure = sec(8);

  const RunResult result = run_scenario(config, train, control);
  const std::uint64_t digest = fnv1a64(serialize(result));
  EXPECT_EQ(digest, kFig12RedDigest)
      << "fig12 RED scenario output changed: actual digest 0x" << std::hex
      << digest;
}

TEST(GoldenFiguresTest, Fig12TestbedDropTailMatchesDigest) {
  // Same test-bed, Dummynet-style tail-drop bottleneck: exercises the
  // DropTail discipline end-to-end (including reverse-path ACK queueing)
  // rather than through unit tests alone.
  ScenarioConfig config = ScenarioConfig::testbed(10);
  config.queue = QueueKind::kDropTail;
  const PulseTrain train =
      PulseTrain::from_gamma(ms(150), mbps(20), 0.5, config.bottleneck);

  RunControl control;
  control.warmup = sec(2);
  control.measure = sec(8);

  const RunResult result = run_scenario(config, train, control);
  const std::uint64_t digest = fnv1a64(serialize(result));
  EXPECT_EQ(digest, kFig12DropTailDigest)
      << "fig12 DropTail scenario output changed: actual digest 0x"
      << std::hex << digest;
}

}  // namespace
}  // namespace pdos
