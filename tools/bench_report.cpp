// Engine + data-path + sweep + scale + fluid + campaign performance
// report: measures the scheduler and packet data-path micro-benchmarks,
// scenario setup (fresh vs warm-reset), the LargeScale fast-path scenarios
// (interleaved fast/full A/B), the fluid-surrogate vs packet A/B on a
// fig. 6 quick grid point, the 1-worker vs K-worker multi-process
// campaign A/B over a shared CampaignStore (DESIGN.md §15), and a fixed
// fig. 6 quick-mode sweep (cold and cache-resumed), and writes
// BENCH_engine.json, BENCH_datapath.json, BENCH_sweep.json,
// BENCH_scale.json, BENCH_fluid.json, and BENCH_campaign.json.
//
// This is the tracked-baseline half of the perf story: google-benchmark
// (bench/micro_engine, bench/micro_datapath, bench/micro_setup,
// bench/micro_largescale, bench/micro_fluid, bench/micro_campaign) is for
// interactive work, while this tool emits stable, machine-readable
// snapshots that CI diffs against the committed bench/baseline_engine.json,
// bench/baseline_datapath.json, bench/baseline_sweep.json,
// bench/baseline_scale.json, bench/baseline_fluid.json, and
// bench/baseline_campaign.json. The JSON is
// flat `"key": number` pairs so the reader below stays a 30-line scanner
// instead of a JSON library.
//
// Usage:
//   bench_report [--out FILE] [--baseline FILE] [--datapath-out FILE]
//                [--datapath-baseline FILE] [--sweep-out FILE]
//                [--sweep-baseline FILE] [--scale-out FILE]
//                [--scale-baseline FILE] [--fluid-out FILE]
//                [--fluid-baseline FILE] [--fluid-surface-out FILE]
//                [--campaign-out FILE] [--campaign-baseline FILE]
//                [--check] [--reps N] [--skip-sweep]
//
//   --out FILE                engine output path (default BENCH_engine.json)
//   --baseline FILE           committed engine reference; its values are
//                             copied into the output next to the fresh
//                             numbers (before/after in one artifact)
//   --datapath-out FILE       data-path output (default BENCH_datapath.json)
//   --datapath-baseline FILE  committed data-path reference
//   --sweep-out FILE          setup/sweep output (default BENCH_sweep.json)
//   --sweep-baseline FILE     committed setup/sweep reference; only the
//                             setup micros are gated — the cold/resume
//                             wall-clock rides along as information
//   --scale-out FILE          LargeScale output (default BENCH_scale.json)
//   --scale-baseline FILE     committed LargeScale reference; the fast-path
//                             event throughputs are gated, the fast-vs-full
//                             speedup rides along as information
//   --fluid-out FILE          fluid-tier output (default BENCH_fluid.json)
//   --fluid-baseline FILE     committed fluid-tier reference; the fluid
//                             point, batched W=8 γ-grid, and binned
//                             1e6-flow throughputs are gated against it,
//                             and under --check the fluid-vs-packet
//                             speedup must additionally clear the >= 100x
//                             floor the surrogate tier promises
//                             (DESIGN.md §12) while the vectorized paths
//                             must beat the frozen scalar reference solver
//                             (fluid/refbench.hpp) by >= 1.10x (batched
//                             grid; measured 1.2-1.3x, driver-bound at 15
//                             classes) and >= 1.30x (binned 64-class
//                             solve; measured 1.45-1.6x) — SIMD builds
//                             only; scalar builds skip those two floors
//                             out loud (DESIGN.md §16)
//   --fluid-surface-out FILE  also emit the fluid-tier attack-gain surface
//                             (γ × T_extent grid, long-format CSV:
//                             textent_ms,gamma,degradation,gain) to FILE
//   --campaign-out FILE       multi-process campaign output (default
//                             BENCH_campaign.json)
//   --campaign-baseline FILE  committed campaign reference; the K-worker
//                             cold campaign's task throughput is gated
//                             against it. Under --check the K-worker vs
//                             1-worker cold-campaign speedup must clear the
//                             >= 2.5x floor — but ONLY on hosts with at
//                             least 4 hardware threads (single-core runners
//                             print a skip line: forked workers cannot beat
//                             one process without parallel hardware), and
//                             the all-hit resume must simulate nothing and
//                             reproduce the merged CSV byte for byte (that
//                             pair gates on every host).
//   --check                   exit non-zero if any micro-benchmark runs >30%
//                             slower than its baseline (requires the
//                             corresponding --*baseline)
//   --reps N                  samples per benchmark, best-of (default 7)
//   --skip-sweep              omit the fig. 6 sweeps (fast CI smoke)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/pulse.hpp"
#include "core/experiment.hpp"
#include "fluid/batch.hpp"
#include "fluid/fluid.hpp"
#include "fluid/refbench.hpp"
#include "net/droptail.hpp"
#include "net/link.hpp"
#include "net/packet_ring.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/stats_hub.hpp"
#include "sweep/campaign.hpp"
#include "sweep/sweep.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kRegressionTolerance = 0.30;  // fail at >30% slowdown

// The surrogate-tier contract (DESIGN.md §12): a fluid fig. 6 quick grid
// point must evaluate at least this many times faster than the same point
// on the full packet path. A same-machine ratio, so it is gated directly
// under --check rather than via the committed baseline.
constexpr double kFluidSpeedupFloor = 100.0;

// The vectorization contract (DESIGN.md §16): the lane-batched γ-grid at
// W = kFluidBatchWidth must beat the frozen pre-vectorization scalar
// solver (fluid/refbench.hpp) evaluating the same grid point-at-a-time by
// at least kFluidBatchSpeedupFloor, and the vectorized binned 1e6-flow
// solve must beat the same reference by kFluidBinnedSpeedupFloor. Both
// are same-machine in-run ratios, gated directly under --check — but only
// when the fluid kernels were compiled against a real SIMD backend.
// Scalar builds (-DPDOS_SIMD=OFF, or hosts without AVX2/NEON) still
// measure and report the pair, and print a skip line instead of gating:
// without lane hardware the scalar kernels cannot owe a vector win.
//
// The floors are deliberately far below the naive 4-lane ideal, because
// the ratios are Amdahl-bound, not kernel-bound (DESIGN.md §16): every
// lane-step pays a ~50-60 ns scalar driver (libm exp, RED bookkeeping,
// step clipping) that vectorization cannot touch — half the step at the
// γ-grid's 15 classes — and the refbench denominator is itself SSE2
// auto-vectorized with branchy fast paths, so the marginal per-class
// ratio saturates near 1.6x at 64+ classes. Measured on the 1-core AVX2
// host: grid 1.20-1.31x, binned 1.38-1.58x across runs; the floors sit
// under the worst observed run with margin for host noise.
constexpr double kFluidBatchSpeedupFloor = 1.10;
constexpr double kFluidBinnedSpeedupFloor = 1.25;
constexpr int kFluidBatchWidth = 8;

// The multi-process campaign contract (DESIGN.md §15): a cold
// kCampaignWorkers-process campaign over a shared CampaignStore must beat
// the same campaign run by one process by at least this much — but only
// where the hardware can deliver it. Hosts with fewer
// than kCampaignFloorMinThreads hardware threads skip the floor out loud;
// the speedup still rides along in the artifact. The resume half of the
// contract (all-hit, byte-identical merged CSV) is hardware-independent
// and gates on every host.
constexpr double kCampaignSpeedupFloor = 2.5;
constexpr unsigned kCampaignFloorMinThreads = 4;
constexpr int kCampaignWorkers = 4;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads (mirror bench/micro_engine.cpp) ---------------------------

long long g_sink = 0;

void workload_schedule_run(int n) {
  Scheduler sched;
  for (int i = 0; i < n; ++i) {
    sched.schedule(static_cast<Time>((i * 2654435761u) % 1000),
                   [] { ++g_sink; });
  }
  sched.run();
}

void workload_cancel_heavy() {
  Scheduler sched;
  EventId pending = kInvalidEventId;
  for (int i = 0; i < 10000; ++i) {
    if (pending != kInvalidEventId) sched.cancel(pending);
    pending = sched.schedule(1000.0, [] {});
    sched.schedule(0.001 * i, [] {});
  }
  sched.run();
}

void workload_timer_restart() {
  Scheduler sched;
  Timer timer(sched, [] { ++g_sink; });
  timer.schedule_at(1.0);
  for (int i = 0; i < 10000; ++i) timer.schedule_at(1.0 + 0.001 * i);
  sched.run();
}

// --- data-path workloads (mirror bench/micro_datapath.cpp) ---------------

Packet bench_packet() {
  Packet pkt;
  pkt.type = PacketType::kAttack;
  pkt.size_bytes = 1040;
  return pkt;
}

void workload_ring_churn() {
  static PacketRing ring;
  ring.reserve(256);
  const Packet pkt = bench_packet();
  for (int lap = 0; lap < 8; ++lap) {
    for (int i = 0; i < 128; ++i) ring.push_back(pkt);
    while (!ring.empty()) g_sink += ring.pop_front().size_bytes;
  }
}

struct BenchSink : PacketHandler {
  long long received = 0;
  void handle(Packet) override { ++received; }
};

/// 1000 packets into a 10 Mbps / 5 ms link at twice its service rate, so
/// the queue builds and drains; optionally with production taps attached.
void workload_link_pipeline(bool tapped) {
  Simulator sim(1);
  sim.reserve_events(64);
  StatsHub hub(ms(10), sec(2));
  auto* sink = sim.make<BenchSink>();
  auto* link = sim.make<Link>(sim, "l", mbps(10), ms(5),
                              std::make_unique<DropTailQueue>(64), sink);
  if (tapped) {
    link->add_arrival_tap([&sim, &hub](const Packet& pkt) {
      hub.on_arrival(sim.now(), pkt);
    });
    link->add_departure_tap([](const Packet&) { ++g_sink; });
  }
  struct Source {
    Simulator& sim;
    Link& link;
    int remaining;
    void operator()() const {
      link.handle(bench_packet());
      if (remaining > 1) {
        sim.schedule(transmission_time(1040, mbps(20)),
                     Source{sim, link, remaining - 1});
      }
    }
  };
  sim.schedule(0.0, Source{sim, *link, 1000});
  sim.run();
  g_sink += sink->received;
}

/// Best-of-`reps` items/sec for `fn`, which processes `items` per call.
/// Each sample batches calls until it spans >= 10 ms so the clock
/// resolution never dominates.
template <typename F>
double measure_items_per_sec(F&& fn, long long items, int reps) {
  fn();  // warm caches, page in slabs
  const auto probe = Clock::now();
  fn();
  const double once = std::max(seconds_since(probe), 1e-9);
  const int batch = std::max(1, static_cast<int>(0.01 / once));
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (int b = 0; b < batch; ++b) fn();
    const double rate =
        static_cast<double>(items) * batch / seconds_since(start);
    best = std::max(best, rate);
  }
  return best;
}

// --- scenario setup workloads (mirror bench/micro_setup.cpp) -------------

/// A horizon so short that almost no simulation events execute: the cost
/// measured is topology construction (+ teardown on reset), not the run.
RunControl setup_only_control() {
  RunControl control;
  control.warmup = 0.0;
  control.measure = ms(1);
  return control;
}

void workload_setup_fresh() {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  ScenarioWorkspace ws;
  g_sink += static_cast<long long>(
      ws.run(config, std::nullopt, setup_only_control()).events_executed);
}

void workload_setup_warm(ScenarioWorkspace& ws) {
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  g_sink += static_cast<long long>(
      ws.run(config, std::nullopt, setup_only_control()).events_executed);
}

// --- LargeScale workloads (mirror bench/micro_largescale.cpp) ------------

/// Pulse train scaled to the bottleneck per the paper's Eq. (1)-(2): the
/// pulse magnitude must exceed the bottleneck rate for the queue to fill
/// within T_extent, so R_attack tracks R_bottle (same 25/15 ratio as the
/// ns-2 reference scenario) with γ = 0.3 fixing the period.
PulseTrain large_scale_train(BitRate bottleneck) {
  return PulseTrain::from_gamma(ms(50), bottleneck * (25.0 / 15.0), 0.3,
                                bottleneck);
}

/// Short horizon: long enough that steady-state forwarding dominates the
/// build cost, short enough to keep the 1 Gbps A/B pair inside a CI smoke.
RunControl large_scale_control() {
  RunControl control;
  control.warmup = sec(0.5);
  control.measure = sec(1.0);
  return control;
}

struct ScaleSample {
  std::uint64_t events = 0;
  double wall = 0.0;
};

ScaleSample run_large_scale(ScenarioWorkspace& ws, int flows, BitRate rate,
                            bool fast) {
  ScenarioConfig config = ScenarioConfig::large_scale(flows, rate);
  config.fast_path = fast;
  const RunControl control = large_scale_control();
  const auto start = Clock::now();
  const RunResult result = ws.run(config, large_scale_train(rate), control);
  return ScaleSample{result.events_executed, seconds_since(start)};
}

struct ScaleMeasurement {
  std::uint64_t fast_events = 0;  // deterministic per config/seed
  std::uint64_t full_events = 0;
  double fast_wall = 0.0;  // best-of-reps
  double full_wall = 0.0;
};

/// Interleaved A/B: alternate fast-path and full-path samples (each in its
/// own warm workspace) so clock drift and thermal state hit both arms the
/// same way, then take best-of per arm.
ScaleMeasurement measure_large_scale(int flows, BitRate rate, int reps) {
  ScenarioWorkspace fast_ws;
  ScenarioWorkspace full_ws;
  ScaleMeasurement m;
  m.fast_events = run_large_scale(fast_ws, flows, rate, true).events;   // warm
  m.full_events = run_large_scale(full_ws, flows, rate, false).events;  // warm
  m.fast_wall = m.full_wall = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    m.fast_wall =
        std::min(m.fast_wall, run_large_scale(fast_ws, flows, rate, true).wall);
    m.full_wall = std::min(m.full_wall,
                           run_large_scale(full_ws, flows, rate, false).wall);
  }
  return m;
}

// --- fluid surrogate vs packet point (mirror bench/micro_fluid.cpp) ------

/// One fig. 6 quick-mode grid point (15-flow ns-2 dumbbell, T_extent 50 ms,
/// R_attack 25 Mbps, γ = 0.5, 5 s warmup + 15 s measurement) on the given
/// backend; returns the wall time of the run.
double run_fig06_point(ScenarioWorkspace& ws, Backend backend) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  config.backend = backend;
  const PulseTrain train =
      PulseTrain::from_gamma(ms(50), mbps(25), 0.5, config.bottleneck);
  RunControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  const auto start = Clock::now();
  const RunResult result = ws.run(config, train, control);
  g_sink += static_cast<long long>(result.events_executed);
  return seconds_since(start);
}

// --- vectorized fluid kernels vs frozen scalar reference (§16) -----------

/// The fig. 6 quick point as a bare fluid system (no experiment-layer
/// wrapper): the shared topology every γ lane of the batched grid rides.
fluid::FluidConfig fig06_fluid_config() {
  return make_fluid_config(ScenarioConfig::ns2_dumbbell(15));
}

fluid::FluidAttack fig06_fluid_attack(double gamma) {
  const PulseTrain train = PulseTrain::from_gamma(
      ms(50), mbps(25), gamma, ScenarioConfig::ns2_dumbbell(15).bottleneck);
  fluid::FluidAttack attack;
  attack.textent = train.textent;
  attack.rattack = train.rattack;
  attack.tspace = train.tspace;
  return attack;
}

fluid::FluidControl fig06_fluid_control() {
  fluid::FluidControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  return control;
}

/// The million-flow population binned to 64 classes, exactly as
/// bench/micro_fluid.cpp's BM_FluidSolveMillionFlowsBinned builds it: the
/// class-vectorization showcase (64 padded SoA classes, no batch lanes).
fluid::FluidConfig binned_million_flow_config() {
  fluid::FluidConfig config = fig06_fluid_config();
  constexpr int kFlows = 1000000;
  std::vector<fluid::FluidClass> classes;
  classes.reserve(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    const double frac = static_cast<double>(i) / (kFlows - 1);
    classes.push_back(fluid::FluidClass{ms(20) + frac * ms(440), 1.0});
  }
  config.classes = fluid::bin_classes(std::move(classes), 64);
  config.bottleneck = gbps(10);
  config.red = RedParams::paper_testbed(4000);
  return config;
}

fluid::FluidAttack binned_million_flow_attack(BitRate bottleneck) {
  const PulseTrain train = PulseTrain::from_gamma(
      ms(50), bottleneck * (25.0 / 15.0), 0.5, bottleneck);
  fluid::FluidAttack attack;
  attack.textent = train.textent;
  attack.rattack = train.rattack;
  attack.tspace = train.tspace;
  return attack;
}

struct FluidSimdMeasurement {
  double batch_grid_wall = 0.0;  // solve_batch, W-lane γ-grid, SIMD kernels
  double ref_grid_wall = 0.0;    // refbench::solve point-at-a-time, same grid
  double vec_binned_wall = 0.0;  // fluid::solve, binned 1e6-flow config
  double ref_binned_wall = 0.0;  // refbench::solve, same binned config
};

/// Interleaved best-of-reps A/B of the vectorized fluid paths against the
/// frozen scalar reference solver (fluid/refbench.hpp, compiled without
/// SIMD arch flags): the W = kFluidBatchWidth γ-grid through solve_batch
/// vs the same grid point-at-a-time, and the binned 1e6-flow single solve
/// vs its scalar twin. Both arms run warm, like the other same-machine
/// A/Bs in this tool. The reference solver agrees with the vectorized one
/// only to reduction-reassociation error (~ulps), so outputs are
/// sanity-checked loosely, not bit-compared.
FluidSimdMeasurement measure_fluid_simd(int reps) {
  const fluid::FluidConfig config = fig06_fluid_config();
  const fluid::FluidControl control = fig06_fluid_control();
  std::vector<fluid::BatchLane> lanes;
  for (int gi = 1; gi <= kFluidBatchWidth; ++gi) {
    lanes.push_back(fluid::BatchLane{fig06_fluid_attack(0.1 * gi)});
  }
  const fluid::FluidConfig binned = binned_million_flow_config();
  const fluid::FluidAttack binned_attack =
      binned_million_flow_attack(binned.bottleneck);

  const auto batch_grid_pass = [&]() -> double {
    const std::vector<fluid::FluidResult> results =
        fluid::solve_batch(config, lanes, control);
    g_sink += static_cast<long long>(results.front().steps);
    return results.back().goodput_bytes;
  };
  const auto ref_grid_pass = [&]() -> double {
    double last = 0.0;
    for (const fluid::BatchLane& lane : lanes) {
      const fluid::FluidResult result =
          fluid::refbench::solve(config, lane.attack, control);
      g_sink += static_cast<long long>(result.steps);
      last = result.goodput_bytes;
    }
    return last;
  };
  const auto vec_binned_pass = [&]() -> double {
    const fluid::FluidResult result =
        fluid::solve(binned, binned_attack, control);
    g_sink += static_cast<long long>(result.steps);
    return result.goodput_bytes;
  };
  const auto ref_binned_pass = [&]() -> double {
    const fluid::FluidResult result =
        fluid::refbench::solve(binned, binned_attack, control);
    g_sink += static_cast<long long>(result.steps);
    return result.goodput_bytes;
  };

  // Warm both arms and sanity-check the reference against the vectorized
  // results: same physics, different reduction order — agreement should be
  // far inside 0.1%. A bigger gap means the frozen snapshot drifted.
  const double grid_vec = batch_grid_pass();
  const double grid_ref = ref_grid_pass();
  const double binned_vec = vec_binned_pass();
  const double binned_ref = ref_binned_pass();
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-3 * std::max(std::abs(a), std::abs(b));
  };
  if (!close(grid_vec, grid_ref) || !close(binned_vec, binned_ref)) {
    std::fprintf(stderr,
                 "bench_report: refbench solver diverged from fluid::solve "
                 "(grid %.17g vs %.17g, binned %.17g vs %.17g)\n",
                 grid_vec, grid_ref, binned_vec, binned_ref);
    std::exit(1);
  }

  FluidSimdMeasurement m;
  m.batch_grid_wall = std::numeric_limits<double>::infinity();
  m.ref_grid_wall = std::numeric_limits<double>::infinity();
  m.vec_binned_wall = std::numeric_limits<double>::infinity();
  m.ref_binned_wall = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    batch_grid_pass();
    m.batch_grid_wall = std::min(m.batch_grid_wall, seconds_since(start));
    start = Clock::now();
    ref_grid_pass();
    m.ref_grid_wall = std::min(m.ref_grid_wall, seconds_since(start));
    start = Clock::now();
    vec_binned_pass();
    m.vec_binned_wall = std::min(m.vec_binned_wall, seconds_since(start));
    start = Clock::now();
    ref_binned_pass();
    m.ref_binned_wall = std::min(m.ref_binned_wall, seconds_since(start));
  }
  return m;
}

// --- multi-process campaign A/B (mirror tests/sweep, DESIGN.md §15) ------

/// The campaign target grid: one fast-backend fig. 6 slice with enough
/// independent tasks (32 points + 4 baselines) that four workers can
/// partition it meaningfully, and per-task horizons long enough that the
/// simulation dwarfs fork + store overhead.
sweep::SweepSpec campaign_bench_spec() {
  sweep::SweepSpec spec;
  spec.backend = Backend::kFast;
  spec.flow_counts = {15};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  spec.replicates = 4;
  spec.control.warmup = sec(5);
  spec.control.measure = sec(15);
  return spec;
}

struct CampaignMeasurement {
  std::size_t unique_tasks = 0;
  double single_wall = 0.0;   // cold, 1 worker, fresh store
  double multi_wall = 0.0;    // cold, kCampaignWorkers workers, fresh store
  double resume_wall = 0.0;   // identical campaign over the warm store
  std::size_t single_simulated = 0;
  std::size_t multi_simulated = 0;
  std::size_t resume_simulated = 0;  // must be 0: all-hit resume
  bool csv_identical = false;  // single == multi == resume, byte for byte
  bool ok = true;              // no point failures, no worker crashes
};

/// Three campaigns over the same spec: cold single-process, cold
/// K-process (fresh store each), then a resume of the K-process store.
/// Single-shot rather than best-of — a cold campaign consumed its own
/// precondition, and the resume arm is a correctness check first.
CampaignMeasurement measure_campaign(const std::string& scratch_prefix) {
  CampaignMeasurement m;
  sweep::CampaignSpec spec;
  spec.spec = campaign_bench_spec();
  spec.name = "bench";
  const std::string single_dir = scratch_prefix + ".single.store.tmp";
  const std::string multi_dir = scratch_prefix + ".multi.store.tmp";
  std::filesystem::remove_all(single_dir);
  std::filesystem::remove_all(multi_dir);

  sweep::CampaignOptions options;
  options.threads = 1;  // per worker: process count is the variable
  options.claim_poll_seconds = 0.01;

  options.store_dir = single_dir;
  options.workers = 1;
  const sweep::CampaignResult single = sweep::run_campaign({spec}, options);
  m.unique_tasks = single.unique_tasks;
  m.single_wall = single.wall_seconds;
  m.single_simulated = single.worker_simulated + single.final_simulated;
  m.ok = m.ok && single.ok();

  options.store_dir = multi_dir;
  options.workers = kCampaignWorkers;
  const sweep::CampaignResult multi = sweep::run_campaign({spec}, options);
  m.multi_wall = multi.wall_seconds;
  m.multi_simulated = multi.worker_simulated + multi.final_simulated;
  m.ok = m.ok && multi.ok();

  const sweep::CampaignResult resume = sweep::run_campaign({spec}, options);
  m.resume_wall = resume.wall_seconds;
  m.resume_simulated = resume.worker_simulated + resume.final_simulated;
  m.ok = m.ok && resume.ok();

  std::ostringstream a, b, c;
  single.specs[0].result.write_csv(a);
  multi.specs[0].result.write_csv(b);
  resume.specs[0].result.write_csv(c);
  m.csv_identical = a.str() == b.str() && b.str() == c.str();

  std::filesystem::remove_all(single_dir);
  std::filesystem::remove_all(multi_dir);
  return m;
}

// --- fluid-tier attack-gain surface (γ × T_extent heatmap) ---------------

/// Sweep the pulse shape over a γ × T_extent grid on the fluid surrogate
/// (15-flow ns-2 dumbbell, R_attack 25 Mbps, κ = 1) and write the measured
/// degradation Γ and gain G per cell as long-format CSV — the raw material
/// for the heatmaps the optimizer's search surface is read from. The grid
/// is evaluated through the lane-batched tier (DESIGN.md §16): cells queue
/// up in kFluidBatchWidth-lane `fluid_gain_batch` chunks against one
/// shared fluid baseline, bit-identical to the old cell-at-a-time loop and
/// several times cheaper — the whole surface rides in a CI smoke. The
/// grid's points/sec is printed so the smoke log carries the surface
/// throughput next to the gated A/B ratios.
void emit_fluid_surface(const std::string& path) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(15);
  config.backend = Backend::kFluid;
  RunControl control;
  control.warmup = sec(5);
  control.measure = sec(15);
  const BitRate baseline = measure_baseline(config, control);

  struct Cell {
    double textent_ms;
    double gamma;
  };
  std::vector<Cell> cells;
  std::vector<PulseTrain> trains;
  const double textents_ms[] = {20, 35, 50, 65, 80, 100, 125, 150, 200};
  for (double textent_ms : textents_ms) {
    for (int gi = 1; gi <= 9; ++gi) {
      const double gamma = 0.1 * gi;
      cells.push_back(Cell{textent_ms, gamma});
      trains.push_back(PulseTrain::from_gamma(ms(textent_ms), mbps(25), gamma,
                                              config.bottleneck));
    }
  }

  std::vector<GainMeasurement> points;
  points.reserve(trains.size());
  const auto start = Clock::now();
  for (std::size_t at = 0; at < trains.size(); at += kFluidBatchWidth) {
    const std::size_t width =
        std::min<std::size_t>(kFluidBatchWidth, trains.size() - at);
    const std::vector<PulseTrain> chunk(trains.begin() + at,
                                        trains.begin() + at + width);
    const std::vector<GainMeasurement> gains =
        fluid_gain_batch(config, chunk, 1.0, control, baseline);
    points.insert(points.end(), gains.begin(), gains.end());
  }
  const double wall = seconds_since(start);
  std::printf("fluid_surface: %zu cells in %.3f s (%.0f points/s, batch "
              "W=%d, %s kernels)\n",
              points.size(), wall, static_cast<double>(points.size()) / wall,
              kFluidBatchWidth, fluid::simd_backend());

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "textent_ms,gamma,degradation,gain\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    char row[128];
    std::snprintf(row, sizeof(row), "%g,%g,%.6g,%.6g\n", cells[i].textent_ms,
                  cells[i].gamma, points[i].degradation, points[i].gain);
    out << row;
  }
}

// --- fig. 6 quick-mode sweep (single-threaded, fixed spec) ---------------

sweep::SweepSpec fig06_quick_spec() {
  sweep::SweepSpec spec;
  spec.flow_counts = {15, 25, 35, 45};
  spec.textents = {ms(50), ms(75), ms(100)};
  spec.rattacks = {mbps(25)};
  spec.gamma_points = 7;
  spec.control.warmup = sec(5);
  spec.control.measure = sec(15);
  return spec;
}

double fig06_quick_sweep_seconds(std::size_t* points_out,
                                 const std::string& cache_path = {}) {
  sweep::SweepOptions options;
  options.threads = 1;
  options.cache_path = cache_path;
  const auto start = Clock::now();
  const sweep::SweepResult result =
      sweep::run_sweep(fig06_quick_spec(), options);
  const double wall = seconds_since(start);
  if (points_out != nullptr) *points_out = result.points.size();
  if (result.failures() > 0) {
    std::fprintf(stderr, "bench_report: %zu sweep points failed\n",
                 result.failures());
    std::exit(1);
  }
  return wall;
}

// --- flat JSON in/out ----------------------------------------------------

/// Read `"key": <number>` from a flat JSON file. Returns NaN if absent.
double scan_json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return std::nan("");
  const std::size_t colon = text.find(':', at + needle.size());
  if (colon == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

struct Entry {
  std::string key;
  double value;
};

void write_json(const std::string& path, const char* schema,
                const std::vector<Entry>& entries) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"schema\": \"" << schema << "\"";
  for (const Entry& e : entries) {
    out << ",\n  \"" << e.key << "\": ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", e.value);
    out << buf;
  }
  out << "\n}\n";
}

struct Micro {
  const char* key;
  double items;
  double rate = 0.0;
};

/// Compare fresh `micros` against the flat-JSON baseline at `path`:
/// baseline and speedup entries are appended to `entries`, pre_overhaul_*
/// history keys are carried through, and the number of >30% regressions is
/// returned (0 when `check` is false).
int apply_baseline(const std::string& path, const std::vector<Micro>& micros,
                   bool check, std::vector<Entry>& entries) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_report: cannot read baseline %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  int regressions = 0;
  for (const Micro& m : micros) {
    const double base = scan_json_number(text, m.key);
    if (std::isnan(base) || base <= 0.0) continue;
    const double ratio = m.rate / base;
    entries.push_back(Entry{std::string("baseline_") + m.key, base});
    std::string stem = m.key;
    for (const char* suffix :
         {"_items_per_sec", "_points_per_sec", "_events_per_sec"}) {
      const std::size_t n = std::strlen(suffix);
      if (stem.size() > n && stem.compare(stem.size() - n, n, suffix) == 0) {
        stem.erase(stem.size() - n);
        break;
      }
    }
    entries.push_back(Entry{"speedup_vs_baseline_" + stem, ratio});
    std::printf("%-36s %.2fx vs baseline\n", m.key, ratio);
    if (check && ratio < 1.0 - kRegressionTolerance) {
      std::fprintf(stderr,
                   "REGRESSION: %s is %.0f%% of baseline (gate: >%.0f%%)\n",
                   m.key, 100.0 * ratio, 100.0 * (1.0 - kRegressionTolerance));
      ++regressions;
    }
  }
  // Pre-overhaul history rides along so one artifact holds the whole
  // before/after story.
  for (const Micro& m : micros) {
    const std::string pre_key = std::string("pre_overhaul_") + m.key;
    const double pre = scan_json_number(text, pre_key);
    if (!std::isnan(pre)) entries.push_back(Entry{pre_key, pre});
  }
  const double pre_sweep =
      scan_json_number(text, "pre_overhaul_fig06_quick_sweep_wall_seconds");
  if (!std::isnan(pre_sweep)) {
    entries.push_back(
        Entry{"pre_overhaul_fig06_quick_sweep_wall_seconds", pre_sweep});
  }
  return regressions;
}

}  // namespace
}  // namespace pdos

int main(int argc, char** argv) {
  using namespace pdos;

  std::string out_path = "BENCH_engine.json";
  std::string baseline_path;
  std::string datapath_out_path = "BENCH_datapath.json";
  std::string datapath_baseline_path;
  std::string sweep_out_path = "BENCH_sweep.json";
  std::string sweep_baseline_path;
  std::string scale_out_path = "BENCH_scale.json";
  std::string scale_baseline_path;
  std::string fluid_out_path = "BENCH_fluid.json";
  std::string fluid_baseline_path;
  std::string campaign_out_path = "BENCH_campaign.json";
  std::string campaign_baseline_path;
  std::string fluid_surface_path;
  bool check = false;
  bool skip_sweep = false;
  int reps = 7;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--datapath-out") == 0 && i + 1 < argc) {
      datapath_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--datapath-baseline") == 0 &&
               i + 1 < argc) {
      datapath_baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sweep-out") == 0 && i + 1 < argc) {
      sweep_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sweep-baseline") == 0 && i + 1 < argc) {
      sweep_baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scale-out") == 0 && i + 1 < argc) {
      scale_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scale-baseline") == 0 && i + 1 < argc) {
      scale_baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fluid-out") == 0 && i + 1 < argc) {
      fluid_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fluid-baseline") == 0 && i + 1 < argc) {
      fluid_baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--campaign-out") == 0 && i + 1 < argc) {
      campaign_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--campaign-baseline") == 0 &&
               i + 1 < argc) {
      campaign_baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fluid-surface-out") == 0 &&
               i + 1 < argc) {
      fluid_surface_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--skip-sweep") == 0) {
      skip_sweep = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_report [--out FILE] [--baseline FILE] "
                   "[--datapath-out FILE] [--datapath-baseline FILE] "
                   "[--sweep-out FILE] [--sweep-baseline FILE] "
                   "[--scale-out FILE] [--scale-baseline FILE] "
                   "[--fluid-out FILE] [--fluid-baseline FILE] "
                   "[--campaign-out FILE] [--campaign-baseline FILE] "
                   "[--fluid-surface-out FILE] "
                   "[--check] [--reps N] [--skip-sweep]\n");
      return 2;
    }
  }
  if (check && baseline_path.empty() && datapath_baseline_path.empty() &&
      sweep_baseline_path.empty() && scale_baseline_path.empty() &&
      fluid_baseline_path.empty() && campaign_baseline_path.empty()) {
    std::fprintf(stderr, "bench_report: --check requires a baseline\n");
    return 2;
  }

  std::vector<Micro> micros = {
      {"schedule_run_1k_items_per_sec", 1000},
      {"schedule_run_100k_items_per_sec", 100000},
      {"cancel_heavy_items_per_sec", 10000},
      {"timer_restart_items_per_sec", 10000},
  };
  micros[0].rate = measure_items_per_sec([] { workload_schedule_run(1000); },
                                         1000, reps);
  micros[1].rate = measure_items_per_sec(
      [] { workload_schedule_run(100000); }, 100000, reps);
  micros[2].rate =
      measure_items_per_sec([] { workload_cancel_heavy(); }, 10000, reps);
  micros[3].rate =
      measure_items_per_sec([] { workload_timer_restart(); }, 10000, reps);

  std::vector<Micro> datapath_micros = {
      {"ring_churn_items_per_sec", 8 * 256},
      {"link_untapped_items_per_sec", 1000},
      {"link_tapped_items_per_sec", 1000},
  };
  datapath_micros[0].rate =
      measure_items_per_sec([] { workload_ring_churn(); }, 8 * 256, reps);
  datapath_micros[1].rate = measure_items_per_sec(
      [] { workload_link_pipeline(false); }, 1000, reps);
  datapath_micros[2].rate = measure_items_per_sec(
      [] { workload_link_pipeline(true); }, 1000, reps);

  std::vector<Micro> sweep_micros = {
      {"setup_fresh_points_per_sec", 1},
      {"setup_warm_points_per_sec", 1},
  };
  sweep_micros[0].rate =
      measure_items_per_sec([] { workload_setup_fresh(); }, 1, reps);
  {
    ScenarioWorkspace warm_ws;
    workload_setup_warm(warm_ws);  // cold build outside the clock
    sweep_micros[1].rate = measure_items_per_sec(
        [&warm_ws] { workload_setup_warm(warm_ws); }, 1, reps);
  }

  // LargeScale family: interleaved fast/full A/B at both scale points. The
  // gated metric is the fast path's scheduler-event throughput (events per
  // wall second); the event counts, events-per-simulated-second density,
  // and the fast-vs-full speedup ride along as information.
  const ScaleMeasurement scale_155 =
      measure_large_scale(250, mbps(155), std::max(2, reps / 2));
  const ScaleMeasurement scale_1g =
      measure_large_scale(1000, gbps(1), std::max(2, reps / 2));

  std::vector<Micro> scale_micros = {
      {"largescale_250f_155m_events_per_sec",
       static_cast<double>(scale_155.fast_events)},
      {"largescale_1000f_1g_events_per_sec",
       static_cast<double>(scale_1g.fast_events)},
  };
  scale_micros[0].rate =
      static_cast<double>(scale_155.fast_events) / scale_155.fast_wall;
  scale_micros[1].rate =
      static_cast<double>(scale_1g.fast_events) / scale_1g.fast_wall;

  // Fluid family: the same fig. 6 quick grid point on the fluid surrogate
  // and the full packet path (each in its own warm workspace), plus the
  // vectorized-vs-reference A/B pair (DESIGN.md §16). The gated metrics
  // are the surrogate's point throughput, the batched W-lane γ-grid
  // throughput, and the binned 1e6-flow solve throughput; the packet and
  // reference walls ride along so the artifact carries every A/B pair.
  // Under --check the fluid-vs-packet speedup must clear
  // kFluidSpeedupFloor, and (on SIMD builds) the batch and binned speedups
  // must clear their §16 floors.
  std::vector<Micro> fluid_micros = {
      {"fluid_point_points_per_sec", 1},
      {"fluid_batch_w8_points_per_sec", kFluidBatchWidth},
      {"fluid_binned1e6_solves_per_sec", 1},
  };
  ScenarioWorkspace fluid_ws;
  fluid_micros[0].rate = measure_items_per_sec(
      [&fluid_ws] { run_fig06_point(fluid_ws, Backend::kFluid); }, 1, reps);
  const double fluid_point_wall = 1.0 / fluid_micros[0].rate;
  double packet_point_wall = std::numeric_limits<double>::infinity();
  {
    ScenarioWorkspace packet_ws;
    run_fig06_point(packet_ws, Backend::kFull);  // warm
    for (int r = 0; r < std::max(2, reps / 2); ++r) {
      packet_point_wall = std::min(packet_point_wall,
                                   run_fig06_point(packet_ws, Backend::kFull));
    }
  }
  const double fluid_speedup = packet_point_wall / fluid_point_wall;
  const FluidSimdMeasurement fluid_simd = measure_fluid_simd(reps);
  fluid_micros[1].rate =
      static_cast<double>(kFluidBatchWidth) / fluid_simd.batch_grid_wall;
  fluid_micros[2].rate = 1.0 / fluid_simd.vec_binned_wall;
  const double fluid_batch_speedup =
      fluid_simd.batch_grid_wall > 0.0
          ? fluid_simd.ref_grid_wall / fluid_simd.batch_grid_wall
          : 0.0;
  const double fluid_binned_speedup =
      fluid_simd.vec_binned_wall > 0.0
          ? fluid_simd.ref_binned_wall / fluid_simd.vec_binned_wall
          : 0.0;

  // Campaign family: cold 1-worker vs cold kCampaignWorkers-worker campaign
  // over a shared CampaignStore, plus an all-hit resume. The gated metric
  // is the multi-worker cold campaign's task throughput; the walls, the
  // speedup, and the resume pair ride along. run_campaign forks, which is
  // safe here: no measurement above leaves a thread pool alive.
  const CampaignMeasurement campaign = measure_campaign(campaign_out_path);
  const double campaign_speedup =
      campaign.multi_wall > 0.0 ? campaign.single_wall / campaign.multi_wall
                                : 0.0;
  std::vector<Micro> campaign_micros = {
      {"campaign_multi_tasks_per_sec",
       static_cast<double>(campaign.unique_tasks)},
  };
  campaign_micros[0].rate =
      static_cast<double>(campaign.unique_tasks) / campaign.multi_wall;

  std::vector<Entry> entries;
  for (const Micro& m : micros) {
    std::printf("%-36s %12.0f items/s\n", m.key, m.rate);
    entries.push_back(Entry{m.key, m.rate});
  }
  std::vector<Entry> datapath_entries;
  for (const Micro& m : datapath_micros) {
    std::printf("%-36s %12.0f items/s\n", m.key, m.rate);
    datapath_entries.push_back(Entry{m.key, m.rate});
  }
  std::vector<Entry> sweep_entries;
  for (const Micro& m : sweep_micros) {
    std::printf("%-36s %12.0f items/s\n", m.key, m.rate);
    sweep_entries.push_back(Entry{m.key, m.rate});
  }
  std::vector<Entry> scale_entries;
  for (const Micro& m : scale_micros) {
    std::printf("%-36s %12.0f events/s\n", m.key, m.rate);
    scale_entries.push_back(Entry{m.key, m.rate});
  }
  std::vector<Entry> fluid_entries;
  for (const Micro& m : fluid_micros) {
    std::printf("%-36s %12.0f points/s\n", m.key, m.rate);
    fluid_entries.push_back(Entry{m.key, m.rate});
  }
  std::printf("fluid_point: fluid %.6f s, packet %.3f s, speedup %.0fx "
              "(floor %.0fx)\n",
              fluid_point_wall, packet_point_wall, fluid_speedup,
              kFluidSpeedupFloor);
  fluid_entries.push_back(Entry{"fluid_point_wall_seconds", fluid_point_wall});
  fluid_entries.push_back(
      Entry{"packet_point_wall_seconds", packet_point_wall});
  fluid_entries.push_back(Entry{"fluid_speedup_vs_packet", fluid_speedup});
  fluid_entries.push_back(Entry{"fluid_speedup_floor", kFluidSpeedupFloor});
  std::printf("fluid_simd (%s kernels): batch W=%d grid %.6f s vs scalar-ref "
              "%.6f s, speedup %.2fx (floor %.1fx); binned-1e6 %.6f s vs "
              "%.6f s, speedup %.2fx (floor %.1fx)\n",
              fluid::simd_backend(), kFluidBatchWidth,
              fluid_simd.batch_grid_wall, fluid_simd.ref_grid_wall,
              fluid_batch_speedup, kFluidBatchSpeedupFloor,
              fluid_simd.vec_binned_wall, fluid_simd.ref_binned_wall,
              fluid_binned_speedup, kFluidBinnedSpeedupFloor);
  fluid_entries.push_back(
      Entry{"fluid_batch_grid_wall_seconds", fluid_simd.batch_grid_wall});
  fluid_entries.push_back(
      Entry{"fluid_ref_grid_wall_seconds", fluid_simd.ref_grid_wall});
  fluid_entries.push_back(
      Entry{"fluid_batch_speedup_vs_ref", fluid_batch_speedup});
  fluid_entries.push_back(
      Entry{"fluid_batch_speedup_floor", kFluidBatchSpeedupFloor});
  fluid_entries.push_back(
      Entry{"fluid_binned1e6_wall_seconds", fluid_simd.vec_binned_wall});
  fluid_entries.push_back(
      Entry{"fluid_binned1e6_ref_wall_seconds", fluid_simd.ref_binned_wall});
  fluid_entries.push_back(
      Entry{"fluid_binned_speedup_vs_ref", fluid_binned_speedup});
  fluid_entries.push_back(
      Entry{"fluid_binned_speedup_floor", kFluidBinnedSpeedupFloor});
  std::vector<Entry> campaign_entries;
  for (const Micro& m : campaign_micros) {
    std::printf("%-36s %12.2f tasks/s\n", m.key, m.rate);
    campaign_entries.push_back(Entry{m.key, m.rate});
  }
  std::printf("campaign %zu tasks: 1 worker %.3f s, %d workers %.3f s, "
              "speedup %.2fx (floor %.1fx on >= %u threads); resume %.3f s "
              "(%zu simulated, csv %s)\n",
              campaign.unique_tasks, campaign.single_wall, kCampaignWorkers,
              campaign.multi_wall, campaign_speedup, kCampaignSpeedupFloor,
              kCampaignFloorMinThreads, campaign.resume_wall,
              campaign.resume_simulated,
              campaign.csv_identical ? "identical" : "DIVERGED");
  campaign_entries.push_back(Entry{
      "campaign_unique_tasks", static_cast<double>(campaign.unique_tasks)});
  campaign_entries.push_back(
      Entry{"campaign_workers", static_cast<double>(kCampaignWorkers)});
  campaign_entries.push_back(
      Entry{"campaign_single_wall_seconds", campaign.single_wall});
  campaign_entries.push_back(
      Entry{"campaign_multi_wall_seconds", campaign.multi_wall});
  campaign_entries.push_back(
      Entry{"campaign_resume_wall_seconds", campaign.resume_wall});
  campaign_entries.push_back(Entry{
      "campaign_single_simulated",
      static_cast<double>(campaign.single_simulated)});
  campaign_entries.push_back(Entry{
      "campaign_multi_simulated",
      static_cast<double>(campaign.multi_simulated)});
  campaign_entries.push_back(Entry{
      "campaign_resume_simulated",
      static_cast<double>(campaign.resume_simulated)});
  campaign_entries.push_back(
      Entry{"campaign_resume_csv_identical",
            campaign.csv_identical ? 1.0 : 0.0});
  campaign_entries.push_back(
      Entry{"campaign_speedup_vs_single", campaign_speedup});
  campaign_entries.push_back(
      Entry{"campaign_speedup_floor", kCampaignSpeedupFloor});
  {
    const double sim_horizon = large_scale_control().horizon();
    const struct {
      const char* tag;
      const ScaleMeasurement& m;
    } points[] = {{"largescale_250f_155m", scale_155},
                  {"largescale_1000f_1g", scale_1g}};
    for (const auto& p : points) {
      const double speedup = p.m.fast_wall > 0.0 && p.m.full_wall > 0.0
                                 ? p.m.full_wall / p.m.fast_wall
                                 : 0.0;
      std::printf("%s: fast %.3f s (%llu events), full %.3f s (%llu events), "
                  "speedup %.2fx\n",
                  p.tag, p.m.fast_wall,
                  static_cast<unsigned long long>(p.m.fast_events),
                  p.m.full_wall,
                  static_cast<unsigned long long>(p.m.full_events), speedup);
      const std::string tag = p.tag;
      scale_entries.push_back(
          Entry{tag + "_events", static_cast<double>(p.m.fast_events)});
      scale_entries.push_back(
          Entry{tag + "_events_per_sim_sec",
                static_cast<double>(p.m.fast_events) / sim_horizon});
      scale_entries.push_back(
          Entry{tag + "_fastpath_wall_seconds", p.m.fast_wall});
      scale_entries.push_back(
          Entry{tag + "_fullpath_wall_seconds", p.m.full_wall});
      scale_entries.push_back(
          Entry{tag + "_fullpath_events",
                static_cast<double>(p.m.full_events)});
      scale_entries.push_back(Entry{tag + "_fastpath_speedup", speedup});
    }
  }

  if (!skip_sweep) {
    // Cold sweep (populates a throwaway cache), then an all-hit resume of
    // the identical campaign. The wall-clock pair is informational — too
    // machine-dependent to gate — but rides in BENCH_sweep.json so every
    // report carries the resume story.
    const std::string tmp_cache = sweep_out_path + ".points.cache.tmp";
    std::filesystem::remove(tmp_cache);
    std::size_t points = 0;
    const double cold = fig06_quick_sweep_seconds(&points, tmp_cache);
    const double resume = fig06_quick_sweep_seconds(nullptr, tmp_cache);
    std::filesystem::remove(tmp_cache);
    std::printf("%-36s %12.2f s (%zu points, 1 thread)\n",
                "fig06_quick_cold_wall_seconds", cold, points);
    std::printf("%-36s %12.4f s (all cache hits)\n",
                "fig06_quick_resume_wall_seconds", resume);
    entries.push_back(Entry{"fig06_quick_sweep_wall_seconds", cold});
    entries.push_back(
        Entry{"fig06_quick_sweep_points", static_cast<double>(points)});
    sweep_entries.push_back(Entry{"fig06_quick_cold_wall_seconds", cold});
    sweep_entries.push_back(
        Entry{"fig06_quick_resume_wall_seconds", resume});
    sweep_entries.push_back(
        Entry{"fig06_quick_resume_speedup", resume > 0.0 ? cold / resume : 0.0});
  }

  int regressions = 0;
  if (!baseline_path.empty()) {
    regressions += apply_baseline(baseline_path, micros, check, entries);
  }
  if (!datapath_baseline_path.empty()) {
    regressions += apply_baseline(datapath_baseline_path, datapath_micros,
                                  check, datapath_entries);
  }
  if (!sweep_baseline_path.empty()) {
    regressions += apply_baseline(sweep_baseline_path, sweep_micros, check,
                                  sweep_entries);
  }
  if (!scale_baseline_path.empty()) {
    regressions += apply_baseline(scale_baseline_path, scale_micros, check,
                                  scale_entries);
  }
  if (!fluid_baseline_path.empty()) {
    regressions += apply_baseline(fluid_baseline_path, fluid_micros, check,
                                  fluid_entries);
  }
  if (!campaign_baseline_path.empty()) {
    regressions += apply_baseline(campaign_baseline_path, campaign_micros,
                                  check, campaign_entries);
  }
  if (check) {
    // The campaign contract (DESIGN.md §15). The speedup half is a
    // same-machine ratio, gated directly, skipped out loud on hosts that
    // cannot run 4 workers in parallel. The resume half —
    // all-hit, byte-identical merged CSV, no failures — is pure protocol
    // correctness and gates everywhere.
    const unsigned threads = std::thread::hardware_concurrency();
    if (threads < kCampaignFloorMinThreads) {
      std::printf(
          "campaign speedup floor skipped: %u hardware thread(s) < %u\n",
          threads, kCampaignFloorMinThreads);
    } else if (campaign_speedup < kCampaignSpeedupFloor) {
      std::fprintf(stderr,
                   "REGRESSION: %d-worker cold campaign is only %.2fx faster "
                   "than 1 worker (floor: %.1fx on %u threads)\n",
                   kCampaignWorkers, campaign_speedup, kCampaignSpeedupFloor,
                   threads);
      ++regressions;
    }
    if (!campaign.ok || campaign.resume_simulated != 0 ||
        !campaign.csv_identical) {
      std::fprintf(stderr,
                   "REGRESSION: campaign resume contract broken (ok=%d, "
                   "resume simulated %zu, csv %s)\n",
                   campaign.ok ? 1 : 0, campaign.resume_simulated,
                   campaign.csv_identical ? "identical" : "diverged");
      ++regressions;
    }
  }
  if (check && fluid_speedup < kFluidSpeedupFloor) {
    std::fprintf(stderr,
                 "REGRESSION: fluid point is only %.1fx faster than the "
                 "packet point (floor: %.0fx)\n",
                 fluid_speedup, kFluidSpeedupFloor);
    ++regressions;
  }
  if (check) {
    // The vectorization floors (DESIGN.md §16) are in-run ratios against
    // the frozen scalar reference solver, so they gate directly — but only
    // where the fluid kernels actually compiled against lane hardware.
    // PDOS_SIMD=OFF builds (the CI scalar-determinism job) and hosts
    // without AVX2/NEON skip out loud: scalar kernels differ from the
    // reference only by loop shape, not by width.
    if (std::string(fluid::simd_backend()) == "scalar") {
      std::printf(
          "fluid SIMD speedup floors skipped: scalar kernels "
          "(PDOS_SIMD=OFF or no AVX2/NEON)\n");
    } else {
      if (fluid_batch_speedup < kFluidBatchSpeedupFloor) {
        std::fprintf(stderr,
                     "REGRESSION: batched W=%d fluid grid is only %.2fx "
                     "faster than the scalar reference (floor: %.1fx)\n",
                     kFluidBatchWidth, fluid_batch_speedup,
                     kFluidBatchSpeedupFloor);
        ++regressions;
      }
      if (fluid_binned_speedup < kFluidBinnedSpeedupFloor) {
        std::fprintf(stderr,
                     "REGRESSION: binned 1e6-flow fluid solve is only %.2fx "
                     "faster than the scalar reference (floor: %.1fx)\n",
                     fluid_binned_speedup, kFluidBinnedSpeedupFloor);
        ++regressions;
      }
    }
  }

  write_json(out_path, "pdos-bench-engine-v1", entries);
  std::printf("wrote %s\n", out_path.c_str());
  write_json(datapath_out_path, "pdos-bench-datapath-v1", datapath_entries);
  std::printf("wrote %s\n", datapath_out_path.c_str());
  write_json(sweep_out_path, "pdos-bench-sweep-v1", sweep_entries);
  std::printf("wrote %s\n", sweep_out_path.c_str());
  write_json(scale_out_path, "pdos-bench-scale-v1", scale_entries);
  std::printf("wrote %s\n", scale_out_path.c_str());
  write_json(fluid_out_path, "pdos-bench-fluid-v1", fluid_entries);
  std::printf("wrote %s\n", fluid_out_path.c_str());
  write_json(campaign_out_path, "pdos-bench-campaign-v1", campaign_entries);
  std::printf("wrote %s\n", campaign_out_path.c_str());
  if (!fluid_surface_path.empty()) {
    emit_fluid_surface(fluid_surface_path);
    std::printf("wrote %s\n", fluid_surface_path.c_str());
  }
  if (regressions > 0) {
    std::fprintf(stderr, "bench_report: %d benchmark(s) regressed\n",
                 regressions);
    return 1;
  }
  return 0;
}
