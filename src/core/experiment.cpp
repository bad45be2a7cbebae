#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "attack/distributed.hpp"
#include "core/model.hpp"
#include "fluid/batch.hpp"
#include "fluid/hybrid.hpp"
#include "net/droptail.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/fairness.hpp"
#include "stats/jitter.hpp"
#include "stats/stats_hub.hpp"
#include "traffic/sources.hpp"
#include "tcp/connection.hpp"
#include "util/assert.hpp"

namespace pdos {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kFull: return "full";
    case Backend::kFast: return "fast";
    case Backend::kFluid: return "fluid";
    case Backend::kHybrid: return "hybrid";
  }
  return "?";
}

std::optional<Backend> parse_backend(const std::string& name) {
  if (name == "full") return Backend::kFull;
  if (name == "fast") return Backend::kFast;
  if (name == "fluid") return Backend::kFluid;
  if (name == "hybrid") return Backend::kHybrid;
  return std::nullopt;
}

ScenarioConfig ScenarioConfig::ns2_dumbbell(int num_flows) {
  ScenarioConfig config;
  config.num_flows = num_flows;
  config.bottleneck = mbps(15);
  config.access = mbps(50);
  config.bottleneck_delay = ms(1);
  config.rtts = VictimProfile::even_rtts(num_flows, ms(20), ms(460));
  config.queue = QueueKind::kRed;
  // Not restated by the paper; ~0.55 x BDP at the mean RTT keeps the
  // bottleneck >90% utilized without an attack (Lemma 1's premise) while
  // letting 50-100 ms pulses overflow it. See EXPERIMENTS.md.
  config.buffer_packets = 240;
  config.tcp = TcpSenderConfig{};
  config.tcp.aimd = AimdParams::new_reno();  // ns-2: no delayed ACKs
  config.tcp.rto_min = sec(1.0);             // ns-2 default minRTO
  return config;
}

ScenarioConfig ScenarioConfig::testbed(int num_flows) {
  ScenarioConfig config;
  config.num_flows = num_flows;
  config.bottleneck = mbps(10);
  config.access = mbps(100);
  config.bottleneck_delay = ms(1);
  // Dummynet adds 150 ms of delay shared by every flow.
  config.rtts.assign(num_flows, ms(150));
  config.queue = QueueKind::kRed;
  config.tcp = TcpSenderConfig{};
  config.tcp.aimd = AimdParams::new_reno_delack();  // Linux: delayed ACKs
  config.tcp.rto_min = ms(200);                     // Fedora kernel 2.6.5
  // Rule-of-thumb buffer B = RTT * R_bottle, in packets.
  const Bytes spacket = config.tcp.mss + config.tcp.header_bytes;
  config.buffer_packets = static_cast<std::size_t>(
      ms(150) * mbps(10) / 8.0 / static_cast<double>(spacket));
  return config;
}

ScenarioConfig ScenarioConfig::large_scale(int num_flows,
                                           BitRate bottleneck) {
  ScenarioConfig config;
  config.num_flows = num_flows;
  config.bottleneck = bottleneck;
  config.access = mbps(50);
  config.bottleneck_delay = ms(1);
  config.rtts = VictimProfile::even_rtts(num_flows, ms(20), ms(460));
  config.queue = QueueKind::kRed;
  // Scale the ns-2 dumbbell's 240-packet buffer with the bottleneck rate so
  // buffering stays ~0.55 x BDP at the mean RTT regardless of scale.
  config.buffer_packets =
      static_cast<std::size_t>(240.0 * bottleneck / mbps(15));
  config.tcp = TcpSenderConfig{};
  config.tcp.aimd = AimdParams::new_reno();
  config.tcp.rto_min = sec(1.0);
  config.fast_path = true;
  return config;
}

void ScenarioConfig::validate() const {
  PDOS_REQUIRE(num_flows >= 1, "Scenario: need at least one flow");
  PDOS_REQUIRE(static_cast<int>(rtts.size()) == num_flows,
               "Scenario: rtts.size() must equal num_flows");
  PDOS_REQUIRE(bottleneck > 0.0 && access > 0.0,
               "Scenario: link rates must be > 0");
  PDOS_REQUIRE(buffer_packets >= 2, "Scenario: buffer must hold >= 2 packets");
  PDOS_REQUIRE(num_attackers >= 1, "Scenario: need at least one attacker");
  PDOS_REQUIRE(attacker_phase_spread >= 0.0,
               "Scenario: attacker_phase_spread must be >= 0");
  PDOS_REQUIRE(cross_traffic_rate >= 0.0,
               "Scenario: cross_traffic_rate must be >= 0");
  for (Time rtt : rtts) {
    PDOS_REQUIRE(rtt > 2.0 * bottleneck_delay,
                 "Scenario: RTT must exceed bottleneck propagation");
  }
  if (backend == Backend::kFluid || backend == Backend::kHybrid) {
    PDOS_REQUIRE(fluid_dt_pulse > 0.0 && fluid_dt_idle > 0.0,
                 "Scenario: fluid integration steps must be > 0");
  }
  if (backend == Backend::kFluid) {
    PDOS_REQUIRE(cross_traffic_rate == 0.0,
                 "Scenario: fluid backend does not model cross traffic");
    PDOS_REQUIRE(attacker_phase_spread == 0.0,
                 "Scenario: fluid backend needs in-phase attackers");
  }
  if (backend == Backend::kHybrid) {
    PDOS_REQUIRE(queue == QueueKind::kRed,
                 "Scenario: hybrid backend requires queue = red, got "
                 "droptail");
    PDOS_REQUIRE(hybrid_foreground >= 1 && hybrid_foreground < num_flows,
                 "Scenario: hybrid needs 1 <= hybrid_foreground < num_flows");
    PDOS_REQUIRE(hybrid_tick > 0.0, "Scenario: hybrid_tick must be > 0");
  }
  tcp.validate();
}

VictimProfile ScenarioConfig::victim_profile() const {
  VictimProfile victim;
  victim.aimd = tcp.aimd;
  victim.spacket = tcp.mss + tcp.header_bytes;
  victim.rbottle = bottleneck;
  victim.rtts = rtts;
  return victim;
}

fluid::FluidConfig make_fluid_config(const ScenarioConfig& config) {
  fluid::FluidConfig fc;
  fc.aimd = config.tcp.aimd;
  fc.spacket = config.tcp.mss + config.tcp.header_bytes;
  fc.bottleneck = config.bottleneck;
  fc.access = config.access;
  // Same parameterization make_queue builds for the packet bottleneck.
  fc.red = RedParams::paper_testbed(config.buffer_packets);
  fc.droptail = config.queue == QueueKind::kDropTail;
  fc.classes.reserve(config.rtts.size());
  for (Time rtt : config.rtts) {
    fc.classes.push_back(fluid::FluidClass{rtt, 1.0});
  }
  fc.initial_ssthresh = config.tcp.initial_ssthresh;
  fc.max_cwnd = config.tcp.max_cwnd;
  fc.rto_min = config.tcp.rto_min;
  fc.dt_pulse = config.fluid_dt_pulse;
  fc.dt_idle = config.fluid_dt_idle;
  return fc;
}

namespace {

// Stream tags for seed-derived randomness (see Simulator::stream). Every
// stochastic component gets its own stream keyed off the run seed, so
// changing one component (e.g. adding attackers) never shifts the
// randomness another component sees — two runs with the same config and
// seed are bit-identical even when num_attackers > 1.
constexpr std::uint64_t kQueueStream = 0x71756575'65000000ULL;  // "queue"
constexpr std::uint64_t kFlowStartStream = 0x666c6f77'73000000ULL;  // "flows"

/// Bottleneck queue, allocated in the simulator's arena so its buffer and
/// the links it serves share blocks (and survive warm resets).
QueueDiscipline* make_queue(Simulator& sim, const ScenarioConfig& config) {
  if (config.queue == QueueKind::kDropTail) {
    return sim.make<DropTailQueue>(config.buffer_packets, sim.memory());
  }
  return sim.make<RedQueue>(RedParams::paper_testbed(config.buffer_packets),
                            sim.stream(kQueueStream), sim.memory());
}

QueueDiscipline* big_fifo(Simulator& sim) {
  // Access links are never the bottleneck; give them ample tail-drop space.
  return sim.make<DropTailQueue>(1000, sim.memory());
}

fluid::FluidControl fluid_control_from(const RunControl& control) {
  fluid::FluidControl fctl;
  fctl.warmup = control.warmup;
  fctl.measure = control.measure;
  fctl.bin_width = control.bin_width;
  fctl.traced_class = control.traced_flow;
  return fctl;
}

std::optional<fluid::FluidAttack> fluid_attack_from(
    const std::optional<PulseTrain>& attack) {
  if (!attack) return std::nullopt;
  return fluid::FluidAttack{attack->textent, attack->rattack, attack->tspace,
                            attack->packet_bytes};
}

/// Map the fluid observables onto RunResult so every caller (sweeps,
/// optimizer, gain/baseline) consumes the surrogate through the same
/// interface as the packet tiers. Shared by the single-point kFluid
/// backend and the lane-batched run_fluid_batch.
RunResult fluid_result_to_run(const std::optional<PulseTrain>& attack,
                              fluid::FluidResult fr) {
  RunResult result;
  result.goodput_bytes = static_cast<Bytes>(fr.goodput_bytes);
  result.goodput_rate = fr.goodput_rate;
  result.utilization = fr.utilization;
  result.per_flow_goodput.reserve(fr.per_class_goodput_bytes.size());
  for (double bytes : fr.per_class_goodput_bytes) {
    result.per_flow_goodput.push_back(static_cast<Bytes>(bytes));
  }
  result.fairness_index = jain_fairness_index(fr.per_class_goodput_bytes);
  result.bin_width = fr.bin_width;
  result.red_early_drops =
      static_cast<std::uint64_t>(fr.early_dropped_packets);
  result.red_forced_drops =
      static_cast<std::uint64_t>(fr.forced_dropped_packets);
  result.total_timeouts = fr.timeouts;
  // A fluid loss episode is the surrogate of a fast-recovery spell.
  result.total_fast_recoveries = fr.loss_events;
  result.events_executed = fr.steps;
  if (attack) {
    double attack_bytes = 0.0;
    for (double b : fr.attack_bins) attack_bytes += b;
    result.attack_packets_sent = static_cast<std::uint64_t>(
        attack_bytes / static_cast<double>(attack->packet_bytes));
  }
  result.incoming_bins = std::move(fr.incoming_bins);
  result.attack_bins = std::move(fr.attack_bins);
  result.queue_occupancy = std::move(fr.queue_occupancy);
  result.red_avg_samples = std::move(fr.red_avg_samples);
  result.cwnd_trace = std::move(fr.cwnd_trace);
  return result;
}

/// kFluid backend: no simulator at all — translate, solve, map.
RunResult run_fluid_backend(const ScenarioConfig& config,
                            const std::optional<PulseTrain>& attack,
                            const RunControl& control) {
  return fluid_result_to_run(
      attack, fluid::solve(make_fluid_config(config),
                           fluid_attack_from(attack),
                           fluid_control_from(control)));
}

}  // namespace

std::vector<RunResult> run_fluid_batch(
    const ScenarioConfig& config,
    const std::vector<std::optional<PulseTrain>>& attacks,
    const RunControl& control) {
  config.validate();
  PDOS_REQUIRE(control.warmup >= 0.0 && control.measure > 0.0,
               "RunControl: need warmup >= 0 and measure > 0");
  std::vector<fluid::BatchLane> lanes;
  lanes.reserve(attacks.size());
  for (const std::optional<PulseTrain>& attack : attacks) {
    if (attack) attack->validate();
    lanes.push_back(fluid::BatchLane{fluid_attack_from(attack)});
  }
  std::vector<fluid::FluidResult> solved = fluid::solve_batch(
      make_fluid_config(config), lanes, fluid_control_from(control));
  std::vector<RunResult> results;
  results.reserve(solved.size());
  for (std::size_t i = 0; i < solved.size(); ++i) {
    results.push_back(fluid_result_to_run(attacks[i], std::move(solved[i])));
  }
  return results;
}

std::vector<GainMeasurement> fluid_gain_batch(const ScenarioConfig& config,
                                              const std::vector<PulseTrain>& trains,
                                              double kappa,
                                              const RunControl& control,
                                              BitRate baseline_goodput) {
  std::vector<std::optional<PulseTrain>> attacks;
  attacks.reserve(trains.size());
  for (const PulseTrain& train : trains) attacks.emplace_back(train);
  std::vector<RunResult> runs = run_fluid_batch(config, attacks, control);
  std::vector<GainMeasurement> gains;
  gains.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    gains.push_back(finish_gain(config, trains[i], kappa, baseline_goodput,
                                std::move(runs[i])));
  }
  return gains;
}

void ScenarioWorkspace::build(const ScenarioConfig& config,
                              const std::optional<PulseTrain>& attack) {
  const int m = config.num_flows;
  const NodeId router_s_id = 2 * m;
  const NodeId router_r_id = 2 * m + 1;
  const NodeId attacker_id = 2 * m + 2;
  const bool fast = config.fast_path || config.backend == Backend::kFast;
  Simulator& sim = sim_;

  router_s_ = sim.make<Node>(router_s_id, "routerS", sim.memory());
  router_r_ = sim.make<Node>(router_r_id, "routerR", sim.memory());

  // Flat hot-state tables: all N flows' per-ACK sender state in one arena
  // block, receivers in the next, so the ACK clock walks contiguous cache
  // lines instead of state scattered between cold component objects.
  sender_hot_ = sim.make_array<TcpSenderHot>(static_cast<std::size_t>(m));
  receiver_hot_ = sim.make_array<TcpReceiverHot>(static_cast<std::size_t>(m),
                                                 sim.memory());

  const Bytes spacket = config.tcp.mss + config.tcp.header_bytes;
  bottleneck_ = sim.make<Link>(
      sim, "bottleneck", config.bottleneck, config.bottleneck_delay,
      make_queue(sim, config), router_r_, spacket);
  if (fast) bottleneck_->set_fused(true);
  // Fast path: the reverse direction carries only 40-byte ACKs paced by the
  // forward bottleneck — it can never congest, so it gets the queue-less
  // express lane (one sequenced delivery event per link, no service
  // events). Scenarios that queue or tap the reverse path keep fast_path
  // off and get the full link.
  Link* bottleneck_rev =
      fast ? sim.make<Link>(sim, "bottleneck.rev", config.bottleneck,
                            config.bottleneck_delay,
                            static_cast<PacketHandler*>(router_s_), spacket)
           : sim.make<Link>(sim, "bottleneck.rev", config.bottleneck,
                            config.bottleneck_delay, big_fifo(sim), router_s_,
                            spacket);
  router_r_->add_route(router_s_id, bottleneck_rev);
  // Chain the ACK lane straight through routerS: every packet the reverse
  // bottleneck emits is bound for a sender, whose per-flow reverse access
  // link is also express and fed by this link alone, so the handoff skips
  // routerS's delivery event — one scheduler event per ACK end to end
  // instead of two (see DESIGN.md §11).
  if (fast) bottleneck_rev->chain_via(router_s_);

  for (int i = 0; i < m; ++i) {
    const NodeId snd_id = i;
    const NodeId rcv_id = m + i;
    auto* snd =
        sim.make<Node>(snd_id, "sender" + std::to_string(i), sim.memory());
    auto* rcv =
        sim.make<Node>(rcv_id, "receiver" + std::to_string(i), sim.memory());

    // Split the flow's propagation RTT between its two access links.
    const Time side = (config.rtts[i] / 2.0 - config.bottleneck_delay) / 2.0;
    PDOS_CHECK(side > 0.0);

    auto* snd_fwd = sim.make<Link>(sim, "acc.s" + std::to_string(i),
                                   config.access, side, big_fifo(sim),
                                   router_s_, spacket);
    auto* rcv_fwd = sim.make<Link>(sim, "acc.r" + std::to_string(i),
                                   config.access, side, big_fifo(sim), rcv,
                                   spacket);
    Link* snd_rev =
        fast ? sim.make<Link>(sim, "acc.s.rev" + std::to_string(i),
                              config.access, side,
                              static_cast<PacketHandler*>(snd), spacket)
             : sim.make<Link>(sim, "acc.s.rev" + std::to_string(i),
                              config.access, side, big_fifo(sim), snd,
                              spacket);
    Link* rcv_rev =
        fast ? sim.make<Link>(sim, "acc.r.rev" + std::to_string(i),
                              config.access, side,
                              static_cast<PacketHandler*>(router_r_), spacket)
             : sim.make<Link>(sim, "acc.r.rev" + std::to_string(i),
                              config.access, side, big_fifo(sim), router_r_,
                              spacket);
    if (fast) {
      snd_fwd->set_fused(true);
      rcv_fwd->set_fused(true);
    }

    snd->set_default_route(snd_fwd);
    rcv->set_default_route(rcv_rev);
    router_s_->add_route(rcv_id, bottleneck_);
    router_s_->add_route(snd_id, snd_rev);
    router_r_->add_route(rcv_id, rcv_fwd);
    router_r_->add_route(snd_id, bottleneck_rev);

    connections_.push_back(make_tcp_connection(
        sim, *snd, *rcv, /*flow=*/i, config.tcp, &sender_hot_[i],
        &receiver_hot_[i],
        // Fast path: a per-flow link carries exactly one flow, so every hop
        // it feeds resolves to one handler — wire the agents and links
        // point-to-point and skip the Node dispatch on both edge rows. The
        // routers keep their tables (the bottleneck fan-out and the reverse
        // chain handoff still resolve through them); packet timings, queue
        // decisions, and events are untouched by call-path shortcuts.
        fast ? snd_fwd : nullptr, fast ? rcv_rev : nullptr));
    if (fast) {
      snd_fwd->set_downstream(bottleneck_);
      rcv_fwd->set_downstream(connections_.back().receiver);
      rcv_rev->set_downstream(bottleneck_rev);
      snd_rev->set_downstream(connections_.back().sender);
    }
  }
  router_s_->add_route(router_r_id, bottleneck_);

  if (config.cross_traffic_rate > 0.0) {
    const NodeId cross_id = 2 * m + 3;
    auto* cross_node = sim.make<Node>(cross_id, "cross", sim.memory());
    auto* cross_link = sim.make<Link>(sim, "acc.cross", config.access, ms(1),
                                      big_fifo(sim), router_s_, spacket);
    if (fast) cross_link->set_fused(true);
    cross_node->set_default_route(cross_link);
    // 50% duty cycle: peak rate of twice the requested average.
    cross_traffic_ = sim.make<OnOffSource>(
        sim, 2.0 * config.cross_traffic_rate, ms(500), ms(500), spacket,
        cross_id, router_r_id, cross_node);
  }

  if (attack) {
    const auto sub_trains = split_train(*attack, config.num_attackers);
    for (int a = 0; a < config.num_attackers; ++a) {
      const NodeId node_id = attacker_id + 10 + a;
      auto* attacker_node = sim.make<Node>(
          node_id, "attacker" + std::to_string(a), sim.memory());
      BitRate attacker_access = config.attacker_access;
      if (attacker_access <= 0.0) {
        attacker_access =
            std::max(config.access, 2.0 * sub_trains[a].rattack);
      }
      // Fast path: with the access link at least as fast as the pulse rate
      // it can never queue or drop, so it gets the express lane and the
      // attacker injects each burst in one batched event instead of one
      // event per packet (timings are identical either way).
      const bool express_attack =
          fast && attacker_access >= sub_trains[a].rattack;
      Link* attack_link =
          express_attack
              ? sim.make<Link>(sim, "acc.attacker" + std::to_string(a),
                               attacker_access, ms(1),
                               static_cast<PacketHandler*>(router_s_),
                               attack->packet_bytes)
              : sim.make<Link>(sim, "acc.attacker" + std::to_string(a),
                               attacker_access, ms(1), big_fifo(sim),
                               router_s_, attack->packet_bytes);
      if (fast && !express_attack) attack_link->set_fused(true);
      // Every attack packet is bound for routerR across the bottleneck, so
      // the fast path hands deliveries straight to the bottleneck link
      // instead of bouncing through routerS's route table.
      if (fast) attack_link->set_downstream(bottleneck_);
      attacker_node->set_default_route(attack_link);
      // Attack packets are addressed to routerR, which has no agent for
      // their flow id and therefore sinks them — after they have crossed
      // the bottleneck queue, which is all the attack needs.
      attackers_.push_back(
          sim.make<PulseAttacker>(sim, sub_trains[a], node_id, router_r_id,
                                  attacker_node, FlowId{-1000 - a}));
      if (express_attack) attackers_.back()->set_express_lane(attack_link);
    }
  }
}

ScenarioWorkspace::ScenarioWorkspace() = default;
ScenarioWorkspace::~ScenarioWorkspace() = default;

RunResult ScenarioWorkspace::run(const ScenarioConfig& config,
                                 const std::optional<PulseTrain>& attack,
                                 const RunControl& control) {
  config.validate();
  if (attack) attack->validate();
  PDOS_REQUIRE(control.warmup >= 0.0 && control.measure > 0.0,
               "RunControl: need warmup >= 0 and measure > 0");

  if (config.backend == Backend::kFluid) {
    // Pure surrogate: no packets, no simulator state touched.
    return run_fluid_backend(config, attack, control);
  }

  // Hybrid: carve the packet-level foreground out of the flow list; the
  // complement becomes the fluid background aggregate attached after build.
  const bool hybrid = config.backend == Backend::kHybrid;
  ScenarioConfig active = config;
  std::vector<Time> background_rtts;
  if (hybrid) {
    const int m = config.num_flows;
    const int f = config.hybrid_foreground;
    std::vector<char> is_foreground(static_cast<std::size_t>(m), 0);
    for (int i = 0; i < f; ++i) {
      // Spread the packet flows evenly across the RTT list (f == 1 keeps
      // the shortest-RTT flow). Strictly increasing for f <= m, no dupes.
      const int idx =
          f == 1 ? 0
                 : static_cast<int>(std::lround(static_cast<double>(i) *
                                                (m - 1) / (f - 1)));
      is_foreground[static_cast<std::size_t>(idx)] = 1;
    }
    active.num_flows = f;
    active.rtts.clear();
    for (int i = 0; i < m; ++i) {
      auto& dst = is_foreground[static_cast<std::size_t>(i)]
                      ? active.rtts
                      : background_rtts;
      dst.push_back(config.rtts[i]);
    }
  }

  // Rewind the simulator to the run seed: the previous run's object graph
  // is destroyed, but every block of memory it occupied is retained and
  // reused by the rebuild below.
  sim_.reset(config.seed);
  router_s_ = nullptr;
  router_r_ = nullptr;
  bottleneck_ = nullptr;
  cross_traffic_ = nullptr;
  background_ = nullptr;
  sender_hot_ = nullptr;
  receiver_hot_ = nullptr;
  connections_.clear();
  attackers_.clear();
  build(active, attack);

  if (hybrid) {
    auto* red = dynamic_cast<RedQueue*>(&bottleneck_->queue());
    PDOS_CHECK(red != nullptr);  // validate() enforced QueueKind::kRed
    fluid::FluidConfig bg = make_fluid_config(config);
    bg.classes.clear();
    bg.classes.reserve(background_rtts.size());
    for (Time rtt : background_rtts) {
      bg.classes.push_back(fluid::FluidClass{rtt, 1.0});
    }
    background_ = sim_.make<fluid::FluidBackgroundSource>(
        sim_, bottleneck_, red, std::move(bg), config.hybrid_tick);
    background_->start(0.0);
  }

  // Instrument the bottleneck's arrivals (the paper's "incoming traffic").
  // StatsHub batches the per-bin sums and is pre-sized to the horizon, so
  // the tap — an inline closure of two pointers — does no allocation and
  // at most one bins-vector store per bin.
  StatsHub arrivals(control.bin_width, control.horizon());
  RunResult result;

  // Sample bottleneck occupancy (and RED's lagging average) once per bin.
  // The state is bundled so the closure captures one pointer and stays
  // within InlineFn's inline budget.
  struct SamplerCtx {
    Link* bottleneck;
    Simulator& sim;
    RunResult& result;
    const RunControl& control;
    const RedQueue* red_queue;
    Timer* timer = nullptr;
  } sampler_ctx{bottleneck_, sim_, result, control,
                dynamic_cast<const RedQueue*>(&bottleneck_->queue())};
  Timer sampler(sim_.scheduler(), [ctx = &sampler_ctx] {
    // Lazy fused links drain analytically between packets; flush services
    // completed by now so the occupancy sample matches the eager schedule.
    ctx->bottleneck->settle();
    // Hybrid runs count the fluid background's virtual backlog as
    // occupancy; with no background the term is exactly 0.0 and the sample
    // is bit-identical to the packet-only path.
    ctx->result.queue_occupancy.push_back(
        static_cast<double>(ctx->bottleneck->queue().length()) +
        (ctx->red_queue != nullptr ? ctx->red_queue->fluid_backlog() : 0.0));
    ctx->result.red_avg_samples.push_back(
        ctx->red_queue != nullptr ? ctx->red_queue->avg() : 0.0);
    if (ctx->sim.now() + ctx->control.bin_width <= ctx->control.horizon()) {
      ctx->timer->schedule_in(ctx->control.bin_width);
    }
  });
  sampler_ctx.timer = &sampler;
  // Pre-size the sampled series to the horizon so the event loop itself
  // performs no allocations: one sample per bin from t = 0, plus slack for
  // the boundary sample.
  const std::size_t samples =
      static_cast<std::size_t>(control.horizon() / control.bin_width) + 2;
  result.queue_occupancy.reserve(samples);
  result.red_avg_samples.reserve(samples);

  bottleneck_->add_arrival_tap(
      [hub = &arrivals, sim = &sim_](const Packet& pkt) {
        hub->on_arrival(sim->now(), pkt);
      });
  sampler.schedule_in(0.0);

  // Per-flow delivery jitter (§2.3's "increase in jitter"), kept in the
  // hub's flat meter table: one O(1) JitterMeter update per in-order
  // delivery, no allocation on the per-packet path.
  arrivals.register_flows(connections_.size());
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    connections_[i].receiver->set_delivery_tracer(
        [hub = &arrivals, i](Time t, std::int64_t) {
          hub->on_delivery(i, t);
        });
  }

  if (control.traced_flow >= 0) {
    PDOS_REQUIRE(control.traced_flow < active.num_flows,
                 "RunControl: traced_flow out of range");
    connections_[control.traced_flow].sender->set_cwnd_tracer(
        [&result](Time t, double w) { result.cwnd_trace.emplace_back(t, w); });
  }

  // Stagger flow starts to avoid artificial lockstep at t = 0. Each flow
  // draws from its own seed-derived stream so the offsets do not depend on
  // what else the scenario instantiates (attackers, cross traffic).
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    Rng start_rng = sim_.stream(kFlowStartStream + i);
    connections_[i].sender->start(
        start_rng.uniform(0.0, config.flow_start_spread));
  }
  if (!attackers_.empty()) {
    auto phases =
        spread_phases_seeded(static_cast<int>(attackers_.size()),
                             config.attacker_phase_spread, config.seed);
    for (std::size_t a = 0; a < attackers_.size(); ++a) {
      attackers_[a]->start(phases[a]);
    }
  }
  if (cross_traffic_) cross_traffic_->start(0.0);

  sim_.run_until(control.warmup);
  goodput_marks_.clear();
  goodput_marks_.reserve(connections_.size());
  for (const auto& conn : connections_) {
    goodput_marks_.push_back(conn.receiver->goodput_bytes());
  }
  std::vector<double> background_mark;
  if (background_ != nullptr) {
    background_mark = background_->bank().delivered_packets();
  }

  sim_.run_until(control.horizon());

  for (std::size_t i = 0; i < connections_.size(); ++i) {
    const Bytes flow_bytes =
        connections_[i].receiver->goodput_bytes() - goodput_marks_[i];
    result.per_flow_goodput.push_back(flow_bytes);
    result.goodput_bytes += flow_bytes;
    const auto& stats = connections_[i].sender->stats();
    result.total_timeouts += stats.timeouts;
    result.total_fast_recoveries += stats.fast_recoveries;
    result.total_retransmits += stats.retransmits;
  }
  if (background_ != nullptr) {
    // Fold the fluid background's delivered mass into the aggregate: one
    // per-flow entry per background class, appended after the packet flows.
    const auto window = background_->bank().delivered_since(background_mark);
    const double spacket_bytes =
        static_cast<double>(background_->spacket());
    for (double pkts : window) {
      const Bytes bytes = static_cast<Bytes>(pkts * spacket_bytes);
      result.per_flow_goodput.push_back(bytes);
      result.goodput_bytes += bytes;
    }
    result.total_timeouts += background_->bank().timeouts;
    result.total_fast_recoveries += background_->bank().loss_events;
  }
  {
    std::vector<double> shares(result.per_flow_goodput.begin(),
                               result.per_flow_goodput.end());
    result.fairness_index = jain_fairness_index(shares);
  }
  result.mean_delivery_jitter = arrivals.mean_smoothed_jitter();
  result.goodput_rate =
      static_cast<double>(result.goodput_bytes) * 8.0 / control.measure;
  result.utilization = result.goodput_rate / config.bottleneck;
  result.incoming_bins = arrivals.incoming_bins_until(control.horizon());
  result.attack_bins = arrivals.attack_bins_until(control.horizon());
  result.bin_width = control.bin_width;
  bottleneck_->settle();  // flush lazy services so dequeue counts are current
  result.bottleneck_queue = bottleneck_->queue().stats();
  if (const auto* red =
          dynamic_cast<const RedQueue*>(&bottleneck_->queue())) {
    result.red_early_drops = red->early_drops();
    result.red_forced_drops = red->forced_drops();
  }
  for (const auto* attacker : attackers_) {
    result.attack_packets_sent +=
        static_cast<std::uint64_t>(attacker->stats().packets_sent);
  }
  result.events_executed = sim_.scheduler().events_executed();
  return result;
}

BitRate ScenarioWorkspace::baseline(const ScenarioConfig& config,
                                    const RunControl& control) {
  return run(config, std::nullopt, control).goodput_rate;
}

GainMeasurement ScenarioWorkspace::gain(const ScenarioConfig& config,
                                        const PulseTrain& train, double kappa,
                                        const RunControl& control,
                                        BitRate baseline_goodput) {
  PDOS_REQUIRE(baseline_goodput > 0.0,
               "measure_gain: baseline goodput must be > 0");
  return finish_gain(config, train, kappa, baseline_goodput,
                     run(config, train, control));
}

GainMeasurement finish_gain(const ScenarioConfig& config,
                            const PulseTrain& train, double kappa,
                            BitRate baseline_goodput, RunResult run) {
  PDOS_REQUIRE(baseline_goodput > 0.0,
               "finish_gain: baseline goodput must be > 0");
  GainMeasurement point;
  point.run = std::move(run);
  point.gamma = train.gamma(config.bottleneck);
  point.degradation =
      std::max(0.0, 1.0 - point.run.goodput_rate / baseline_goodput);
  point.gain = point.degradation * risk_term(std::min(point.gamma, 1.0),
                                             kappa);
  return point;
}

RunResult run_scenario(const ScenarioConfig& config,
                       const std::optional<PulseTrain>& attack,
                       const RunControl& control) {
  ScenarioWorkspace workspace;
  return workspace.run(config, attack, control);
}

GainMeasurement measure_gain(const ScenarioConfig& config,
                             const PulseTrain& train, double kappa,
                             const RunControl& control,
                             BitRate baseline_goodput) {
  ScenarioWorkspace workspace;
  return workspace.gain(config, train, kappa, control, baseline_goodput);
}

BitRate measure_baseline(const ScenarioConfig& config,
                         const RunControl& control) {
  ScenarioWorkspace workspace;
  return workspace.baseline(config, control);
}

}  // namespace pdos
