// Generic scenario runner: every knob of the experiment pipeline on the
// command line, for exploring configurations beyond the paper's grid.
//
// Usage:
//   scenario_runner [--flows N] [--bottleneck MBPS] [--buffer PKTS]
//                   [--queue red|droptail] [--tcp tahoe|reno|newreno]
//                   [--rtomin MS] [--textent MS] [--rattack MBPS]
//                   [--gamma G | --no-attack] [--kappa K]
//                   [--warmup S] [--measure S] [--seed N]
//                   [--backend full|fast|fluid]
//   scenario_runner --sweep SPECFILE [--threads N]
//
// The first form prints baseline and attacked goodput, measured vs
// predicted degradation, queue drop counters and TCP state statistics for
// a single run. The second hands a key=value campaign spec (see
// src/sweep/spec.hpp) to the parallel sweep engine and prints its CSV
// table to stdout (or the spec's `csv =` path), keeping results in the
// spec's `store =` directory when it names one.
//
// Exit status: 0 on success, 1 when a sweep point failed, 2 on a usage or
// configuration error — an unknown flag, a value that does not parse, or a
// scenario or spec that cannot run — with a message naming the flag.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "pdos/pdos.hpp"
#include "sweep/campaign_store.hpp"

using namespace pdos;

namespace {

// Every flag the runner understands. Anything else is a usage error, so a
// typo or a retired flag fails instead of silently running the defaults.
const std::set<std::string> kValueFlags = {
    "--flows",   "--bottleneck", "--buffer",  "--queue",   "--tcp",
    "--rtomin",  "--textent",    "--rattack", "--gamma",   "--kappa",
    "--warmup",  "--measure",    "--seed",    "--backend", "--sweep",
    "--threads"};
const std::set<std::string> kSwitches = {"--no-attack"};

/// The parsed command line. Throws ParameterError naming the flag on an
/// unknown flag, a missing value, or a value that does not parse.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (kSwitches.count(flag) != 0) {
        switches_.insert(flag);
      } else if (kValueFlags.count(flag) != 0) {
        PDOS_REQUIRE(i + 1 < argc, flag + ": missing value");
        values_[flag] = argv[++i];
      } else {
        throw ParameterError("unknown flag '" + flag + "'");
      }
    }
  }

  bool has(const std::string& flag) const {
    return switches_.count(flag) != 0 || values_.count(flag) != 0;
  }

  std::string text(const std::string& flag,
                   const std::string& fallback) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? fallback : it->second;
  }

  /// A real-valued flag, parsed like a spec number: the whole value must
  /// be a finite number.
  double real(const std::string& flag, double fallback) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? fallback
                               : sweep::parse_double(flag, it->second);
  }

  /// An integer flag, parsed like an integer spec key: the whole value must
  /// be a base-10 integer of at least `min`.
  template <typename Int>
  Int integer(const std::string& flag, Int fallback, Int min) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? fallback
                               : sweep::parse_int<Int>(flag, it->second, min);
  }

  /// A flag whose value must be one of `choices`.
  std::string choice(const std::string& flag, const std::string& fallback,
                     const std::set<std::string>& choices) const {
    const std::string value = text(flag, fallback);
    PDOS_REQUIRE(choices.count(value) != 0,
                 flag + ": unknown value '" + value + "'");
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> switches_;
};

int run_sweep_mode(const std::string& spec_path, const Args& args) {
  sweep::SpecFile file = sweep::load_spec_file(spec_path);
  sweep::enumerate_nonempty(file.spec);
  const int threads = args.integer("--threads", 0, 0);
  if (threads > 0) file.options.threads = threads;
  std::optional<sweep::CampaignStore> store;
  if (!file.store_dir.empty()) {
    file.options.store = &store.emplace(file.store_dir);
  }
  file.options.on_progress = [](const sweep::SweepProgress& progress) {
    std::fprintf(stderr, "\r%zu/%zu done, eta %.1fs  ", progress.done,
                 progress.total, progress.eta_seconds);
    if (progress.done == progress.total) std::fprintf(stderr, "\n");
  };
  const sweep::SweepResult result = sweep::run_sweep(file.spec, file.options);
  std::fprintf(stderr, "sweep: %zu ok, %zu failed on %d threads in %.2fs\n",
               result.completed(), result.failures(), result.threads,
               result.wall_seconds);
  if (file.csv_path.empty()) {
    result.write_csv(std::cout);
  } else {
    std::ofstream out(file.csv_path);
    PDOS_REQUIRE(out.good(), "cannot open output: " + file.csv_path);
    result.write_csv(out);
  }
  if (!file.json_path.empty()) {
    std::ofstream out(file.json_path);
    PDOS_REQUIRE(out.good(), "cannot open output: " + file.json_path);
    result.write_json(out);
  }
  return result.failures() == 0 && !result.cancelled ? 0 : 1;
}

int run_single(const Args& args) {
  ScenarioConfig scenario =
      ScenarioConfig::ns2_dumbbell(args.integer("--flows", 15, 1));
  scenario.bottleneck = mbps(args.real("--bottleneck", 15.0));
  scenario.buffer_packets =
      args.integer<std::size_t>("--buffer", scenario.buffer_packets, 1);
  scenario.tcp.rto_min =
      ms(args.real("--rtomin", to_ms(scenario.tcp.rto_min)));
  scenario.seed = args.integer<std::uint64_t>("--seed", 1, 0);

  const std::string queue =
      args.choice("--queue", "red", {"red", "droptail"});
  scenario.queue =
      queue == "droptail" ? QueueKind::kDropTail : QueueKind::kRed;
  const std::string tcp =
      args.choice("--tcp", "newreno", {"tahoe", "reno", "newreno"});
  scenario.tcp.variant = tcp == "tahoe"  ? TcpVariant::kTahoe
                         : tcp == "reno" ? TcpVariant::kReno
                                         : TcpVariant::kNewReno;
  scenario.backend = *parse_backend(
      args.choice("--backend", "full", {"full", "fast", "fluid"}));

  RunControl control;
  control.warmup = sec(args.real("--warmup", 5.0));
  control.measure = sec(args.real("--measure", 20.0));

  std::printf("scenario: %d flows, %.1f Mbps %s bottleneck, B=%zu pkts, "
              "TCP %s, minRTO=%.0fms, seed=%llu, backend=%s\n",
              scenario.num_flows, to_mbps(scenario.bottleneck),
              queue.c_str(), scenario.buffer_packets,
              tcp_variant_name(scenario.tcp.variant),
              to_ms(scenario.tcp.rto_min),
              static_cast<unsigned long long>(scenario.seed),
              backend_name(scenario.backend));

  // One warm workspace for the baseline and the attacked run.
  ScenarioWorkspace ws;
  const BitRate baseline = ws.baseline(scenario, control);
  std::printf("baseline: %.2f Mbps goodput (%.1f%% utilization), jitter "
              "gauge below\n",
              to_mbps(baseline), 100.0 * baseline / scenario.bottleneck);
  if (args.has("--no-attack")) return 0;

  AttackPlanRequest request;
  request.victim = scenario.victim_profile();
  request.textent = ms(args.real("--textent", 50.0));
  request.rattack = mbps(args.real("--rattack", 25.0));
  request.kappa = args.real("--kappa", 1.0);
  request.victim_min_rto = scenario.tcp.rto_min;

  const double gamma = args.real("--gamma", -1.0);
  const AttackPlan plan = gamma > 0.0
                              ? plan_attack_at_gamma(request, gamma)
                              : plan_attack(request);
  std::printf("\n%s\n\n", plan.summary().c_str());

  const GainMeasurement point =
      ws.gain(scenario, plan.train, request.kappa, control, baseline);
  const RunResult& run = point.run;
  std::printf("under attack: %.2f Mbps goodput\n",
              to_mbps(run.goodput_rate));
  std::printf("degradation Gamma: measured %.3f vs predicted %.3f\n",
              point.degradation, plan.predicted_degradation);
  std::printf("attack gain G:     measured %.3f vs predicted %.3f\n",
              point.gain, plan.predicted_gain);
  std::printf("delivery jitter:   %.1f ms (smoothed)\n",
              to_ms(run.mean_delivery_jitter));
  std::printf("bottleneck drops:  %llu total (%llu tcp, %llu attack; "
              "RED early %llu, forced %llu)\n",
              static_cast<unsigned long long>(run.bottleneck_queue.dropped),
              static_cast<unsigned long long>(
                  run.bottleneck_queue.dropped_tcp),
              static_cast<unsigned long long>(
                  run.bottleneck_queue.dropped_attack),
              static_cast<unsigned long long>(run.red_early_drops),
              static_cast<unsigned long long>(run.red_forced_drops));
  std::printf("TCP state:         %llu timeouts, %llu fast recoveries, "
              "%llu retransmits\n",
              static_cast<unsigned long long>(run.total_timeouts),
              static_cast<unsigned long long>(run.total_fast_recoveries),
              static_cast<unsigned long long>(run.total_retransmits));
  std::printf("simulation:        %llu events, %llu attack packets\n",
              static_cast<unsigned long long>(run.events_executed),
              static_cast<unsigned long long>(run.attack_packets_sent));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (args.has("--sweep")) {
      return run_sweep_mode(args.text("--sweep", ""), args);
    }
    return run_single(args);
  } catch (const ParameterError& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 2;
  }
}
