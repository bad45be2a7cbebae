#include "sweep/point_cache.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"

namespace pdos::sweep {

namespace {

/// FNV-1a over the canonical byte encoding of the inputs. Doubles hash by
/// bit pattern: two configs hash alike iff every parameter is bit-equal,
/// which matches the simulator's bit-exact determinism contract.
class Fnv1a {
 public:
  Fnv1a() = default;
  /// Resume from the value() of an earlier stream.
  explicit Fnv1a(std::uint64_t state) : hash_(state) {}

  Fnv1a& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv1a& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  Fnv1a& i64(std::int64_t v) { return bytes(&v, sizeof(v)); }
  Fnv1a& f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }
  Fnv1a& str(const char* s) { return bytes(s, std::strlen(s) + 1); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every ScenarioConfig field that shapes a run (including the TCP stack);
/// field order is part of the schema. Shared by the sweep keys below and
/// by `scenario_digest` (the fluid-surrogate keys of optimizer_cache.hpp).
void hash_scenario(Fnv1a& h, const ScenarioConfig& c) {
  h.i64(c.num_flows).f64(c.bottleneck).f64(c.access).f64(c.bottleneck_delay);
  h.i64(static_cast<std::int64_t>(c.rtts.size()));
  for (double rtt : c.rtts) h.f64(rtt);
  h.i64(static_cast<std::int64_t>(c.queue));
  h.i64(static_cast<std::int64_t>(c.buffer_packets));

  const TcpSenderConfig& t = c.tcp;
  h.i64(static_cast<std::int64_t>(t.variant));
  h.f64(t.aimd.a).f64(t.aimd.b).i64(t.aimd.d);
  h.i64(t.mss).i64(t.header_bytes);
  h.f64(t.initial_cwnd).f64(t.initial_ssthresh).f64(t.max_cwnd);
  h.f64(t.rto_min).f64(t.rto_max).f64(t.initial_rto);
  h.i64(t.dupack_threshold).f64(t.rto_jitter).i64(t.total_segments);

  h.i64(c.attack_packet_bytes).f64(c.attacker_access).i64(c.num_attackers);
  h.f64(c.attacker_phase_spread).f64(c.flow_start_spread);
  h.f64(c.cross_traffic_rate);

  // Simulation tier: the backend (and its tuning knobs) changes what a
  // "result" means, so full/fast/fluid points must never alias in a
  // --resume replay.
  h.i64(static_cast<std::int64_t>(c.backend));
  // Retired slot of the old fast_path flag (Backend::kFast replaced it).
  // Every sweep config hashed 0 here, so schema-3 keys stay unchanged.
  h.i64(0);
  // Retired slot of the deleted hybrid tier's foreground flow count and
  // background tick. Every sweep config hashed their defaults, 4 and 1 ms,
  // so schema-3 keys stay unchanged.
  h.i64(4).f64(ms(1.0));
  h.f64(c.fluid_dt_pulse).f64(c.fluid_dt_idle);
  // Thread and process counts are not spec fields at all: the same keys
  // address the store from every process, which is what lets concurrent
  // campaigns dedup against each other and against past --resume sweeps.
}

void hash_control(Fnv1a& h, const RunControl& ctl) {
  h.f64(ctl.warmup).f64(ctl.measure).f64(ctl.bin_width);
  h.i64(ctl.traced_flow);
}

/// The FNV-1a state after every key byte that precedes the seed: the tag,
/// the fingerprint, and the derived ScenarioConfig and RunControl. The
/// config varies with the flow count only (its seed field is not hashed),
/// so one state serves every task of a (spec, flows, tag).
std::uint64_t key_prefix(const char* tag, const SweepSpec& spec, int flows) {
  PointSpec probe;
  probe.flows = flows;
  Fnv1a h;
  h.str(tag);
  h.i64(kPointCacheSchema);
  h.str(__VERSION__);  // compiler change may legally perturb FP results
  h.i64(static_cast<std::int64_t>(spec.scenario));
  h.i64(static_cast<std::int64_t>(spec.queue));
  hash_scenario(h, spec.make_scenario(probe));
  hash_control(h, spec.control);
  return h.value();
}

// The seed and the axes come last, so a key resumes from its prefix.
std::uint64_t point_suffix(std::uint64_t prefix, const PointSpec& point,
                           std::uint64_t seed) {
  Fnv1a h(prefix);
  h.u64(seed);
  h.i64(point.flows).f64(point.textent).f64(point.rattack);
  h.f64(point.gamma).f64(point.kappa).i64(point.replicate);
  return h.value();
}

std::uint64_t baseline_suffix(std::uint64_t prefix, const PointSpec& probe,
                              std::uint64_t seed) {
  Fnv1a h(prefix);
  h.u64(seed);
  // Only the axes the baseline run depends on; textent/rattack/gamma vary
  // freely across the points this baseline normalizes.
  h.i64(probe.flows).i64(probe.replicate);
  return h.value();
}

}  // namespace

std::uint64_t scenario_digest(const char* tag, const ScenarioConfig& config,
                              const RunControl& control, const double* extra,
                              std::size_t n_extra) {
  Fnv1a h;
  h.str(tag);
  h.i64(kPointCacheSchema);
  h.str(__VERSION__);
  hash_scenario(h, config);
  hash_control(h, control);
  for (std::size_t i = 0; i < n_extra; ++i) h.f64(extra[i]);
  return h.value();
}

std::uint64_t point_key(const SweepSpec& spec, const PointSpec& point,
                        std::uint64_t seed) {
  return point_suffix(key_prefix("point", spec, point.flows), point, seed);
}

std::uint64_t baseline_key(const SweepSpec& spec, const PointSpec& probe,
                           std::uint64_t seed) {
  return baseline_suffix(key_prefix("baseline", spec, probe.flows), probe,
                         seed);
}

TaskKeys::TaskKeys(const SweepSpec& spec) {
  std::vector<int> flows = spec.flow_counts;
  if (!spec.explicit_points.empty()) {
    flows.clear();
    for (const PointSpec& point : spec.explicit_points) {
      flows.push_back(point.flows);
    }
  }
  std::sort(flows.begin(), flows.end());
  flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
  for (int n : flows) {
    prefixes_.push_back(Prefix{n, key_prefix("point", spec, n),
                               key_prefix("baseline", spec, n)});
  }
}

const TaskKeys::Prefix& TaskKeys::prefix_of(int flows) const {
  const auto it = std::lower_bound(
      prefixes_.begin(), prefixes_.end(), flows,
      [](const Prefix& p, int n) { return p.flows < n; });
  PDOS_CHECK_MSG(it != prefixes_.end() && it->flows == flows,
                 "TaskKeys: flow count outside the spec");
  return *it;
}

std::uint64_t TaskKeys::point(const PointSpec& point,
                              std::uint64_t seed) const {
  return point_suffix(prefix_of(point.flows).point, point, seed);
}

std::uint64_t TaskKeys::baseline(const PointSpec& probe,
                                 std::uint64_t seed) const {
  return baseline_suffix(prefix_of(probe.flows).baseline, probe, seed);
}

}  // namespace pdos::sweep
