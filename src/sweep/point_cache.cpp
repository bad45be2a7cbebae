#include "sweep/point_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace pdos::sweep {

namespace {

/// FNV-1a over the canonical byte encoding of the inputs. Doubles hash by
/// bit pattern: two configs hash alike iff every parameter is bit-equal,
/// which matches the simulator's bit-exact determinism contract.
class Fnv1a {
 public:
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
  // "result" means, so full/fast/fluid/hybrid points must never alias in a
  // --resume replay.
  h.i64(static_cast<std::int64_t>(c.backend));
  h.i64(c.fast_path ? 1 : 0);
  h.i64(c.hybrid_foreground).f64(c.hybrid_tick);
  h.f64(c.fluid_dt_pulse).f64(c.fluid_dt_idle);
  // The store BACKING (single file vs sharded campaign directory) and the
  // worker process count are not spec fields at all: the same keys address
  // both stores, which is what lets K campaign processes dedup against
  // each other and against past single-process sweeps.
}

void hash_control(Fnv1a& h, const RunControl& ctl) {
  h.f64(ctl.warmup).f64(ctl.measure).f64(ctl.bin_width);
  h.i64(ctl.traced_flow);
}

/// Everything that parameterizes a sweep run: the derived ScenarioConfig,
/// the measurement windows, and the build fingerprint.
void hash_common(Fnv1a& h, const SweepSpec& spec, const ScenarioConfig& c,
                 std::uint64_t seed) {
  h.i64(kPointCacheSchema);
  h.str(__VERSION__);  // compiler change may legally perturb FP results
  h.i64(static_cast<std::int64_t>(spec.scenario));
  h.i64(static_cast<std::int64_t>(spec.queue));
  hash_scenario(h, c);
  hash_control(h, spec.control);
  h.u64(seed);
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
  Fnv1a h;
  h.str("point");
  hash_common(h, spec, spec.make_scenario(point), seed);
  h.i64(point.flows).f64(point.textent).f64(point.rattack);
  h.f64(point.gamma).f64(point.kappa).i64(point.replicate);
  return h.value();
}

std::uint64_t baseline_key(const SweepSpec& spec, const PointSpec& probe,
                           std::uint64_t seed) {
  Fnv1a h;
  h.str("baseline");
  hash_common(h, spec, spec.make_scenario(probe), seed);
  // Only the axes the baseline run depends on; textent/rattack/gamma vary
  // freely across the points this baseline normalizes.
  h.i64(probe.flows).i64(probe.replicate);
  return h.value();
}

std::string format_point_record(std::uint64_t key, const CachedPoint& v) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "P %016" PRIx64
      " %.17g %.17g %.17g %d %.17g %.17g %.17g %.17g %.17g %.17g %" PRIu64
      " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
      key, v.c_psi, v.analytic_degradation, v.analytic_gain, v.shrew ? 1 : 0,
      v.baseline_goodput, v.goodput, v.measured_degradation, v.measured_gain,
      v.utilization, v.fairness, v.timeouts, v.fast_recoveries,
      v.attack_packets, v.events);
  return buf;
}

std::string format_baseline_record(std::uint64_t key, double goodput) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "B %016" PRIx64 " %.17g\n", key, goodput);
  return buf;
}

bool parse_point_record(const char* text, std::uint64_t& key, CachedPoint& v) {
  int shrew = 0;
  const int n = std::sscanf(
      text,
      "%" SCNx64 " %lg %lg %lg %d %lg %lg %lg %lg %lg %lg %" SCNu64
      " %" SCNu64 " %" SCNu64 " %" SCNu64,
      &key, &v.c_psi, &v.analytic_degradation, &v.analytic_gain, &shrew,
      &v.baseline_goodput, &v.goodput, &v.measured_degradation,
      &v.measured_gain, &v.utilization, &v.fairness, &v.timeouts,
      &v.fast_recoveries, &v.attack_packets, &v.events);
  v.shrew = shrew != 0;
  return n == 15;
}

bool parse_baseline_record(const char* text, std::uint64_t& key,
                           double& goodput) {
  return std::sscanf(text, "%" SCNx64 " %lg", &key, &goodput) == 2;
}

namespace {

constexpr char kHeader[] = "pdos-point-cache-v1";

}  // namespace

PointCache::PointCache(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  if (!in) return;  // no cache yet: start empty
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    // Foreign or pre-v1 file: ignore it and rewrite from scratch on the
    // first append (appending records after a bad header would make them
    // invisible to the next load).
    rewrite_ = true;
    return;
  }
  while (std::getline(in, line)) {
    if (line.size() < 2 || line[1] != ' ') continue;
    std::uint64_t key = 0;
    if (line[0] == 'P') {
      CachedPoint value;
      if (parse_point_record(line.c_str() + 2, key, value)) {
        points_[key] = value;
      }
    } else if (line[0] == 'B') {
      double goodput = 0.0;
      if (parse_baseline_record(line.c_str() + 2, key, goodput)) {
        baselines_[key] = goodput;
      }
    }
    // Unknown record kinds and malformed lines are skipped, not fatal.
  }
}

PointCache::~PointCache() {
  if (fd_ >= 0) ::close(fd_);
}

bool PointCache::lookup_point(std::uint64_t key, CachedPoint& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(key);
  if (it == points_.end()) return false;
  out = it->second;
  return true;
}

bool PointCache::lookup_baseline(std::uint64_t key, double& goodput) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = baselines_.find(key);
  if (it == baselines_.end()) return false;
  goodput = it->second;
  return true;
}

void PointCache::store_point(std::uint64_t key, const CachedPoint& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!points_.emplace(key, value).second) return;  // already recorded
  append(format_point_record(key, value));
}

void PointCache::store_baseline(std::uint64_t key, double goodput) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!baselines_.emplace(key, goodput).second) return;
  append(format_baseline_record(key, goodput));
}

std::size_t PointCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return points_.size() + baselines_.size();
}

void PointCache::append(const std::string& line) {
  if (fd_ < 0) {
    const std::filesystem::path parent =
        std::filesystem::path(path_).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);  // best effort
    }
    int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
    if (rewrite_) flags |= O_TRUNC;  // foreign header: start over
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0) return;  // unwritable cache degrades to in-memory only
    rewrite_ = false;
  }
  // Advisory lock so a concurrent process appending to the same file
  // cannot interleave with this record (or with the header we may need to
  // write first). O_APPEND makes each write(2) land atomically at the
  // current end even without the lock; the lock closes the header race and
  // keeps the header-check + write pair atomic.
  ::flock(fd_, LOCK_EX);
  struct stat st;
  std::string out;
  if (::fstat(fd_, &st) == 0 && st.st_size == 0) {
    out = std::string(kHeader) + "\n";
  }
  out += line;
  const char* data = out.data();
  std::size_t left = out.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n <= 0) break;  // disk full etc.: degrade, records stay in memory
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  ::flock(fd_, LOCK_UN);
}

}  // namespace pdos::sweep
