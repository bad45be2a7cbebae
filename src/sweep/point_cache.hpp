// Content-addressed keys and the result-store interface for sweep points.
//
// A sweep point is a pure function of (scenario config, attack axes, seed):
// re-running a campaign recomputes work whose inputs have not changed. Every
// completed point (and every baseline run) is keyed by an FNV-1a digest of
// the canonicalized inputs plus a schema/compiler fingerprint, and its
// measured outputs are kept in a `PointStore`. `run_sweep` consults the
// store before dispatching a point and stores after completing one, so an
// interrupted or repeated campaign replays as hits (`pdos_sweep --resume`).
//
// The key covers every *parameter* that shapes the simulation, plus the
// compiler version. It cannot see code changes that alter simulation
// semantics at equal parameters — bump kPointCacheSchema when making one,
// or delete the store directory.
//
// The one file-backed store is `CampaignStore` (sweep/campaign_store.hpp):
// a directory of hash-sharded, flock'd, append-only segment files with
// lease records for multi-process work claiming. `pdos_sweep --resume`,
// `pdos_sweep --campaign DIR`, `store =` and `pdos_campaign` all address
// it with the same keys, so a resumed sweep and a campaign share results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sweep/sweep.hpp"

namespace pdos::sweep {

/// Bump on any change to the record layout OR to simulation semantics that
/// changes outputs at identical parameters.
/// Schema 2: the key covers the simulation tier (ScenarioConfig::backend
/// and the fluid tuning knobs), so points computed on different backends
/// never alias.
/// Schema 3: the vectorized fluid tier (DESIGN.md §16) moved the solver's
/// cross-class reductions onto a fixed-shape block tree — every fluid
/// result shifts at ULP level at identical parameters, so schema-2 fluid
/// records must not replay. Retired config fields keep their key slots as
/// constants, so schema-3 keys outlive the fields.
inline constexpr int kPointCacheSchema = 3;

/// The measured (and analytic) outputs of one completed point — every
/// PointResult field the CSV/JSON writers derive from a run.
struct CachedPoint {
  double c_psi = 0.0;
  double analytic_degradation = 0.0;
  double analytic_gain = 0.0;
  bool shrew = false;
  double baseline_goodput = 0.0;
  double goodput = 0.0;
  double measured_degradation = 0.0;
  double measured_gain = 0.0;
  double utilization = 0.0;
  double fairness = 0.0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t attack_packets = 0;
  std::uint64_t events = 0;
};

/// Digest of (point axes + derived ScenarioConfig + seed + control +
/// fingerprint) for an attack point of `spec`. Builds the point's scenario
/// on every call; a caller keying many tasks of one spec uses TaskKeys.
std::uint64_t point_key(const SweepSpec& spec, const PointSpec& point,
                        std::uint64_t seed);

/// Digest for the no-attack baseline of a (flows, replicate) pair.
std::uint64_t baseline_key(const SweepSpec& spec, const PointSpec& probe,
                           std::uint64_t seed);

/// The task keys of one spec, bit-identical to point_key/baseline_key.
/// Every key byte before the seed (tag, fingerprint, scenario and queue
/// kinds, derived ScenarioConfig, RunControl) depends on the spec and the
/// flow count only, so the constructor hashes that prefix once per flow
/// count and tag, and each key resumes from it with the seed and the axes:
/// no scenario is rebuilt per key. Immutable, so threads share one.
class TaskKeys {
 public:
  /// Hashes the prefixes of every flow count `spec` can enumerate: its
  /// `flow_counts`, or the flows of its `explicit_points`. Builds one
  /// scenario per flow count, so `spec` must have passed validate() (every
  /// caller enumerates it first): a flow count below 1 is not a scenario.
  explicit TaskKeys(const SweepSpec& spec);

  /// point_key(spec, point, seed); `point.flows` must be one of the spec's.
  std::uint64_t point(const PointSpec& point, std::uint64_t seed) const;
  /// baseline_key(spec, probe, seed); `probe.flows` likewise.
  std::uint64_t baseline(const PointSpec& probe, std::uint64_t seed) const;

 private:
  struct Prefix {
    int flows;
    std::uint64_t point;     // FNV-1a state after the "point" prefix
    std::uint64_t baseline;  // ... after the "baseline" prefix
  };
  const Prefix& prefix_of(int flows) const;

  std::vector<Prefix> prefixes_;  // sorted by flows
};

/// Digest of (tag + schema/compiler fingerprint + full ScenarioConfig +
/// RunControl + `extra` doubles, in order). The key core of the fluid
/// surrogate-gain cache (sweep/optimizer_cache.hpp), exposed here so every
/// store key shares one hash discipline (and one schema bump). No seed
/// parameter on purpose: the callers cache fluid-tier results, which are
/// seed-invariant.
std::uint64_t scenario_digest(const char* tag, const ScenarioConfig& config,
                              const RunControl& control, const double* extra,
                              std::size_t n_extra);

/// Copy a stored result into a result row and mark it kOk: the one copier
/// behind run_sweep's hits and the campaign merge replay.
void fill_cached_point(PointResult& slot, const CachedPoint& hit);

/// What the sweep engine needs from a result store. `CampaignStore` is the
/// file-backed implementation, with multi-process work claiming on a
/// sharded directory. All methods are thread-safe.
class PointStore {
 public:
  virtual ~PointStore() = default;

  virtual bool lookup_point(std::uint64_t key, CachedPoint& out) const = 0;
  virtual bool lookup_baseline(std::uint64_t key, double& goodput) const = 0;
  virtual void store_point(std::uint64_t key, const CachedPoint& value) = 0;
  virtual void store_baseline(std::uint64_t key, double goodput) = 0;
  virtual std::size_t size() const = 0;

  /// Work claiming for cooperating processes. A worker claims a task key
  /// before simulating it; the default (single-process) implementation
  /// always acquires, so a non-claiming store runs every miss itself.
  ///   kAcquired — this process owns the task and must simulate it (and
  ///               then store the result, which supersedes the claim).
  ///   kBusy     — another live process holds a lease; defer the task and
  ///               poll for its result (or for lease expiry).
  ///   kDone     — the result appeared in the store since the lookup miss;
  ///               re-lookup instead of simulating.
  enum class ClaimStatus { kAcquired, kBusy, kDone };
  virtual ClaimStatus claim_point(std::uint64_t key) {
    (void)key;
    return ClaimStatus::kAcquired;
  }
  virtual ClaimStatus claim_baseline(std::uint64_t key) {
    (void)key;
    return ClaimStatus::kAcquired;
  }
  /// Give up a claim without a result (simulation failed): lets another
  /// worker retry immediately instead of waiting out the lease.
  virtual void release_point(std::uint64_t key) { (void)key; }
  virtual void release_baseline(std::uint64_t key) { (void)key; }

  /// Pick up records appended by other processes since the last scan.
  /// No-op for single-process stores.
  virtual void refresh() {}
};

}  // namespace pdos::sweep
