// The three public hooks the traced runs record spans through:
//
//   - `TracingStore`, a pass-through `PointStore` decorator. run_sweep
//     calls the store on the worker thread around every task (lookup,
//     claim, then the append after the simulation), so the decorator sees
//     each task's store calls and, between the last call before an append
//     and the append, the task's compute. Wrapped around `NullStore` it
//     traces a sweep that has no cache.
//   - `TracingFluidCache`, a pass-through, always-miss `FluidGainCache`.
//     search_confirm_gamma calls it at the boundaries of its phases (packet
//     baseline, then the fluid phase, then the packet confirms).
//   - `CampaignProgressSpans`, an `on_progress` callback for run_campaign.
//
// Span names are "layer.what" with the repository's module names as layers
// (see README.md in this directory for the full list).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/optimizer.hpp"
#include "sweep/campaign.hpp"
#include "sweep/point_cache.hpp"
#include "trace.hpp"

namespace perfbench {

/// A store that holds nothing: every lookup misses, every claim is granted,
/// every result is dropped. What a sweep without a cache does, as a store.
class NullStore : public pdos::sweep::PointStore {
 public:
  bool lookup_point(std::uint64_t, pdos::sweep::CachedPoint&) const override {
    return false;
  }
  bool lookup_baseline(std::uint64_t, double&) const override {
    return false;
  }
  void store_point(std::uint64_t, const pdos::sweep::CachedPoint&) override {}
  void store_baseline(std::uint64_t, double) override {}
  std::size_t size() const override { return 0; }
};

/// Pass-through PointStore decorator that records a span per store call
/// and per task compute. One sweep at a time: `begin_sweep` before calling
/// run_sweep, `end_sweep` after it returns.
class TracingStore : public pdos::sweep::PointStore {
 public:
  /// Non-owning: `inner` and `tracer` must outlive the decorator.
  TracingStore(pdos::sweep::PointStore& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  /// `sweep_span` is the tracer index of the (open) span around the
  /// run_sweep call. Computes are named `point_compute` (attack points) and
  /// `baseline_compute` (baselines).
  void begin_sweep(std::int64_t sweep_span, const char* point_compute,
                   const char* baseline_compute);
  /// Emit one lane span per pool thread (`threads`, from SweepResult) under
  /// the sweep span, then every task, store-call and compute span recorded
  /// since `begin_sweep`. Call after closing the sweep span.
  void end_sweep(int threads);

  bool lookup_point(std::uint64_t key,
                    pdos::sweep::CachedPoint& out) const override;
  bool lookup_baseline(std::uint64_t key, double& goodput) const override;
  void store_point(std::uint64_t key,
                   const pdos::sweep::CachedPoint& value) override;
  void store_baseline(std::uint64_t key, double goodput) override;
  std::size_t size() const override { return inner_.size(); }
  ClaimStatus claim_point(std::uint64_t key) override;
  ClaimStatus claim_baseline(std::uint64_t key) override;
  void release_point(std::uint64_t key) override;
  void release_baseline(std::uint64_t key) override;
  void refresh() override;

  /// Claims answered kBusy (another process holds a live lease).
  std::uint64_t busy_claims() const { return busy_claims_.load(); }

 private:
  enum class Kind {
    kLookup,
    kClaim,
    kRelease,
    kPointAppend,
    kBaselineAppend,
    kRefresh
  };
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::size_t task;  // index into tasks_, or npos for lane-level records
    std::size_t lane;  // lane of lane-level records
  };
  struct Task {
    std::size_t lane;
    std::int64_t start_ns;
    std::int64_t end_ns;
    bool computed = false;  // stored a result it simulated
  };
  /// What a store call did to its thread's open task. A task is the store
  /// calls and computes of the keys one pool task settles: it opens at the
  /// first call after the previous task closed and closes once no granted
  /// claim is pending — after an append, a hit, a deferral or a release.
  enum class Effect { kNone, kGranted, kSettled };
  static Effect claim_effect(ClaimStatus status);

  struct ThreadState {
    std::size_t lane = 0;
    std::size_t task = static_cast<std::size_t>(-1);  // open task, or npos
    int pending = 0;  // claims granted and not yet stored or released
    std::int64_t last_end_ns = 0;
  };

  /// Record one store call that ran over [start, end] on this thread.
  void record(Kind kind, const char* name, std::int64_t start_ns,
              std::int64_t end_ns, Effect effect) const;

  pdos::sweep::PointStore& inner_;
  Tracer& tracer_;
  std::atomic<std::uint64_t> busy_claims_{0};

  mutable std::mutex mutex_;  // guards everything below
  std::int64_t sweep_span_ = -1;
  const char* point_compute_ = "";
  const char* baseline_compute_ = "";
  mutable std::unordered_map<std::thread::id, ThreadState> threads_;
  mutable std::vector<Task> tasks_;
  mutable std::vector<Record> records_;
};

/// Pass-through FluidGainCache that never hits: the search solves every
/// fluid lane, as it does with no cache, and the hook calls mark the
/// search's phase boundaries.
class TracingFluidCache : public pdos::FluidGainCache {
 public:
  std::optional<pdos::BitRate> lookup_baseline(
      const pdos::GammaSearch& search) override;
  void store_baseline(const pdos::GammaSearch&, pdos::BitRate) override {}
  std::optional<double> lookup_gain(const pdos::GammaSearch&,
                                    double) override {
    return std::nullopt;
  }
  void store_gain(const pdos::GammaSearch& search, double gamma,
                  double gain) override;

  /// First fluid-phase call (the fluid baseline lookup) and the last one
  /// (the last surrogate gain stored); 0 until seen.
  std::int64_t fluid_start_ns = 0;
  std::int64_t fluid_end_ns = 0;
};

/// on_progress callback for run_campaign: the times of the first worker
/// report and of the first report that shows every task done.
struct CampaignProgressSpans {
  std::int64_t first_report_ns = 0;
  std::int64_t all_done_ns = 0;

  void operator()(const pdos::sweep::CampaignProgress& progress);
};

}  // namespace perfbench
