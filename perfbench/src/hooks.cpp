#include "hooks.hpp"

#include <algorithm>

namespace perfbench {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

TracingStore::Effect TracingStore::claim_effect(ClaimStatus status) {
  switch (status) {
    case ClaimStatus::kAcquired:
      return Effect::kGranted;
    case ClaimStatus::kBusy:
      return Effect::kSettled;  // deferred to the drain pass
    case ClaimStatus::kDone:
      break;  // a lookup follows and settles the key
  }
  return Effect::kNone;
}

void TracingStore::begin_sweep(std::int64_t sweep_span,
                               const char* point_compute,
                               const char* baseline_compute) {
  std::lock_guard<std::mutex> lock(mutex_);
  sweep_span_ = sweep_span;
  point_compute_ = point_compute;
  baseline_compute_ = baseline_compute;
  threads_.clear();
  tasks_.clear();
  records_.clear();
}

void TracingStore::end_sweep(int threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span sweep = tracer_.get(sweep_span_);
  const std::size_t lanes = static_cast<std::size_t>(std::max(1, threads));
  const double weight = sweep.weight / static_cast<double>(lanes);
  std::vector<std::int64_t> lane_span(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    lane_span[k] = tracer_.add(
        Span{"sweep.lane", sweep.start_ns, sweep.end_ns, sweep_span_, weight});
  }
  std::vector<std::int64_t> task_span(tasks_.size());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    // A task that settled its keys without simulating replayed them.
    task_span[t] = tracer_.add(Span{tasks_[t].computed ? "sweep.task"
                                                       : "sweep.replay",
                                    tasks_[t].start_ns,
                                    tasks_[t].end_ns,
                                    lane_span[tasks_[t].lane % lanes], weight});
  }
  for (const Record& r : records_) {
    const std::int64_t parent =
        r.task != kNone ? task_span[r.task] : lane_span[r.lane % lanes];
    tracer_.add(Span{r.name, r.start_ns, r.end_ns, parent, weight});
  }
  threads_.clear();
  tasks_.clear();
  records_.clear();
  sweep_span_ = -1;
}

void TracingStore::record(Kind kind, const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, Effect effect) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sweep_span_ < 0) return;  // a call outside begin/end_sweep
  auto [it, fresh] = threads_.try_emplace(std::this_thread::get_id());
  ThreadState& st = it->second;
  if (fresh) {
    // Threads in order of first call; end_sweep folds them onto the pool's
    // lanes (run_sweep's drain pass runs on the calling thread, after the
    // pool's tasks).
    st.lane = threads_.size() - 1;
    st.last_end_ns = start_ns;
  }
  const auto close_task = [&] {
    if (st.task != kNone) tasks_[st.task].end_ns = st.last_end_ns;
    st.task = kNone;
  };
  if (kind == Kind::kRefresh) {
    close_task();
    records_.push_back(Record{name, start_ns, end_ns, kNone, st.lane});
    st.last_end_ns = end_ns;
    return;
  }
  const bool append =
      kind == Kind::kPointAppend || kind == Kind::kBaselineAppend;
  if (st.task == kNone) {
    const std::int64_t open = append ? st.last_end_ns : start_ns;
    tasks_.push_back(Task{st.lane, open, open, false});
    st.task = tasks_.size() - 1;
  }
  if (append) {
    // The task computed between its previous store call and this append.
    records_.push_back(Record{kind == Kind::kPointAppend ? point_compute_
                                                         : baseline_compute_,
                              st.last_end_ns, start_ns, st.task, st.lane});
    tasks_[st.task].computed = true;
  }
  records_.push_back(Record{name, start_ns, end_ns, st.task, st.lane});
  tasks_[st.task].end_ns = end_ns;
  st.last_end_ns = end_ns;
  if (effect == Effect::kGranted) ++st.pending;
  if (effect == Effect::kSettled) {
    if ((append || kind == Kind::kRelease) && st.pending > 0) --st.pending;
    if (st.pending == 0) close_task();
  }
}

bool TracingStore::lookup_point(std::uint64_t key,
                                pdos::sweep::CachedPoint& out) const {
  const std::int64_t t0 = now_ns();
  const bool hit = inner_.lookup_point(key, out);
  record(Kind::kLookup, "store.lookup", t0, now_ns(),
         hit ? Effect::kSettled : Effect::kNone);
  return hit;
}

bool TracingStore::lookup_baseline(std::uint64_t key, double& goodput) const {
  const std::int64_t t0 = now_ns();
  const bool hit = inner_.lookup_baseline(key, goodput);
  record(Kind::kLookup, "store.lookup", t0, now_ns(),
         hit ? Effect::kSettled : Effect::kNone);
  return hit;
}

void TracingStore::store_point(std::uint64_t key,
                               const pdos::sweep::CachedPoint& value) {
  const std::int64_t t0 = now_ns();
  inner_.store_point(key, value);
  record(Kind::kPointAppend, "store.append", t0, now_ns(), Effect::kSettled);
}

void TracingStore::store_baseline(std::uint64_t key, double goodput) {
  const std::int64_t t0 = now_ns();
  inner_.store_baseline(key, goodput);
  record(Kind::kBaselineAppend, "store.append", t0, now_ns(),
         Effect::kSettled);
}

TracingStore::ClaimStatus TracingStore::claim_point(std::uint64_t key) {
  const std::int64_t t0 = now_ns();
  const ClaimStatus status = inner_.claim_point(key);
  record(Kind::kClaim, "store.claim", t0, now_ns(), claim_effect(status));
  if (status == ClaimStatus::kBusy) busy_claims_.fetch_add(1);
  return status;
}

TracingStore::ClaimStatus TracingStore::claim_baseline(std::uint64_t key) {
  const std::int64_t t0 = now_ns();
  const ClaimStatus status = inner_.claim_baseline(key);
  record(Kind::kClaim, "store.claim", t0, now_ns(), claim_effect(status));
  if (status == ClaimStatus::kBusy) busy_claims_.fetch_add(1);
  return status;
}

void TracingStore::release_point(std::uint64_t key) {
  const std::int64_t t0 = now_ns();
  inner_.release_point(key);
  record(Kind::kRelease, "store.release", t0, now_ns(), Effect::kSettled);
}

void TracingStore::release_baseline(std::uint64_t key) {
  const std::int64_t t0 = now_ns();
  inner_.release_baseline(key);
  record(Kind::kRelease, "store.release", t0, now_ns(), Effect::kSettled);
}

void TracingStore::refresh() {
  const std::int64_t t0 = now_ns();
  inner_.refresh();
  record(Kind::kRefresh, "store.refresh", t0, now_ns(), Effect::kNone);
}

std::optional<pdos::BitRate> TracingFluidCache::lookup_baseline(
    const pdos::GammaSearch&) {
  if (fluid_start_ns == 0) fluid_start_ns = now_ns();
  return std::nullopt;
}

void TracingFluidCache::store_gain(const pdos::GammaSearch&, double, double) {
  fluid_end_ns = now_ns();
}

void CampaignProgressSpans::operator()(
    const pdos::sweep::CampaignProgress& progress) {
  const std::int64_t t = now_ns();
  if (first_report_ns == 0) first_report_ns = t;
  if (all_done_ns == 0 && progress.total > 0 &&
      progress.done >= progress.total) {
    all_done_ns = t;
  }
}

}  // namespace perfbench
