// In-memory span recorder and the arithmetic the benchmark reports from it.
//
// A span is one interval of work at a layer boundary: a name ("layer.what",
// the layer being the text before the first dot), a start and end on the
// monotonic clock, and the span that contains it. All spans of one
// benchmark run share the run id. Spans are recorded by the benchmark's
// own code around its calls into the library (see hooks.hpp), kept in
// memory, and written out once the run ends.
//
// Parallel work is modelled by lanes: a region that runs on T threads gets
// T lane spans covering the region, and every span inside a lane carries
// weight 1/T — the share of the region's wall time one lane stands for.
// Self time is a span's duration minus the part of it that its children
// cover; weighting self times by lane share makes the self times of a
// correctly nested tree add up to the root's wall time exactly, which is
// what `accounted_fraction` checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds (steady_clock on Linux), comparable
/// across the processes of one host.
std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index in the same span list; -1 = root
  double weight = 1.0;       // lane share of the wall time (1/T per lane)
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name);

/// Thread-safe append-only span list.
class Tracer {
 public:
  explicit Tracer(std::uint64_t run_id) : run_id_(run_id) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Record a finished span; returns its index.
  std::int64_t add(Span span);
  /// Record a span whose end is not known yet (end = start until `close`).
  std::int64_t open(std::string name, std::int64_t parent,
                    double weight = 1.0);
  void close(std::int64_t index);
  /// Append spans recorded elsewhere (another process), re-basing their
  /// parent indices; roots of `spans` get `parent`. Returns the index the
  /// first appended span received.
  std::int64_t splice(const std::vector<Span>& spans, std::int64_t parent);

  std::vector<Span> spans() const;
  Span get(std::int64_t index) const;
  std::uint64_t run_id() const { return run_id_; }

 private:
  std::uint64_t run_id_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>>
                              intervals,
                          std::int64_t lo, std::int64_t hi);

/// Self time of every span, in ns: duration minus the union of its
/// children's intervals (clipped to the span).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Weighted self time summed per layer, in seconds, over the subtree of
/// `root` (every span when root < 0).
std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans, std::int64_t root = -1);

/// Σ weighted self time of `root`'s subtree / (root duration × root
/// weight). 1.0 for a correctly nested tree.
double accounted_fraction(const std::vector<Span>& spans, std::int64_t root);

/// Nesting violations, one message each: a child that starts before or ends
/// after its parent, an end before a start, a parent index out of range or
/// not earlier in the list, or two overlapping siblings that share their
/// parent's lane (siblings of lower weight are parallel lanes and may
/// overlap). Empty for a well-formed tree.
std::vector<std::string> nesting_errors(const std::vector<Span>& spans);

/// Durations in seconds of every span named `name`.
std::vector<double> durations_of(const std::vector<Span>& spans,
                                 const std::string& name);

/// Occupancy of the lanes named `lane` (children of spans named `region`):
/// the busy share Σ(covered lane time) / Σ(lane time), and the tail — per
/// region, the time from the first lane's last child ending to the last
/// lane's, summed over regions (a lane with no children ends at its start).
struct LaneStats {
  double busy_fraction = 0.0;
  double tail_seconds = 0.0;
};
LaneStats lane_stats(const std::vector<Span>& spans, const std::string& region,
                     const std::string& lane);

/// Serialize spans as one tab-separated line each (name, start, end,
/// parent, weight), and back; the run id heads the text.
std::string format_spans(std::uint64_t run_id, const std::vector<Span>& spans);
bool parse_spans(const std::string& text, std::uint64_t& run_id,
                 std::vector<Span>& spans);

/// FNV-1a/64, the digest tests/sweep/golden_output_test.cpp pins CSVs with.
std::uint64_t fnv1a64(const std::string& text);

/// Median (mean of the middle pair for even sizes); 0 for an empty list.
double median(std::vector<double> values);

}  // namespace perfbench
