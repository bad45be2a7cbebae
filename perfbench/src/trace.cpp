#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::int64_t Tracer::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::open(std::string name, std::int64_t parent,
                          double weight) {
  const std::int64_t t = now_ns();
  return add(Span{std::move(name), t, t, parent, weight});
}

void Tracer::close(std::int64_t index) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::int64_t Tracer::splice(const std::vector<Span>& spans,
                            std::int64_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t base = static_cast<std::int64_t>(spans_.size());
  for (Span span : spans) {
    span.parent = span.parent < 0 ? parent : span.parent + base;
    spans_.push_back(std::move(span));
  }
  return base;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Span Tracer::get(std::int64_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_[static_cast<std::size_t>(index)];
}

std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b <= a) continue;
    total += b - a;
    cursor = b;
  }
  return total;
}

namespace {

std::vector<std::vector<std::size_t>> children_of(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  return children;
}

/// `root` and every span below it (every span when root < 0).
std::vector<std::size_t> subtree(const std::vector<Span>& spans,
                                 std::int64_t root) {
  std::vector<std::size_t> out;
  if (root < 0) {
    for (std::size_t i = 0; i < spans.size(); ++i) out.push_back(i);
    return out;
  }
  const auto children = children_of(spans);
  std::vector<std::size_t> stack{static_cast<std::size_t>(root)};
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    out.push_back(i);
    for (std::size_t c : children[i]) stack.push_back(c);
  }
  return out;
}

}  // namespace

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  const auto children = children_of(spans);
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    covered.reserve(children[i].size());
    for (std::size_t c : children[i]) {
      covered.emplace_back(spans[c].start_ns, spans[c].end_ns);
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) -
              union_length(std::move(covered), spans[i].start_ns,
                           spans[i].end_ns);
  }
  return self;
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans, std::int64_t root) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, double> layers;
  for (std::size_t i : subtree(spans, root)) {
    layers[layer_of(spans[i].name)] +=
        static_cast<double>(self[i]) * 1e-9 * spans[i].weight;
  }
  return layers;
}

double accounted_fraction(const std::vector<Span>& spans, std::int64_t root) {
  const Span& r = spans[static_cast<std::size_t>(root)];
  const double wall = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  if (wall <= 0.0) return 0.0;
  double total = 0.0;
  for (const auto& [layer, seconds] : layer_self_seconds(spans, root)) {
    total += seconds;
  }
  return total / (wall * r.weight);
}

std::vector<double> durations_of(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

LaneStats lane_stats(const std::vector<Span>& spans, const std::string& region,
                     const std::string& lane) {
  const auto children = children_of(spans);
  const std::vector<std::int64_t> self = self_times(spans);
  std::int64_t lane_total = 0;
  std::int64_t lane_idle = 0;
  LaneStats stats;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    if (spans[r].name != region) continue;
    std::int64_t first_done = 0;
    std::int64_t last_done = 0;
    bool any = false;
    for (std::size_t l : children[r]) {
      if (spans[l].name != lane) continue;
      lane_total += spans[l].end_ns - spans[l].start_ns;
      lane_idle += self[l];
      std::int64_t done = spans[l].start_ns;
      for (std::size_t c : children[l]) done = std::max(done, spans[c].end_ns);
      first_done = any ? std::min(first_done, done) : done;
      last_done = any ? std::max(last_done, done) : done;
      any = true;
    }
    stats.tail_seconds += static_cast<double>(last_done - first_done) * 1e-9;
  }
  if (lane_total > 0) {
    stats.busy_fraction = static_cast<double>(lane_total - lane_idle) /
                          static_cast<double>(lane_total);
  }
  return stats;
}

std::vector<std::string> nesting_errors(const std::vector<Span>& spans) {
  std::vector<std::string> errors;
  const auto describe = [&](std::size_t i) {
    return spans[i].name + "#" + std::to_string(i);
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) errors.push_back(describe(i) + " ends early");
    if (s.parent < 0) continue;
    if (s.parent >= static_cast<std::int64_t>(i)) {
      errors.push_back(describe(i) + " has a parent recorded after it");
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      errors.push_back(describe(i) + " escapes its parent " +
                       describe(static_cast<std::size_t>(s.parent)));
    }
  }
  const auto children = children_of(spans);
  for (std::size_t p = 0; p < spans.size(); ++p) {
    std::vector<std::size_t> serial;  // children on the parent's own lane
    for (std::size_t c : children[p]) {
      if (spans[c].weight >= spans[p].weight) serial.push_back(c);
    }
    std::sort(serial.begin(), serial.end(), [&](std::size_t a, std::size_t b) {
      return std::pair(spans[a].start_ns, spans[a].end_ns) <
             std::pair(spans[b].start_ns, spans[b].end_ns);
    });
    for (std::size_t k = 1; k < serial.size(); ++k) {
      if (spans[serial[k]].start_ns < spans[serial[k - 1]].end_ns) {
        errors.push_back(describe(serial[k]) + " overlaps its sibling " +
                         describe(serial[k - 1]));
      }
    }
  }
  return errors;
}

std::string format_spans(std::uint64_t run_id,
                         const std::vector<Span>& spans) {
  std::string out = "run " + std::to_string(run_id) + "\n";
  char buf[160];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf), "\t%lld\t%lld\t%lld\t%.17g\n",
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<long long>(s.parent), s.weight);
    out += s.name;
    out += buf;
  }
  return out;
}

bool parse_spans(const std::string& text, std::uint64_t& run_id,
                 std::vector<Span>& spans) {
  std::istringstream in(text);
  std::string line;
  unsigned long long id = 0;
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "run %llu", &id) != 1) {
    return false;
  }
  run_id = id;
  spans.clear();
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos || tab == 0) return false;
    Span s;
    s.name = line.substr(0, tab);
    long long start = 0, end = 0, parent = 0;
    if (std::sscanf(line.c_str() + tab, "\t%lld\t%lld\t%lld\t%lf", &start,
                    &end, &parent, &s.weight) != 4) {
      return false;
    }
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    spans.push_back(std::move(s));
  }
  return true;
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
