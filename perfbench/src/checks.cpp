#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {
constexpr std::size_t kKeptMessages = 8;
}  // namespace

bool CheckLog::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
  return ok;
}

void CheckLog::count(std::uint64_t attempted, std::uint64_t failed,
                     const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && messages_.size() < kKeptMessages) {
    messages_.push_back(what + (failed > 1 ? " (x" + std::to_string(failed) +
                                                 ")"
                                           : std::string()));
  }
}

std::uint64_t bad_rows(const pdos::sweep::SweepResult& result) {
  std::uint64_t bad = result.cancelled ? 1 : 0;
  for (const pdos::sweep::PointResult& p : result.points) {
    if (p.status != pdos::sweep::PointStatus::kOk) ++bad;
  }
  return bad;
}

void check_table(CheckLog& log, const pdos::sweep::SweepResult& result,
                 std::size_t expected_rows, const std::string& label) {
  log.count(result.points.size(), bad_rows(result),
            label + ": failed or skipped rows");
  if (expected_rows != 0) {
    log.check(result.points.size() == expected_rows,
              label + ": table has " + std::to_string(result.points.size()) +
                  " rows, expected " + std::to_string(expected_rows));
  }
}

std::string csv_of(const pdos::sweep::SweepResult& result) {
  std::ostringstream out;
  result.write_csv(out);
  return out.str();
}

std::string search_table(const std::vector<SearchRecord>& searches) {
  std::string out =
      "flows,textent_ms,rattack_mbps,gamma_star,gain,degradation,"
      "gamma_star_fluid,baseline_goodput,fluid_baseline_goodput,"
      "packet_runs,fluid_runs\n";
  char buf[512];
  for (const SearchRecord& s : searches) {
    const pdos::GammaSearchResult& r = s.result;
    std::snprintf(buf, sizeof(buf),
                  "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d\n",
                  s.flows, s.textent_ms, s.rattack_mbps, r.gamma_star, r.gain,
                  r.degradation, r.gamma_star_fluid, r.baseline_goodput,
                  r.fluid_baseline_goodput, r.packet_runs, r.fluid_runs);
    out += buf;
  }
  return out;
}

std::vector<std::string> search_violations(const pdos::GammaSearch& search,
                                           const pdos::GammaSearchResult& r) {
  std::vector<std::string> bad;
  if (r.packet_runs != search.confirm_top + 1) {
    bad.push_back("packet_runs " + std::to_string(r.packet_runs) +
                  " != confirm_top + 1");
  }
  if (r.fluid_runs != search.grid_points + 1) {
    bad.push_back("fluid_runs " + std::to_string(r.fluid_runs) +
                  " != grid_points + 1");
  }
  if (static_cast<int>(r.candidates.size()) != search.grid_points) {
    bad.push_back("candidate count differs from grid_points");
  }
  bool winner_confirmed = false;
  for (const pdos::GammaCandidate& c : r.candidates) {
    if (c.confirmed && c.gamma == r.gamma_star) winner_confirmed = true;
  }
  if (!winner_confirmed) bad.push_back("gamma_star is not a confirmed point");
  if (!std::isfinite(r.gain) || r.gain <= 0.0) {
    bad.push_back("gain at gamma_star is not positive");
  }
  return bad;
}

double fluid_gain_error(const std::vector<SearchRecord>& searches) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const SearchRecord& s : searches) {
    for (const pdos::GammaCandidate& c : s.result.candidates) {
      if (!c.confirmed) continue;
      sum += std::abs(c.fluid_gain - c.packet_gain);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double gamma_star_match(const std::vector<SearchRecord>& searches) {
  if (searches.empty()) return 0.0;
  std::size_t match = 0;
  for (const SearchRecord& s : searches) {
    if (s.result.gamma_star_fluid == s.result.gamma_star) ++match;
  }
  return static_cast<double>(match) / static_cast<double>(searches.size());
}

std::string hex64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
