// Correctness checks the benchmark applies to every run's outputs, and the
// result-table digests it pins at the recorded seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

/// Tally of checks made and failed; the first few failure messages are
/// kept for the report.
class CheckLog {
 public:
  /// Count one check; returns `ok`.
  bool check(bool ok, const std::string& what);
  /// Count `attempted` row-level checks of which `failed` failed.
  void count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Rows of `result` that are not kOk (failed or skipped), plus one when the
/// sweep reports itself cancelled.
std::uint64_t bad_rows(const pdos::sweep::SweepResult& result);

/// Check one sweep result table: every row ok and, when `expected_rows` is
/// non-zero, the table full-size. Counts each row as one check.
void check_table(CheckLog& log, const pdos::sweep::SweepResult& result,
                 std::size_t expected_rows, const std::string& label);

/// The table's CSV text, as pdos_sweep writes it.
std::string csv_of(const pdos::sweep::SweepResult& result);

/// One γ* search and its result, for the search table.
struct SearchRecord {
  int flows = 0;
  double textent_ms = 0.0;
  double rattack_mbps = 0.0;
  pdos::GammaSearchResult result;
};

/// The γ* search result table as CSV text (%.17g doubles), the text the
/// gamma_search digest covers.
std::string search_table(const std::vector<SearchRecord>& searches);

/// Structural invariants of one search_confirm_gamma result: the packet
/// and fluid run counts the search promises, a winner among the confirmed
/// candidates, and a finite positive gain. Empty when they hold.
std::vector<std::string> search_violations(const pdos::GammaSearch& search,
                                           const pdos::GammaSearchResult& r);

/// Mean |G_fluid − G_packet| over confirmed candidates, and the share of
/// searches whose fluid argmax is the confirmed γ*.
double fluid_gain_error(const std::vector<SearchRecord>& searches);
double gamma_star_match(const std::vector<SearchRecord>& searches);

/// "0x" + 16 hex digits.
std::string hex64(std::uint64_t value);

}  // namespace perfbench
