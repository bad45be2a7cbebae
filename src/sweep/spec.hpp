// key=value spec files for sweep campaigns.
//
// The format is one `key = value` pair per line, `#` comments, commas for
// lists — small enough to write by hand, rich enough to express the paper
// grid:
//
//   # full Figs. 6-9 grid
//   scenario     = ns2          # ns2 | testbed
//   queue        = red          # red | droptail
//   backend      = full         # full | fast | fluid (tier, see
//                               # DESIGN.md §12; default full)
//   flows        = 15,25,35,45
//   textent_ms   = 50,75,100
//   rattack_mbps = 25,30,35,40
//   gamma        = auto         # or a comma list, e.g. 0.2,0.4,0.6
//   gamma_points = 7            # auto-grid resolution
//   kappa        = 1.0
//   replicates   = 1
//   base_seed    = 1
//   warmup_s     = 5
//   measure_s    = 15
//   threads      = 0            # 0 = all hardware threads
//   csv          = sweep.csv    # optional output paths
//   json         = sweep.json
//   store        = campaign.d   # optional result store directory (the
//                               # CampaignStore that --resume also uses)
//
// Unknown keys are an error (they are always typos, or retired keys such
// as `cache`, whose single-file store is gone, or the deleted hybrid
// tier's foreground count). Integer keys (flows, replicates, gamma_points,
// threads, base_seed) take exact base-10 integers: `4.7` or an
// out-of-range value is an error. The other numeric keys take finite
// numbers: `measure_s = inf` and `kappa = nan` are errors, not unbounded
// or undefined runs. The whole spec is validated at parse time
// (SweepSpec::validate), so a spec no point could run, such as
// `measure_s = 0`, fails here, naming the field, before anything runs.
#pragma once

#include <charconv>
#include <limits>
#include <string>
#include <vector>

#include "sweep/sweep.hpp"
#include "util/assert.hpp"

namespace pdos::sweep {

struct SpecFile {
  SweepSpec spec;
  SweepOptions options;
  std::string csv_path;   // empty: write CSV to stdout
  std::string json_path;  // empty: no JSON output
  /// `store =`: CampaignStore directory to keep results in. The caller
  /// (pdos_sweep/pdos_campaign) owns the store object; this is just the
  /// parsed path.
  std::string store_dir;
};

/// Exact numeric parsing, shared by the spec keys and the CLI flags. The
/// whole of `value` must parse, and to a finite number (`inf` and `nan`
/// are errors); `what` names the field in the ParameterError
/// ("spec line 3: replicates", "--workers").
double parse_double(const std::string& what, const std::string& value);

/// An integer field: the whole value must be a base-10 integer in
/// [min, max of Int]. "4.7", "1e3", and out-of-range values are rejected,
/// never truncated or rounded through a double.
template <typename Int = int>
Int parse_int(const std::string& what, const std::string& value, Int min) {
  Int parsed{};
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  PDOS_REQUIRE(error == std::errc() && stop == end && parsed >= min,
               what + " must be an integer in [" + std::to_string(min) +
                   ", " + std::to_string(std::numeric_limits<Int>::max()) +
                   "], got '" + value + "'");
  return parsed;
}

/// The CLIs redraw their human progress line at most this often (seconds),
/// plus once for the final done == total report: a line per task would
/// write hundreds of kilobytes to stderr on an all-hit resume.
inline constexpr double kProgressRedrawSeconds = 0.1;

/// Parse spec text (the file contents). Throws ParameterError with a
/// line-numbered message on malformed input.
SpecFile parse_spec(const std::string& text);

/// Read and parse a spec file from disk.
SpecFile load_spec_file(const std::string& path);

/// `spec.enumerate()`, but a grid of no points is a spec error (every γ
/// fell outside (0, min(1, C_attack))), not an empty result table: throws
/// ParameterError. The CLIs call this before running anything.
std::vector<PointSpec> enumerate_nonempty(const SweepSpec& spec);

}  // namespace pdos::sweep
