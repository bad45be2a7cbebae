// key=value spec files for sweep campaigns.
//
// The format is one `key = value` pair per line, `#` comments, commas for
// lists — small enough to write by hand, rich enough to express the paper
// grid:
//
//   # full Figs. 6-9 grid
//   scenario     = ns2          # ns2 | testbed
//   queue        = red          # red | droptail
//   backend      = full         # full | fast | fluid | hybrid (tier, see
//                               # DESIGN.md §12; default full)
//   hybrid_foreground = 4       # hybrid only: packet-level flows per point
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
//   cache        = points.cache # optional persistent point cache
//   store        = campaign.d   # optional sharded campaign store directory
//                               # (multi-process; overrides `cache`)
//
// Unknown keys are an error (they are always typos). Integer keys (flows,
// replicates, gamma_points, threads, hybrid_foreground, base_seed) take
// exact base-10 integers: `4.7` or an out-of-range value is an error.
// The whole spec is validated at parse time (SweepSpec::validate), so an
// incompatible combination such as `backend = hybrid` with
// `queue = droptail` fails here, naming the field, before anything runs.
#pragma once

#include <string>
#include <vector>

#include "sweep/sweep.hpp"

namespace pdos::sweep {

struct SpecFile {
  SweepSpec spec;
  SweepOptions options;
  std::string csv_path;   // empty: write CSV to stdout
  std::string json_path;  // empty: no JSON output
  /// `store =`: CampaignStore directory to coordinate through. The caller
  /// (pdos_sweep/pdos_campaign) owns the store object; this is just the
  /// parsed path. Takes precedence over `cache` when both are set.
  std::string store_dir;
};

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
