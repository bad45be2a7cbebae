// pdos_sweep — run a parameter campaign described by a key=value spec file
// and emit the result table.
//
// Usage:
//   pdos_sweep SPECFILE [--threads N] [--csv PATH] [--json PATH]
//              [--aggregate PATH] [--resume] [--campaign DIR]
//              [--progress-json] [--quiet] [--keep-going]
//
// The spec format is documented in src/sweep/spec.hpp (and README.md,
// "Running parameter sweeps"). Command-line flags override the file.
// Progress goes to stderr, the CSV table to --csv/`csv =` or stdout.
// `--aggregate` additionally writes the per-point replicate statistics
// (mean / sample stddev / 95% CI of gain and degradation) — CSV, or JSON
// when the path ends in ".json". `--campaign DIR` (or `store =` in the
// spec) keeps results in the CampaignStore at DIR: completed points are
// replayed instead of re-simulated, so an interrupted or repeated sweep
// picks up where it left off, and several pdos_sweep processes pointed at
// the same DIR partition a cold grid via work claiming and share every
// result (see README.md, "Running campaigns"). `--resume` is
// `--campaign .pdos-cache/campaign` unless a store is already named: the
// directory pdos_campaign uses by default, so a resumed sweep and a
// campaign share results. `--progress-json` emits machine-readable
// JSON-lines progress on stderr for orchestrators and CI logs.
// Exit status: 0 on success, 1 when any point failed, 2 on a usage or spec
// error (including a spec whose grid enumerates no points, an unknown or
// retired flag such as --cache, and an unparsable flag value).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "sweep/campaign_store.hpp"
#include "sweep/spec.hpp"
#include "util/assert.hpp"

using namespace pdos;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pdos_sweep SPECFILE [--threads N] [--csv PATH] "
               "[--json PATH] [--aggregate PATH] [--resume] "
               "[--campaign DIR] [--progress-json] [--quiet] "
               "[--keep-going]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') return usage();

  sweep::SpecFile file;
  std::vector<sweep::PointSpec> points;
  try {
    file = sweep::load_spec_file(argv[1]);
    points = sweep::enumerate_nonempty(file.spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdos_sweep: %s\n", e.what());
    return 2;
  }

  bool quiet = false;
  bool progress_json = false;
  bool resume = false;
  std::string aggregate_path;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string flag = argv[i];
      const bool has_value = i + 1 < argc;
      if (flag == "--threads" && has_value) {
        file.options.threads = sweep::parse_int(flag, argv[++i], 0);
      } else if (flag == "--csv" && has_value) {
        file.csv_path = argv[++i];
      } else if (flag == "--json" && has_value) {
        file.json_path = argv[++i];
      } else if (flag == "--aggregate" && has_value) {
        aggregate_path = argv[++i];
      } else if (flag == "--resume") {
        resume = true;
      } else if (flag == "--campaign" && has_value) {
        file.store_dir = argv[++i];
      } else if (flag == "--progress-json") {
        progress_json = true;
      } else if (flag == "--quiet") {
        quiet = true;
      } else if (flag == "--keep-going") {
        file.options.cancel_on_failure = false;
      } else {
        throw ParameterError("unknown flag or missing value: '" + flag +
                             "'");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdos_sweep: %s\n", e.what());
    return usage();
  }
  if (resume && file.store_dir.empty()) {
    file.store_dir = sweep::kDefaultStoreDir;
  }

  std::unique_ptr<sweep::CampaignStore> store;
  if (!file.store_dir.empty()) {
    store = std::make_unique<sweep::CampaignStore>(file.store_dir);
    file.options.store = store.get();
  }

  if (progress_json) {
    // One JSON object per finished task, machine-readable on stderr (the
    // CSV table owns stdout). Orchestrators and CI logs consume this.
    file.options.on_progress = [](const sweep::SweepProgress& progress) {
      std::fprintf(stderr,
                   "{\"done\": %zu, \"total\": %zu, \"cached\": %zu, "
                   "\"elapsed_s\": %.3f, \"eta_s\": %.3f}\n",
                   progress.done, progress.total, progress.cached,
                   progress.elapsed_seconds, progress.eta_seconds);
    };
  } else if (!quiet) {
    std::fprintf(stderr,
                 "pdos_sweep: %zu points (%s scenario, %s backend, "
                 "base seed %llu)\n",
                 points.size(), sweep::scenario_kind_name(file.spec.scenario),
                 backend_name(file.spec.backend),
                 static_cast<unsigned long long>(file.spec.base_seed));
    file.options.on_progress = [](const sweep::SweepProgress& progress) {
      std::fprintf(stderr, "\r%zu/%zu done, %.1fs elapsed, eta %.1fs   ",
                   progress.done, progress.total, progress.elapsed_seconds,
                   progress.eta_seconds);
      if (progress.done == progress.total) std::fprintf(stderr, "\n");
    };
  }

  const sweep::SweepResult result = sweep::run_sweep(file.spec, file.options);
  if (!quiet) {
    std::fprintf(stderr,
                 "pdos_sweep: %zu ok, %zu failed%s on %d threads in %.2fs\n",
                 result.completed(), result.failures(),
                 result.cancelled ? " (cancelled)" : "", result.threads,
                 result.wall_seconds);
    if (store) {
      std::fprintf(stderr,
                   "pdos_sweep: %zu store hits, %zu simulated (%s)\n",
                   result.cache_hits, result.simulated,
                   file.store_dir.c_str());
    }
  }

  if (file.csv_path.empty()) {
    result.write_csv(std::cout);
  } else {
    std::ofstream out(file.csv_path);
    PDOS_REQUIRE(out.good(), "cannot open output: " + file.csv_path);
    result.write_csv(out);
    if (!quiet) {
      std::fprintf(stderr, "pdos_sweep: wrote %s\n", file.csv_path.c_str());
    }
  }
  if (!file.json_path.empty()) {
    std::ofstream out(file.json_path);
    PDOS_REQUIRE(out.good(), "cannot open output: " + file.json_path);
    result.write_json(out);
    if (!quiet) {
      std::fprintf(stderr, "pdos_sweep: wrote %s\n", file.json_path.c_str());
    }
  }
  if (!aggregate_path.empty()) {
    const auto rows = sweep::aggregate_replicates(result);
    std::ofstream out(aggregate_path);
    PDOS_REQUIRE(out.good(), "cannot open output: " + aggregate_path);
    const bool json = aggregate_path.size() >= 5 &&
                      aggregate_path.rfind(".json") ==
                          aggregate_path.size() - 5;
    if (json) {
      sweep::write_aggregate_json(rows, out);
    } else {
      sweep::write_aggregate_csv(rows, out);
    }
    if (!quiet) {
      std::fprintf(stderr, "pdos_sweep: wrote %s (%zu aggregate rows)\n",
                   aggregate_path.c_str(), rows.size());
    }
  }

  for (const auto& point : result.points) {
    if (point.status == sweep::PointStatus::kFailed) {
      std::fprintf(stderr, "point %zu failed: %s\n", point.index,
                   point.error.c_str());
    }
  }
  return result.failures() == 0 && !result.cancelled ? 0 : 1;
}
