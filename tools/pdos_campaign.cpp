// pdos_campaign — run one or more sweep specs over a shared result store.
//
// Usage:
//   pdos_campaign SPEC... [--store DIR] [--workers K] [--csv-dir DIR]
//                 [--lease-ttl S] [--partial-interval S] [--keep-going]
//                 [--assert-no-dup] [--compact] [--quiet]
//
// Each spec runs in turn through the ordinary sweep engine, in this
// process, on one K-thread pool over the CampaignStore. A task the store
// already holds (from an earlier spec, campaign or `pdos_sweep --resume`)
// is a hit, so resuming a finished campaign simulates nothing. Each spec's
// CSV/JSON is byte-identical to a plain `pdos_sweep` run of it. Several
// pdos_campaign processes may share one store at once: the store's leases
// let each claim the tasks it simulates, so no task is simulated twice.
// A crashed run leaves its finished results in the store; rerun to resume.
//
//   --store DIR          CampaignStore directory (default
//                        .pdos-cache/campaign, which `pdos_sweep --resume`
//                        shares; spec `store =` overrides the default, the
//                        flag overrides the spec)
//   --workers K          worker threads (default: all hardware threads)
//   --csv-dir DIR        write each spec's merged CSV to DIR/<spec-stem>.csv
//                        (overrides the spec's `csv =`)
//   --lease-ttl S        work-claim lifetime in seconds (default 120)
//   --partial-interval S write lookup-only partial CSVs to <csv>.partial
//                        at most every S seconds while the campaign runs
//   --keep-going         keep dispatching after a point failure
//   --assert-no-dup      exit 1 if this run simulated more tasks than the
//                        campaign has unique tasks (claiming failed to dedup)
//   --compact            compact the store segments after the run
//
// Exit status: 0 on success; 1 when any point failed, the run threw, or
// an --assert-no-dup check tripped; 2 on a usage or spec error (including a
// spec whose grid enumerates no points and a flag value that does not parse
// exactly, e.g. `--workers 2.5`).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "sweep/campaign.hpp"
#include "sweep/campaign_store.hpp"
#include "sweep/spec.hpp"
#include "sweep/thread_pool.hpp"

using namespace pdos;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pdos_campaign SPEC... [--store DIR] [--workers K] "
               "[--csv-dir DIR] [--lease-ttl S] "
               "[--partial-interval S] [--keep-going] [--assert-no-dup] "
               "[--compact] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> spec_paths;
  sweep::CampaignOptions options;
  options.workers = sweep::ThreadPool::default_threads();
  std::string store_flag;
  std::string csv_dir;
  bool assert_no_dup = false;
  bool compact = false;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const bool has_value = i + 1 < argc;
      if (flag == "--store" && has_value) {
        store_flag = argv[++i];
      } else if (flag == "--workers" && has_value) {
        options.workers = sweep::parse_int(flag, argv[++i], 1);
      } else if (flag == "--csv-dir" && has_value) {
        csv_dir = argv[++i];
      } else if (flag == "--lease-ttl" && has_value) {
        options.lease_ttl_seconds = sweep::parse_double(flag, argv[++i]);
      } else if (flag == "--partial-interval" && has_value) {
        options.partial_interval_seconds =
            sweep::parse_double(flag, argv[++i]);
      } else if (flag == "--keep-going") {
        options.keep_going = true;
      } else if (flag == "--assert-no-dup") {
        assert_no_dup = true;
      } else if (flag == "--compact") {
        compact = true;
      } else if (flag == "--quiet") {
        quiet = true;
      } else if (flag[0] == '-') {
        throw ParameterError("unknown flag or missing value: '" + flag +
                             "'");
      } else {
        spec_paths.push_back(flag);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdos_campaign: %s\n", e.what());
    return usage();
  }
  if (spec_paths.empty()) return usage();

  std::vector<sweep::CampaignSpec> specs;
  for (const std::string& path : spec_paths) {
    sweep::SpecFile file;
    try {
      file = sweep::load_spec_file(path);
      sweep::enumerate_nonempty(file.spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pdos_campaign: %s\n", e.what());
      return 2;
    }
    sweep::CampaignSpec spec;
    spec.spec = file.spec;
    spec.csv_path = file.csv_path;
    spec.json_path = file.json_path;
    spec.name = std::filesystem::path(path).stem().string();
    if (!csv_dir.empty()) {
      spec.csv_path =
          (std::filesystem::path(csv_dir) / (spec.name + ".csv")).string();
    }
    // A spec's `store =` sets the campaign-wide store; the flag wins, and
    // disagreeing specs are a configuration error (one campaign, one store).
    if (!file.store_dir.empty() && store_flag.empty()) {
      if (!options.store_dir.empty() &&
          options.store_dir != sweep::kDefaultStoreDir &&
          options.store_dir != file.store_dir) {
        std::fprintf(stderr,
                     "pdos_campaign: specs disagree on store (%s vs %s)\n",
                     options.store_dir.c_str(), file.store_dir.c_str());
        return 2;
      }
      options.store_dir = file.store_dir;
    }
    specs.push_back(std::move(spec));
  }
  if (!store_flag.empty()) options.store_dir = store_flag;

  if (!quiet) {
    options.on_progress = [last_draw = 0.0](
                              const sweep::CampaignProgress& p) mutable {
      if (p.done != p.total &&
          p.elapsed_seconds - last_draw < sweep::kProgressRedrawSeconds) {
        return;
      }
      last_draw = p.elapsed_seconds;
      std::fprintf(stderr,
                   "\r%zu/%zu done (%zu cached), %.1fs   ", p.done, p.total,
                   p.cached, p.elapsed_seconds);
      if (p.done == p.total) std::fprintf(stderr, "\n");
    };
    std::fprintf(stderr,
                 "pdos_campaign: %zu spec(s), %d worker threads, store %s\n",
                 specs.size(), options.workers, options.store_dir.c_str());
  }

  sweep::CampaignResult result;
  try {
    result = sweep::run_campaign(specs, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdos_campaign: %s\n", e.what());
    return 1;
  }

  if (!quiet) {
    std::fprintf(stderr, "\n");
    for (std::size_t si = 0; si < specs.size(); ++si) {
      const sweep::CampaignSpecResult& s = result.specs[si];
      std::fprintf(stderr,
                   "pdos_campaign: %s: %zu ok, %zu failed, %zu store hits"
                   "%s%s\n",
                   specs[si].name.c_str(), s.result.completed(),
                   s.result.failures(), s.result.cache_hits,
                   specs[si].csv_path.empty() ? "" : " -> ",
                   specs[si].csv_path.c_str());
    }
    std::fprintf(stderr,
                 "pdos_campaign: %zu unique tasks, %zu simulated, "
                 "%.2fs wall\n",
                 result.unique_tasks, result.worker_simulated,
                 result.wall_seconds);
  }

  if (compact) {
    sweep::CampaignStore store(options.store_dir,
                               options.lease_ttl_seconds);
    const std::size_t dropped = store.compact();
    if (!quiet) {
      std::fprintf(stderr, "pdos_campaign: compacted %s (%zu lines dropped)\n",
                   options.store_dir.c_str(), dropped);
    }
  }

  bool ok = result.ok();
  if (assert_no_dup && result.worker_simulated > result.unique_tasks) {
    std::fprintf(stderr,
                 "pdos_campaign: DUPLICATED WORK: %zu simulations for %zu "
                 "unique tasks\n",
                 result.worker_simulated, result.unique_tasks);
    ok = false;
  }
  return ok ? 0 : 1;
}
