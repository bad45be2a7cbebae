// The benchmark's workloads: the paper's Fig. 6 sweep, the γ* search, the
// fluid grid and the multi-process campaign (README.md here says why each
// was chosen). Each one builds its inputs from the seed in `prepare` — the
// set-up the benchmark times separately — then runs timed passes for the
// requested seconds, checks its outputs, and fills an Outcome.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  // alternate untraced and traced passes
  int threads = 1;     // pool threads / campaign workers (the host's nproc)
  std::string work_dir;  // scratch space for stores (inside the checkout)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  /// BENCHMARK.json's end-to-end metrics measured by the passes (setup_s
  /// is measured around the process by run.py).
  std::vector<Metric> end_to_end;
  /// Per-layer values by name (see per_layer_metrics()); metrics a
  /// workload does not exercise stay 0.
  std::map<std::string, double> per_layer;
  /// Further named results (accuracy, sample counts) printed with the run.
  std::vector<Metric> extras;
  CheckLog checks;
  std::uint64_t digest = 0;  // FNV-1a of the workload's result table(s)
  std::vector<std::vector<Span>> traces;  // one span list per traced pass
  std::vector<double> pass_seconds;  // wall time of each untraced pass
  double first_pass_rss_mb = 0.0;    // peak memory after the first pass
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs. Everything a pass needs that is not timed.
  virtual void prepare(const RunOptions& options) = 0;
  virtual void run(const RunOptions& options, Outcome& outcome) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Every per-layer metric, in report order.
const std::vector<MetricDef>& per_layer_metrics();

/// CPUs this process may run on (what `nproc` prints).
int available_cpus();

}  // namespace perfbench
