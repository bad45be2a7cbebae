// pdos_perfbench: runs one benchmark workload and prints its metrics.
//
//   pdos_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--expect-digest HEX] [--setup-only]
//
// Prints one `metric NAME VALUE UNIT` line per metric, a `record` line
// (JSON: host fingerprint, calibration anchor, digest, further results,
// failed checks), and last the result object run.py forwards. With
// --setup-only it builds the workload's inputs, prints `ready <ns>` (the
// monotonic clock at the point the first timed call would start) and
// exits. Exit status: 0 when every check passed, 1 when one failed, 2 on a
// usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Same-run calibration anchor: median wall time (ms) of a fixed
/// integer/floating-point kernel, so figures from different hosts can be
/// read against the host's own speed.
double calibration_anchor_ms() {
  volatile double sink = 0.0;
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    double acc = 0.0;
    for (int i = 0; i < (1 << 24); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    sink = sink + acc;
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(times);
}

int usage(const char* message) {
  std::fprintf(stderr,
               "pdos_perfbench: %s\nusage: pdos_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--expect-digest HEX] [--setup-only]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.threads = available_cpus();
  std::string workload_name;
  std::string expect_digest;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--expect-digest") {
      expect_digest = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  std::unique_ptr<Workload> workload = make_workload(workload_name);
  if (!workload) return usage(("unknown workload '" + workload_name + "'").c_str());
  if (options.work_dir.empty()) return usage("--work-dir is required");
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  workload->prepare(options);
  if (setup_only) {
    std::printf("ready %lld\n", static_cast<long long>(now_ns()));
    return 0;
  }

  Outcome out;
  workload->run(options, out);
  const double anchor = calibration_anchor_ms();
  if (options.trace) out.per_layer["host.anchor_ms"] = anchor;
  if (!expect_digest.empty()) {
    out.checks.check(hex64(out.digest) == expect_digest,
                     "result digest " + hex64(out.digest) +
                         " differs from the recorded " + expect_digest);
  }

  // Spans of the last traced passes (the campaign's last pass has two
  // trees), written once the run is over.
  if (!out.traces.empty()) {
    std::ofstream trace(options.work_dir + "/trace-" + workload_name + ".tsv");
    const std::size_t first = out.traces.size() > 2 ? out.traces.size() - 2 : 0;
    for (std::size_t i = first; i < out.traces.size(); ++i) {
      trace << format_spans(options.seed, out.traces[i]);
    }
  }

  std::vector<Metric> metrics;
  if (options.trace) {
    for (const MetricDef& def : per_layer_metrics()) {
      const auto it = out.per_layer.find(def.name);
      metrics.push_back(
          {def.name, it == out.per_layer.end() ? 0.0 : it->second, def.unit});
    }
  } else {
    metrics = out.end_to_end;
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double fail_ratio =
      out.checks.attempted() == 0
          ? 1.0
          : static_cast<double>(out.checks.failed()) /
                static_cast<double>(out.checks.attempted());
  out.extras.push_back({"fail_ratio", fail_ratio, "ratio"});
  for (const Metric& m : out.extras) {
    std::printf("extra  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& message : out.checks.messages()) {
    std::printf("FAILED %s\n", message.c_str());
  }

  std::string record = "{\"workload\": " + json_string(workload_name) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"trace\": " + (options.trace ? "1" : "0") +
                       ", \"digest\": " + json_string(hex64(out.digest)) +
                       ", \"anchor_ms\": " + json_number(anchor);
  record += ", \"fingerprint\": {\"cpu_model\": " + json_string(cpu_model()) +
            ", \"nproc\": " + std::to_string(available_cpus()) +
            ", \"threads\": " + std::to_string(options.threads) +
            ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
            ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS) +
            ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
            ", \"pdos_simd\": " + json_string(PERFBENCH_SIMD) +
            ", \"pdos_lto\": " + json_string(PERFBENCH_LTO) + "}";
  record += ", \"extras\": {";
  for (std::size_t i = 0; i < out.extras.size(); ++i) {
    record += (i ? ", " : "") + json_string(out.extras[i].name) + ": " +
              json_number(out.extras[i].value);
  }
  record += "}, \"pass_s\": [";
  for (std::size_t i = 0; i < out.pass_seconds.size(); ++i) {
    record += (i ? ", " : "") + json_number(out.pass_seconds[i]);
  }
  record += "], \"failed_checks\": [";
  for (std::size_t i = 0; i < out.checks.messages().size(); ++i) {
    record += (i ? ", " : "") + json_string(out.checks.messages()[i]);
  }
  std::printf("record %s]}\n", record.c_str());

  std::string result = "{\"correct\": ";
  result += out.checks.failed() == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(out.checks.attempted()) +
            ", \"failed\": " + std::to_string(out.checks.failed()) +
            ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result += (i ? ", " : "") + json_string(metrics[i].name) +
              ": {\"value\": " + json_number(metrics[i].value) +
              ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", result.c_str());
  return out.checks.failed() == 0 ? 0 : 1;
}
