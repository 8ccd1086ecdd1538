// perfbench: one end-to-end benchmark of the bikegraph paper pipeline and
// live engine. See README.md for the workloads, metrics and checks.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//   perfbench --selftest [--workdir <dir>]
//
// The last line of standard output is the result as one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs every per-layer metric. The exit code is
// 0 when every correctness check passed, 1 when one failed, 2 on a usage
// error and 3 when this build must not be timed.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "core/logging.h"

namespace perfbench {
namespace {

const std::map<std::string, void (*)(const RunArgs&, Report*)>& Workloads() {
  static const std::map<std::string, void (*)(const RunArgs&, Report*)> kWorkloads = {
      {"batch-paper", RunBatchPaper},
      {"live-serve", RunLiveServe},
      {"replay-durable", RunReplayDurable},
      {"replay-sharded", RunReplaySharded},
  };
  return kWorkloads;
}

/// The bounded end-to-end metrics every workload reports.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "latency_p50_ms",
                                 "latency_tail_ms", "throughput_per_s"};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n"
               "       perfbench --selftest [--workdir <dir>]\n",
               why.c_str());
  return 2;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + FormatNumber(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

int Run(int argc, char** argv) {
  RunArgs args;
  bool selftest = false, have_workload = false, have_seed = false,
       have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  bikegraph::Logger::SetLevel(bikegraph::LogLevel::kError);
  std::filesystem::create_directories(args.workdir);
  if (selftest) return RunSelfTest(args.workdir) == 0 ? 0 : 1;

  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const auto workload = Workloads().find(args.workload);
  if (workload == Workloads().end()) {
    return Usage("unknown workload '" + args.workload + "'");
  }

  std::printf("host: %s\n", HostFingerprintJson().c_str());
  const std::string refusal = BuildRefusalReason();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: REFUSING TO TIME THIS BUILD: %s\n",
                 refusal.c_str());
    return 3;
  }
  std::printf("run: workload=%s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              FormatNumber(args.seconds).c_str(), args.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  workload->second(args, &report);

  for (const char* name : kEndToEnd) {
    report.Check(report.end_to_end.count(name) == 1,
                 std::string("end-to-end metric not measured: ") + name);
  }
  std::map<std::string, Metric> layers;
  for (const auto& [name, unit] : PerLayerMetrics()) layers[name] = Metric{0.0, unit};
  for (const auto& [name, metric] : report.per_layer) {
    report.Check(layers.count(name) == 1, "unlisted per-layer metric " + name);
    layers[name] = metric;
  }
  layers["bench.error_rate"] = Metric{
      report.attempted ? static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted)
                       : 0.0,
      "ratio"};

  for (const std::string& note : report.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& [name, m] : report.end_to_end) {
    std::printf("metric %s = %s %s\n", name.c_str(), FormatNumber(m.value).c_str(),
                m.unit.c_str());
  }
  if (args.trace) {
    for (const auto& [name, m] : layers) {
      std::printf("layer %s = %s %s\n", name.c_str(), FormatNumber(m.value).c_str(),
                  m.unit.c_str());
    }
  }
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, report.attempted)),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(args.trace ? layers : report.end_to_end).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
