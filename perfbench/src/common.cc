#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

namespace perfbench {

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50.0); }

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

Tail HighestTail(std::vector<double> samples) {
  Tail tail;
  tail.count = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const auto p99 = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  const size_t index = n > 11 ? std::min(n - 11, p99) : n - 1;
  tail.value = samples[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

int32_t Tracer::Begin(const char* name, uint64_t group) {
  const auto id = static_cast<int32_t>(spans_.size());
  spans_.push_back(SpanRecord{name, open_.empty() ? -1 : open_.back(), group,
                              NowNs(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::Add(const char* name, uint64_t group, int64_t start_ns,
                 int64_t end_ns) {
  if (!enabled_) return;
  spans_.push_back(SpanRecord{name, open_.empty() ? -1 : open_.back(), group,
                              start_ns, end_ns});
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo,
               int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  int64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t s = std::max(start, cursor);
    const int64_t e = std::min(end, hi);
    if (e > s) {
      covered += static_cast<double>(e - s);
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, double> Tracer::SelfNsByName() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    self[s.name] += duration - UnionNs(children[i], s.start_ns, s.end_ns);
  }
  return self;
}

double Tracer::UncoveredNs(int64_t start_ns, int64_t end_ns) const {
  std::vector<std::pair<int64_t, int64_t>> roots;
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) roots.emplace_back(s.start_ns, s.end_ns);
  }
  return static_cast<double>(end_ns - start_ns) -
         UnionNs(std::move(roots), start_ns, end_ns);
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,parent,group,start_ns,end_ns\n";
  for (const SpanRecord& s : spans_) {
    out << s.name << ',' << s.parent << ',' << s.group << ',' << s.start_ns
        << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

Attribution Attribute(const Tracer& tracer, const std::vector<Window>& windows) {
  Attribution a;
  for (const auto& [start_ns, end_ns] : windows) {
    a.wall_ms += static_cast<double>(end_ns - start_ns) / 1e6;
    a.unattributed_ms += tracer.UncoveredNs(start_ns, end_ns) / 1e6;
  }
  double self_sum = 0.0;
  for (const auto& [name, ns] : tracer.SelfNsByName()) {
    a.self_ms[name] = ns / 1e6;
    self_sum += ns / 1e6;
  }
  // Spans that nest properly and stay inside the measured section make
  // this an identity; a span escaping its parent or the section breaks it.
  a.balanced = std::fabs(self_sum + a.unattributed_ms - a.wall_ms) <=
               1e-6 * a.wall_ms + 1e-3;
  return a;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// Host and build fingerprint
// ---------------------------------------------------------------------------

namespace {

std::string CpuInfoField(const std::string& key) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "";
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return !std::string_view(PERFBENCH_SANITIZE).empty();
#endif
#else
  return !std::string_view(PERFBENCH_SANITIZE).empty();
#endif
}

bool NdebugDefined() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

}  // namespace

std::string HostFingerprintJson() {
  // The ISA extensions an optimisation of this code could depend on.
  static constexpr std::string_view kIsa[] = {
      "sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512bw", "avx512vl"};
  std::istringstream flags(CpuInfoField("flags"));
  std::string flag, isa;
  while (flags >> flag) {
    for (std::string_view want : kIsa) {
      if (flag != want) continue;
      if (!isa.empty()) isa += ' ';
      isa += flag;
    }
  }
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": \"" << JsonEscape(CpuInfoField("model name"))
      << "\", \"isa\": \"" << isa << "\", \"compiler\": \""
#if defined(__clang__)
      << "clang "
#elif defined(__GNUC__)
      << "gcc "
#endif
      << JsonEscape(__VERSION__) << "\", \"cmake_build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"cxx_flags\": \""
      << JsonEscape(PERFBENCH_CXX_FLAGS) << "\", \"ndebug\": "
      << (NdebugDefined() ? "true" : "false") << ", \"sanitizer\": \""
      << (SanitizedBuild() ? (std::string_view(PERFBENCH_SANITIZE).empty()
                                  ? "on"
                                  : PERFBENCH_SANITIZE)
                           : "none")
      << "\"}";
  return out.str();
}

std::string BuildRefusalReason() {
  const std::string_view build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    return "CMAKE_BUILD_TYPE is '" + std::string(build_type) +
           "'; timings need Release or RelWithDebInfo";
  }
  if (!NdebugDefined()) return "NDEBUG is not defined; asserts would be timed";
  if (SanitizedBuild()) return "the build is sanitized";
  return "";
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // Run-level bookkeeping of the traced run.
      {"bench.error_rate", "ratio"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.unattributed_ms", "ms"},
      {"bench.unattributed_share", "ratio"},
      // The workload-specific end-to-end figures, from the traced run's
      // untraced phase (see README.md for how they map onto the bounded
      // generic metrics).
      {"batch_p50_s", "s"},
      {"batch_tail_s", "s"},
      {"ingest_eps", "1/s"},
      {"publish_p50_ms", "ms"},
      {"publish_p99_ms", "ms"},
      {"query_p50_us", "us"},
      {"query_p99_us", "us"},
      {"query_qps", "1/s"},
      {"recover_s", "s"},
      // data
      {"data.generate_ms", "ms"},
      {"data.csv_parse_ms", "ms"},
      {"data.clean_ms", "ms"},
      {"data.rows_removed", "count"},
      // expansion
      {"expansion.candidate_ms", "ms"},
      {"expansion.select_ms", "ms"},
      {"expansion.final_ms", "ms"},
      {"expansion.candidates", "count"},
      {"expansion.selected", "count"},
      // analysis + community
      {"analysis.graph_ms", "ms"},
      {"analysis.stats_ms", "ms"},
      {"community.detect_ms", "ms"},
      // stream
      {"stream.ingest_ns", "ns"},
      {"stream.ingest_busy", "ratio"},
      {"stream.freeze_ms_p50", "ms"},
      {"stream.freeze_ms_p99", "ms"},
      {"stream.freeze_busy", "ratio"},
      {"stream.epochs", "count"},
      {"stream.delta_freezes", "count"},
      {"stream.full_freezes", "count"},
      {"stream.snapshot_reuses", "count"},
      {"stream.reordered", "count"},
      {"stream.late_dropped", "count"},
      {"stream.duplicates", "count"},
      {"stream.flush_ms", "ms"},
      {"stream.wal_records", "count"},
      {"stream.wal_bytes", "B"},
      {"stream.wal_retries", "count"},
      {"stream.checkpoint_ms_p50", "ms"},
      {"stream.checkpoint_ms_p99", "ms"},
      {"stream.checkpoint_bytes", "B"},
      {"stream.recover_replayed", "count"},
      {"stream.recover_truncated_bytes", "B"},
      // query
      {"query.pin_us_p99", "us"},
      {"query.exec_us_p50", "us"},
      {"query.exec_us_p99", "us"},
      {"query.memo_hit_ratio", "ratio"},
      {"query.memo_misses", "count"},
      {"query.errors", "count"},
      // load generator
      {"gen.lag_p99_ms", "ms"},
  };
  return kMetrics;
}

}  // namespace perfbench
