// Shared pieces of the end-to-end benchmark: the clock, order statistics,
// the span tracer and the metric report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// What the command line asked for.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL directories, span dumps).
  std::string workdir = ".bench_build/work";
};

// ---------------------------------------------------------------------------
// Order statistics. Every percentile is nearest-rank on the sorted samples.
// ---------------------------------------------------------------------------

double Median(std::vector<double> samples);
double Percentile(std::vector<double> samples, double pct);

/// The highest percentile that still has at least ten samples beyond it
/// (value at sorted index n - 11), capped at p99, with the percentile it
/// sits at and the sample count. With fewer than eleven samples it is the
/// maximum. The cap matters only past 1,000 samples: beyond p99 the value
/// is set by the handful of operations a host stall hits in that run, and
/// it swung by up to 2x from run to run.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t count = 0;
};
Tail HighestTail(std::vector<double> samples);

/// Peak resident set since the last ResetPeakRss(), in MiB (VmHWM).
double PeakRssMb();
/// Resets the kernel's high-water mark so PeakRssMb() covers only what
/// follows (Linux clear_refs mode 5; a no-op where unsupported).
void ResetPeakRss();

// ---------------------------------------------------------------------------
// Tracing. Spans are recorded around calls into the library's public
// functions, on the thread that blocks the result (the pipeline thread of
// a batch pass, the writer thread of a live run). They stay in memory and
// are written out once at the end of the run.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;  ///< static string, e.g. "data.clean"
  int32_t parent;    ///< index of the enclosing span, -1 for a root
  uint64_t group;    ///< pass or epoch the span belongs to
  int64_t start_ns;
  int64_t end_ns;
};

/// Single-thread span recorder. A disabled tracer records nothing and
/// costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, uint64_t group);
  void End(int32_t span);
  /// Records an already-timed interval as a child of the open span.
  void Add(const char* name, uint64_t group, int64_t start_ns, int64_t end_ns);

  /// Self time per span name, in ns: a span's duration minus the part of
  /// it covered by its children.
  std::map<std::string, double> SelfNsByName() const;
  /// Wall time inside [start, end] covered by no root span.
  double UncoveredNs(int64_t start_ns, int64_t end_ns) const;

  /// Writes the spans as CSV (name,parent,group,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, uint64_t group)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, group) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Attribution of one traced run: the self time of every layer span on the
/// blocking thread plus the unattributed remainder must add up to the wall
/// time of the measured sections (each batch pass, or the writer's run).
struct Attribution {
  std::map<std::string, double> self_ms;
  double wall_ms = 0.0;
  double unattributed_ms = 0.0;
  bool balanced = false;
};
using Window = std::pair<int64_t, int64_t>;
Attribution Attribute(const Tracer& tracer, const std::vector<Window>& windows);

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run produced: the bounded end-to-end metrics, the
/// per-layer metrics of a traced run, human-readable detail lines, the
/// operation counts and the verdict of every correctness check.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;

  /// Counts one call into the library as attempted, and as failed when it
  /// returned an error; returns whether it succeeded.
  bool Count(const bikegraph::Status& status, const std::string& what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    if (notes.size() < 64) Note(what + " failed: " + status.ToString());
    return false;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  /// Records the verdict of a check from checks.h (empty = passed).
  void Verdict(const std::string& defect) { Check(defect.empty(), defect); }
  void Note(const std::string& line) { notes.push_back(line); }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
};

/// Formats a double with every digit needed to round-trip.
std::string FormatNumber(double value);

// ---------------------------------------------------------------------------
// Host and build fingerprint.
// ---------------------------------------------------------------------------

/// One-line JSON description of the host and of this build.
std::string HostFingerprintJson();
/// Empty when this build may be timed; otherwise why it must not be.
std::string BuildRefusalReason();

// ---------------------------------------------------------------------------
// Workloads (batch.cc, live.cc) and the check self-test (selftest.cc).
// ---------------------------------------------------------------------------

void RunBatchPaper(const RunArgs& args, Report* report);
void RunLiveServe(const RunArgs& args, Report* report);
void RunReplayDurable(const RunArgs& args, Report* report);
void RunReplaySharded(const RunArgs& args, Report* report);
/// Plants wrong outputs and requires every check to reject them; returns
/// the number of checks that failed to notice.
int RunSelfTest(const std::string& workdir);

/// The full per-layer metric list, with units: a traced run reports every
/// one of them, 0 where the workload does not exercise the layer.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
