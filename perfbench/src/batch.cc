// batch-paper: the paper's own pipeline as an analyst runs it on the Moby
// export. Set-up generates the synthetic Moby dataset for the seed and
// serialises it to the two CSV tables; every timed pass then parses the
// CSV, cleans it, runs HAC + Algorithm 1 expansion, builds the GBasic,
// GDay and GHour graphs and runs Louvain and the trip statistics on each.
#include <string>
#include <vector>

#include "analysis/community_stats.h"
#include "analysis/experiment.h"
#include "analysis/temporal_graph.h"
#include "checks.h"
#include "common.h"
#include "community/detector.h"
#include "data/cleaning.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "expansion/candidate.h"
#include "expansion/final_network.h"
#include "expansion/selection.h"
#include "geo/dublin.h"
#include "stream/engine.h"
#include "stream/replay.h"

namespace perfbench {
namespace {

using namespace bikegraph;

struct Csv {
  std::string locations;
  std::string rentals;
};

struct PassOutput {
  size_t raw_rentals = 0;
  size_t rows_removed = 0;
  size_t candidates = 0;
  size_t selected = 0;
  data::Dataset cleaned;
  expansion::FinalNetwork network;
  Detections detections;
};

/// One pass of the pipeline. Spans cover every call into the library.
bool RunPass(const Csv& csv, Tracer& tracer, uint64_t pass, PassOutput* out,
             Report* report) {
  static const analysis::ExperimentConfig kPaper;

  Result<data::Dataset> raw = [&] {
    Span span(tracer, "data.csv_parse", pass);
    return data::Dataset::FromCsvStrings(csv.locations, csv.rentals);
  }();
  if (!report->Count(raw.status(), "data.csv_parse")) return false;
  out->raw_rentals = raw->rentals().size();

  Result<data::CleaningResult> cleaned = [&] {
    Span span(tracer, "data.clean", pass);
    return data::CleanDataset(*raw, geo::DublinLand());
  }();
  if (!report->Count(cleaned.status(), "data.clean")) return false;
  out->rows_removed = cleaned->report.TotalRentalsDropped() +
                      cleaned->report.TotalLocationsDropped();
  out->cleaned = std::move(cleaned->dataset);

  Result<expansion::CandidateNetwork> candidates = [&] {
    Span span(tracer, "expansion.candidate", pass);
    return expansion::BuildCandidateNetwork(out->cleaned,
                                            kPaper.pipeline.clustering);
  }();
  if (!report->Count(candidates.status(), "expansion.candidate")) return false;
  out->candidates = candidates->candidates.size();

  Result<expansion::SelectionResult> selection = [&] {
    Span span(tracer, "expansion.select", pass);
    return expansion::SelectStations(*candidates, kPaper.pipeline.selection);
  }();
  if (!report->Count(selection.status(), "expansion.select")) return false;
  out->selected = selection->selected.size();

  Result<expansion::FinalNetwork> network = [&] {
    Span span(tracer, "expansion.final", pass);
    return expansion::BuildFinalNetwork(out->cleaned, *candidates, *selection);
  }();
  if (!report->Count(network.status(), "expansion.final")) return false;
  out->network = std::move(*network);

  const analysis::TemporalGraphOptions projections[3] = {
      analysis::TemporalGraphOptions{}, kPaper.gday, kPaper.ghour};
  for (size_t g = 0; g < 3; ++g) {
    Result<graphdb::WeightedGraph> graph = [&] {
      Span span(tracer, "analysis.graph", pass);
      return analysis::BuildTemporalGraph(out->network.graph, projections[g]);
    }();
    if (!report->Count(graph.status(), "analysis.graph")) return false;
    out->detections.graphs[g] = std::move(*graph);

    Result<community::CommunityResult> detection = [&] {
      Span span(tracer, "community.detect", pass);
      return community::Detect(out->detections.graphs[g], kPaper.detection);
    }();
    if (!report->Count(detection.status(), "community.detect")) return false;
    out->detections.results[g] = std::move(*detection);

    Result<analysis::CommunityTripStats> stats = [&] {
      Span span(tracer, "analysis.stats", pass);
      return analysis::ComputeCommunityTripStats(
          out->network, out->detections.results[g].partition);
    }();
    if (!report->Count(stats.status(), "analysis.stats")) return false;
  }
  return true;
}

/// Checks run after every pass, outside its timing.
void CheckPass(const PassOutput& out, uint64_t first_fingerprint,
               Report* report) {
  report->Verdict(CheckFingerprint(
      first_fingerprint, BatchFingerprint(out.network, out.detections)));
  report->Verdict(CheckModularity(out.detections));
  report->Verdict(CheckTripsConserved(out.cleaned.rentals().size(),
                                      out.network.ComputeStats().total_trips));
}

/// GBasic must equal what a landmark StreamEngine freezes from a replay of
/// the same cleaned trips onto the final network's stations.
std::string CheckLandmarkFreeze(const PassOutput& out) {
  stream::StreamEngineConfig config;
  config.station_count = out.network.stations.size();
  config.window_seconds = 0;
  stream::StreamEngine engine(config);
  stream::ReplaySource replay =
      stream::ReplaySource::FromFinalNetwork(out.cleaned, out.network);
  const Status replayed = replay.ReplayInto(&engine);
  if (!replayed.ok()) return "landmark replay failed: " + replayed.ToString();
  auto snapshot = engine.Snapshot();
  if (!snapshot.ok()) return "landmark freeze failed: " + snapshot.status().ToString();
  return CheckGraphsEqual(out.detections.graphs[0], (*snapshot)->graph);
}

struct Phase {
  std::vector<double> pass_ms;
  std::vector<Window> windows;
  double rentals = 0.0;
};

/// Runs passes until `seconds` of wall time have gone by.
Phase RunPhase(const Csv& csv, double seconds, Tracer& tracer,
               uint64_t first_fingerprint, PassOutput* last, Report* report) {
  Phase phase;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t pass = 0;
  while (NowNs() < deadline) {
    PassOutput out;
    const int64_t start = NowNs();
    const bool ok = RunPass(csv, tracer, pass++, &out, report);
    const int64_t end = NowNs();
    if (!ok) continue;
    phase.pass_ms.push_back(static_cast<double>(end - start) / 1e6);
    phase.windows.emplace_back(start, end);
    phase.rentals += static_cast<double>(out.raw_rentals);
    CheckPass(out, first_fingerprint, report);
    *last = std::move(out);
  }
  return phase;
}

double RentalsPerSecond(const Phase& phase) {
  double total_ms = 0.0;
  for (double ms : phase.pass_ms) total_ms += ms;
  return total_ms > 0.0 ? phase.rentals / (total_ms / 1e3) : 0.0;
}

}  // namespace

void RunBatchPaper(const RunArgs& args, Report* report) {
  data::SyntheticConfig synthetic;
  synthetic.seed = args.seed;

  // Set-up, repeated so its median is steady: generate and serialise.
  std::vector<double> setup_s, generate_ms;
  Csv csv;
  for (int i = 0; i < 3; ++i) {
    const int64_t start = NowNs();
    Result<data::Dataset> dataset = data::GenerateSyntheticMoby(synthetic);
    const int64_t generated = NowNs();
    if (!report->Count(dataset.status(), "data.generate")) return;
    csv.locations = dataset->LocationsCsvString();
    csv.rentals = dataset->RentalsCsvString();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    generate_ms.push_back(static_cast<double>(generated - start) / 1e6);
  }

  // A warm-up pass fills caches and fixes the fingerprint every timed pass
  // must reproduce.
  ResetPeakRss();
  Tracer untraced(false);
  PassOutput last;
  if (!RunPass(csv, untraced, 0, &last, report)) return;
  const uint64_t first_fingerprint =
      BatchFingerprint(last.network, last.detections);

  const Phase timed =
      RunPhase(csv, args.seconds, untraced, first_fingerprint, &last, report);
  const double peak_rss = PeakRssMb();
  report->Check(!timed.pass_ms.empty(), "no batch pass completed");
  report->Verdict(CheckLandmarkFreeze(last));

  const Tail tail = HighestTail(timed.pass_ms);
  const double p50_ms = Median(timed.pass_ms);
  report->end_to_end["setup_s"] = {Median(setup_s), "s"};
  report->end_to_end["peak_rss_mb"] = {peak_rss, "MB"};
  report->end_to_end["latency_p50_ms"] = {p50_ms, "ms"};
  report->end_to_end["latency_tail_ms"] = {tail.value, "ms"};
  report->end_to_end["throughput_per_s"] = {RentalsPerSecond(timed), "1/s"};
  report->Note("batch_p50_s = " + FormatNumber(p50_ms / 1e3) + " s");
  report->Note("batch_tail_s = " + FormatNumber(tail.value / 1e3) + " s (p" +
               FormatNumber(tail.percentile) + " of " +
               std::to_string(tail.count) + " passes)");
  report->Note("stations = " + std::to_string(last.network.stations.size()) +
               ", raw rentals per pass = " + std::to_string(last.raw_rentals));
  if (!args.trace) return;

  Tracer tracer(true);
  const Phase traced =
      RunPhase(csv, args.seconds, tracer, first_fingerprint, &last, report);
  report->Check(!traced.pass_ms.empty(), "no traced batch pass completed");
  const Attribution a = Attribute(tracer, traced.windows);
  report->Check(a.balanced, "batch attribution does not sum to pass wall time");
  const double passes = static_cast<double>(traced.pass_ms.size());
  const auto per_pass = [&](const char* name) {
    const auto it = a.self_ms.find(name);
    return it == a.self_ms.end() ? 0.0 : it->second / passes;
  };
  report->Layer("batch_p50_s", p50_ms / 1e3, "s");
  report->Layer("batch_tail_s", tail.value / 1e3, "s");
  report->Layer("data.generate_ms", Median(generate_ms), "ms");
  report->Layer("data.csv_parse_ms", per_pass("data.csv_parse"), "ms");
  report->Layer("data.clean_ms", per_pass("data.clean"), "ms");
  report->Layer("data.rows_removed", static_cast<double>(last.rows_removed), "count");
  report->Layer("expansion.candidate_ms", per_pass("expansion.candidate"), "ms");
  report->Layer("expansion.select_ms", per_pass("expansion.select"), "ms");
  report->Layer("expansion.final_ms", per_pass("expansion.final"), "ms");
  report->Layer("expansion.candidates", static_cast<double>(last.candidates), "count");
  report->Layer("expansion.selected", static_cast<double>(last.selected), "count");
  report->Layer("analysis.graph_ms", per_pass("analysis.graph"), "ms");
  report->Layer("analysis.stats_ms", per_pass("analysis.stats"), "ms");
  report->Layer("community.detect_ms", per_pass("community.detect"), "ms");
  report->Layer("bench.unattributed_ms", a.unattributed_ms, "ms");
  report->Layer("bench.unattributed_share", a.unattributed_ms / a.wall_ms, "ratio");
  report->Layer("bench.trace_overhead_pct",
                100.0 * (RentalsPerSecond(timed) / RentalsPerSecond(traced) - 1.0),
                "%");
  tracer.WriteCsv(args.workdir + "/trace-batch-paper-seed" +
                  std::to_string(args.seed) + ".csv");
}

}  // namespace perfbench
