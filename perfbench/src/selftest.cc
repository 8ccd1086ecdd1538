// Self-test of the benchmark's correctness checks: each check must accept a
// right output and reject the same output with one planted defect.
#include <cstdio>
#include <filesystem>
#include <memory>

#include "analysis/experiment.h"
#include "checks.h"
#include "common.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/testing.h"

namespace perfbench {
namespace {

using namespace bikegraph;

struct Tally {
  int missed = 0;

  /// A right output must pass its check.
  void Accepts(const std::string& verdict, const char* what) {
    if (!verdict.empty()) {
      ++missed;
      std::printf("FAIL  %s: rejected a right output: %s\n", what, verdict.c_str());
    } else {
      std::printf("ok    %s: accepts the right output\n", what);
    }
  }
  /// A planted defect must make its check fail.
  void Rejects(const std::string& verdict, const char* what) {
    if (verdict.empty()) {
      ++missed;
      std::printf("FAIL  %s: planted defect went unnoticed\n", what);
    } else {
      std::printf("ok    %s: caught (%s)\n", what, verdict.c_str());
    }
  }
};

void BatchChecks(Tally* t) {
  auto run = analysis::RunPaperExperiment();
  if (!run.ok()) {
    ++t->missed;
    std::printf("FAIL  batch: pipeline failed: %s\n", run.status().ToString().c_str());
    return;
  }
  Detections d;
  const analysis::CommunityExperiment* experiments[3] = {&run->gbasic, &run->gday,
                                                         &run->ghour};
  for (size_t g = 0; g < 3; ++g) {
    d.graphs[g] = experiments[g]->graph;
    d.results[g] = experiments[g]->detection;
  }
  const auto& network = run->pipeline.final_network;
  const uint64_t fingerprint = BatchFingerprint(network, d);
  t->Accepts(CheckFingerprint(fingerprint, BatchFingerprint(network, d)),
             "batch fingerprint");
  t->Accepts(CheckModularity(d), "batch modularity");

  // Planted: one flipped partition label in GBasic.
  Detections flipped = d;
  auto& labels = flipped.results[0].partition.assignment;
  for (int32_t label : labels) {
    if (label != labels[0]) {
      labels[0] = label;
      break;
    }
  }
  t->Rejects(CheckFingerprint(fingerprint, BatchFingerprint(network, flipped)),
             "batch fingerprint, one flipped partition label");
  t->Rejects(CheckModularity(flipped),
             "batch modularity, one flipped partition label");
}

stream::StreamEngineConfig SmallConfig() {
  stream::StreamEngineConfig config;
  config.station_count = 48;
  config.window_seconds = 2 * 86400;
  config.max_lateness_seconds = 1800;
  return config;
}

std::vector<stream::TripEvent> SmallStream() {
  return stream::JitterArrivalOrder(
             stream::testing::PlantedStream(48, 4, 6, 600, 7), 1800, 11)
      .events;
}

/// Replays `events` minus the one at `skip` (none when skip >= size) and
/// returns the counts and final snapshot bytes as the benchmark sees them.
std::pair<StreamCounts, std::string> Replay(
    const std::vector<stream::TripEvent>& events, size_t skip) {
  stream::StreamEngine engine(SmallConfig());
  for (size_t i = 0; i < events.size(); ++i) {
    if (i != skip) (void)engine.Ingest(events[i]);
  }
  (void)engine.Flush();
  auto snapshot = engine.Snapshot();
  StreamCounts counts{events.size(), engine.ingested_count(),
                      engine.late_dropped_count(), engine.duplicate_count(),
                      engine.buffered_count()};
  return {counts, snapshot.ok() ? SnapshotBytes(**snapshot) : ""};
}

void LiveChecks(Tally* t) {
  const auto events = SmallStream();
  const auto [ref_counts, reference] = Replay(events, events.size());
  t->Accepts(CheckConservation(ref_counts), "live conservation");
  t->Accepts(CheckSnapshotMatches(reference, reference), "live snapshot identity");

  // Planted: one event dropped on the way into the engine, late enough in
  // the stream that it is still inside the final window.
  const auto [counts, snapshot] = Replay(events, events.size() * 9 / 10);
  t->Rejects(CheckConservation(counts), "live conservation, one dropped event");
  t->Rejects(CheckSnapshotMatches(reference, snapshot),
             "live snapshot identity, one dropped event");
}

void DurableChecks(const std::string& workdir, Tally* t) {
  const std::filesystem::path dir =
      std::filesystem::path(workdir) / "selftest-wal";
  std::filesystem::remove_all(dir);
  stream::StreamEngineConfig config = SmallConfig();
  config.durability.enabled = true;
  config.durability.directory = dir.string();
  const auto events = SmallStream();

  std::string at_crash;
  {
    stream::StreamEngine engine(config);
    for (size_t i = 0; i < events.size(); ++i) {
      (void)engine.Ingest(events[i]);
      if (i == events.size() / 2) {
        (void)engine.Snapshot();
        (void)engine.Checkpoint();
      }
    }
    at_crash = stream::SerializeCheckpoint(engine.CaptureState());
  }
  stream::StreamEngine::RecoveryStats stats;
  auto recovered = stream::StreamEngine::Recover(config, &stats);
  if (!recovered.ok()) {
    ++t->missed;
    std::printf("FAIL  durable: Recover failed: %s\n",
                recovered.status().ToString().c_str());
    return;
  }
  std::string state = stream::SerializeCheckpoint((*recovered)->CaptureState());
  t->Accepts(CheckRecovered(at_crash, state, stats.replay_errors),
             "recovered state");

  // Planted: one altered byte in the recovered state.
  state[state.size() / 2] = static_cast<char>(state[state.size() / 2] ^ 0x01);
  t->Rejects(CheckRecovered(at_crash, state, stats.replay_errors),
             "recovered state, one altered byte");
  recovered->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

int RunSelfTest(const std::string& workdir) {
  Tally tally;
  BatchChecks(&tally);
  LiveChecks(&tally);
  DurableChecks(workdir, &tally);
  std::printf("%s: %d check(s) misbehaved\n", tally.missed ? "FAILED" : "PASSED",
              tally.missed);
  return tally.missed;
}

}  // namespace perfbench
