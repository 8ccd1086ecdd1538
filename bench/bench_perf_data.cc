// Performance benchmarks for the data layer at the paper's Table I scale
// (about 62k rentals and 14.7k locations, seed 1): generating the synthetic
// Moby export, serialising it to the two CSV tables, and reading them back.
// These are the three steps of the batch pipeline's set-up and its
// data.csv_parse layer (docs/REPRODUCTION.md §3).

#include <benchmark/benchmark.h>

#include "data/dataset.h"
#include "data/synthetic.h"

namespace bikegraph::data {
namespace {

SyntheticConfig PaperScale() {
  SyntheticConfig cfg;
  cfg.seed = 1;
  return cfg;
}

void BM_GenerateSyntheticMoby(benchmark::State& state) {
  const SyntheticConfig cfg = PaperScale();
  for (auto _ : state) {
    Result<Dataset> ds = GenerateSyntheticMoby(cfg);
    if (!ds.ok()) state.SkipWithError(ds.status().ToString().c_str());
    benchmark::DoNotOptimize(ds);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cfg.clean_rental_count));
}
BENCHMARK(BM_GenerateSyntheticMoby)->Unit(benchmark::kMillisecond);

void BM_DatasetCsvExport(benchmark::State& state) {
  const Dataset ds = GenerateSyntheticMoby(PaperScale()).ValueOrDie();
  int64_t bytes = 0;
  for (auto _ : state) {
    std::string locations = ds.LocationsCsvString();
    std::string rentals = ds.RentalsCsvString();
    bytes += static_cast<int64_t>(locations.size() + rentals.size());
    benchmark::DoNotOptimize(locations);
    benchmark::DoNotOptimize(rentals);
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_DatasetCsvExport)->Unit(benchmark::kMillisecond);

void BM_DatasetFromCsvStrings(benchmark::State& state) {
  const Dataset ds = GenerateSyntheticMoby(PaperScale()).ValueOrDie();
  const std::string locations = ds.LocationsCsvString();
  const std::string rentals = ds.RentalsCsvString();
  for (auto _ : state) {
    Result<Dataset> parsed = Dataset::FromCsvStrings(locations, rentals);
    if (!parsed.ok()) state.SkipWithError(parsed.status().ToString().c_str());
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(locations.size() + rentals.size()));
}
BENCHMARK(BM_DatasetFromCsvStrings)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bikegraph::data

BENCHMARK_MAIN();
