// The detection API: the name round-trip must hold for every registry
// entry, bad names/options must surface proper Status errors, and every
// algorithm must fill the result fields its contract names.

#include "community/detector.h"

#include "core/checked_cast.h"

#include "community/infomap.h"
#include "community/modularity.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace bikegraph::community {

using bikegraph::AsIndex;
namespace {

using graphdb::WeightedGraph;
using graphdb::WeightedGraphBuilder;

/// Two cliques of size k with a weak bridge — planted structure for the
/// behavioral checks.
WeightedGraph TwoCliques(int k) {
  WeightedGraphBuilder b(AsIndex(2 * k));
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      (void)b.AddEdge(i, j, 1.0);
      (void)b.AddEdge(k + i, k + j, 1.0);
    }
  }
  (void)b.AddEdge(0, k, 0.5);
  return b.Build();
}

// ---------------------------------------------------------------------------
// (a) Registry and name round-trip.
// ---------------------------------------------------------------------------

TEST(DetectorRegistryTest, ListsAllFourAlgorithms) {
  const auto ids = ListAlgorithms();
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], AlgorithmId::kLouvain);
  EXPECT_EQ(ids[1], AlgorithmId::kLabelPropagation);
  EXPECT_EQ(ids[2], AlgorithmId::kFastGreedy);
  EXPECT_EQ(ids[3], AlgorithmId::kInfomap);
  EXPECT_EQ(AlgorithmRegistry().size(), ids.size());
}

TEST(DetectorRegistryTest, NameParseRoundTripForEveryEntry) {
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    EXPECT_EQ(AlgorithmName(info.id), info.name);
    auto parsed = ParseAlgorithm(info.name);
    ASSERT_TRUE(parsed.ok()) << info.name;
    EXPECT_EQ(*parsed, info.id);
    EXPECT_FALSE(info.description.empty());
    EXPECT_NE(info.run, nullptr);
  }
}

TEST(DetectorRegistryTest, ParseIsLenientAboutCaseAndSeparators) {
  EXPECT_EQ(*ParseAlgorithm("LOUVAIN"), AlgorithmId::kLouvain);
  EXPECT_EQ(*ParseAlgorithm("Label-Propagation"), AlgorithmId::kLabelPropagation);
  EXPECT_EQ(*ParseAlgorithm("lpa"), AlgorithmId::kLabelPropagation);
  EXPECT_EQ(*ParseAlgorithm("Fast Greedy"), AlgorithmId::kFastGreedy);
  EXPECT_EQ(*ParseAlgorithm("CNM"), AlgorithmId::kFastGreedy);
  EXPECT_EQ(*ParseAlgorithm("infomap-lite"), AlgorithmId::kInfomap);
  EXPECT_EQ(*ParseAlgorithm("map.equation"), AlgorithmId::kInfomap);
}

TEST(DetectorRegistryTest, RegistryEntriesRunThroughFunctionPointers) {
  WeightedGraph g = TwoCliques(6);
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    auto result = info.run(g, CommunityOptions{});
    ASSERT_TRUE(result.ok()) << info.name;
    EXPECT_EQ(result->algorithm, info.id);
    EXPECT_EQ(result->partition.CommunityCount(), 2u) << info.name;
  }
}

// ---------------------------------------------------------------------------
// (b) Error paths.
// ---------------------------------------------------------------------------

TEST(DetectorErrorTest, UnknownNameReturnsNotFound) {
  auto r = ParseAlgorithm("leiden");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // The error names the valid choices.
  EXPECT_NE(r.status().message().find("louvain"), std::string::npos);
  EXPECT_FALSE(ParseAlgorithm("").ok());
}

TEST(DetectorErrorTest, OutOfRangeAlgorithmIdIsRejected) {
  DetectSpec spec;
  spec.algorithm = static_cast<AlgorithmId>(99);
  auto r = Detect(TwoCliques(3), spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlgorithmName(static_cast<AlgorithmId>(99)), "unknown");
}

TEST(DetectorErrorTest, InvalidOptionsReturnInvalidArgument) {
  WeightedGraph g = TwoCliques(3);
  {
    DetectSpec spec;  // Louvain
    spec.options.resolution = 0.0;
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    DetectSpec spec;
    spec.algorithm = AlgorithmId::kLabelPropagation;
    spec.options.max_iterations = 0;
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    DetectSpec spec;
    spec.algorithm = AlgorithmId::kInfomap;
    spec.options.max_levels = -1;
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    DetectSpec spec;
    spec.algorithm = AlgorithmId::kFastGreedy;
    spec.options.min_gain = std::numeric_limits<double>::quiet_NaN();
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    DetectSpec spec;  // Louvain: non-finite gains and resolutions rejected
    spec.options.min_gain = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(Detect(g, spec).ok());
    spec.options.min_gain.reset();
    spec.options.resolution = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(Detect(g, spec).ok());
  }
  {
    DetectSpec spec;
    spec.algorithm = AlgorithmId::kInfomap;
    spec.options.min_improvement = std::numeric_limits<double>::quiet_NaN();
    auto r = Detect(g, spec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Fast-greedy merge options and result fields.
// ---------------------------------------------------------------------------

TEST(FastGreedyStopRuleTest, MergeCapStopsEarlyAndClearsConverged) {
  WeightedGraph g = TwoCliques(8);  // full run needs 14 merges
  auto full = Detect(g, {AlgorithmId::kFastGreedy, {}});
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->converged);
  ASSERT_GT(full->merges, 3u);

  CommunityOptions capped;
  capped.max_merges = 3;
  auto partial = Detect(g, {AlgorithmId::kFastGreedy, capped});
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->merges, 3u);
  EXPECT_FALSE(partial->converged);
  EXPECT_EQ(partial->partition.CommunityCount(), g.node_count() - 3);

  // A cap equal to the natural merge count forgoes nothing: still converged.
  CommunityOptions exact;
  exact.max_merges = full->merges;
  auto at_cap = Detect(g, {AlgorithmId::kFastGreedy, exact});
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap->merges, full->merges);
  EXPECT_TRUE(at_cap->converged);
  EXPECT_EQ(at_cap->partition.assignment, full->partition.assignment);
}

TEST(FastGreedyStopRuleTest, HighMinGainStopsMergingEntirely) {
  WeightedGraph g = TwoCliques(6);
  CommunityOptions opts;
  opts.min_gain = 1.0;  // no pair can beat ΔQ > 1
  auto r = Detect(g, {AlgorithmId::kFastGreedy, opts});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->merges, 0u);
  EXPECT_TRUE(r->converged);
  EXPECT_EQ(r->partition.CommunityCount(), g.node_count());
}

TEST(DetectorResultTest, ConvergedAndWallTimeArePopulated) {
  WeightedGraph g = TwoCliques(6);
  for (AlgorithmId id : ListAlgorithms()) {
    DetectSpec spec;
    spec.algorithm = id;
    auto r = Detect(g, spec);
    ASSERT_TRUE(r.ok()) << AlgorithmName(id);
    EXPECT_TRUE(r->converged) << AlgorithmName(id);
    EXPECT_GE(r->wall_time_ms, 0.0);
    EXPECT_GT(r->modularity, 0.3) << AlgorithmName(id);
    // Every backend reports the γ = 1 modularity of its own partition.
    EXPECT_DOUBLE_EQ(r->modularity, Modularity(g, r->partition))
        << AlgorithmName(id);
  }
}

TEST(DetectorResultTest, EmptyGraphIsHandledByAllAlgorithms) {
  WeightedGraphBuilder b(0);
  WeightedGraph g = b.Build();
  for (AlgorithmId id : ListAlgorithms()) {
    DetectSpec spec;
    spec.algorithm = id;
    auto r = Detect(g, spec);
    ASSERT_TRUE(r.ok()) << AlgorithmName(id);
    EXPECT_EQ(r->partition.node_count(), 0u);
    EXPECT_TRUE(r->converged);
  }
}

TEST(DetectorResultTest, InfomapQualityIsCodelengthNotModularity) {
  WeightedGraph g = TwoCliques(8);
  DetectSpec spec;
  spec.algorithm = AlgorithmId::kInfomap;
  auto r = Detect(g, spec);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->quality, MapEquationCodelength(g, r->partition));
  EXPECT_LT(r->quality, r->singleton_quality);
  EXPECT_NEAR(r->modularity, Modularity(g, r->partition), 1e-12);
}

}  // namespace
}  // namespace bikegraph::community
