// Warm-start (CommunityOptions::initial_partition) coverage: empty-seed
// runs must stay bit-identical to the cold path, singleton seeds must be
// indistinguishable from no seed, and real seeds must be honoured by the
// Louvain and label-propagation backends.

#include <cstdint>
#include <vector>

#include "community/detector.h"
#include "community/modularity.h"
#include "community/partition.h"
#include "core/rng.h"
#include "graphdb/weighted_graph.h"

#include <gtest/gtest.h>

#include "core/checked_cast.h"

using bikegraph::AsIndex;

namespace bikegraph::community {
namespace {

using graphdb::WeightedGraph;
using graphdb::WeightedGraphBuilder;

/// A planted-partition graph: `k` cliques of `size` nodes with random
/// intra-clique weights and a sparse ring of weak inter-clique edges.
WeightedGraph CliqueRing(int k, int size, uint64_t seed) {
  WeightedGraphBuilder b(static_cast<size_t>(k) * AsIndex(size));
  Rng rng(seed);
  for (int q = 0; q < k; ++q) {
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        (void)b.AddEdge(q * size + i, q * size + j, 0.5 + rng.NextDouble());
      }
    }
    (void)b.AddEdge(q * size, ((q + 1) % k) * size + 1, 0.5);
  }
  return b.Build();
}

/// The planted ground truth of CliqueRing.
Partition PlantedPartition(int k, int size) {
  Partition p;
  p.assignment.resize(static_cast<size_t>(k) * AsIndex(size));
  for (int q = 0; q < k; ++q) {
    for (int i = 0; i < size; ++i) p.assignment[AsIndex(q * size + i)] = q;
  }
  return p;
}

void ExpectSameResult(const CommunityResult& a, const CommunityResult& b) {
  EXPECT_EQ(a.partition.assignment, b.partition.assignment);
  EXPECT_EQ(a.modularity, b.modularity);  // bit-identical, not just close
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.level_partitions.size(), b.level_partitions.size());
}

class WarmStartAlgorithms
    : public ::testing::TestWithParam<AlgorithmId> {};

// A seed of singletons is exactly the cold start's initial state, so the
// result must match the unseeded run bit for bit — this locks the claim
// that adding the field changed nothing for existing callers.
TEST_P(WarmStartAlgorithms, SingletonSeedMatchesColdBitForBit) {
  for (uint64_t graph_seed : {7u, 21u, 99u}) {
    WeightedGraph g = CliqueRing(6, 8, graph_seed);

    DetectSpec cold;
    cold.algorithm = GetParam();
    auto cold_result = Detect(g, cold);
    ASSERT_TRUE(cold_result.ok());

    DetectSpec seeded = cold;
    seeded.options.initial_partition = Partition::Singletons(g.node_count());
    auto seeded_result = Detect(g, seeded);
    ASSERT_TRUE(seeded_result.ok());

    ExpectSameResult(*cold_result, *seeded_result);
  }
}

TEST_P(WarmStartAlgorithms, MismatchedSeedSizeRejected) {
  WeightedGraph g = CliqueRing(3, 5, 1);
  DetectSpec spec;
  spec.algorithm = GetParam();
  spec.options.initial_partition = Partition::Singletons(g.node_count() + 1);
  EXPECT_FALSE(Detect(g, spec).ok());
}

// Seeding with the planted communities must not lose quality: every move
// is strictly improving, so the warm result's modularity is at least the
// seed's.
TEST_P(WarmStartAlgorithms, PlantedSeedNeverDegrades) {
  WeightedGraph g = CliqueRing(6, 8, 3);
  Partition planted = PlantedPartition(6, 8);
  const double planted_q = Modularity(g, planted);
  ASSERT_GT(planted_q, 0.0);

  DetectSpec spec;
  spec.algorithm = GetParam();
  spec.options.initial_partition = planted;
  auto result = Detect(g, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->modularity, planted_q - 1e-9);
  // Valid dense partition over all nodes.
  ASSERT_EQ(result->partition.node_count(), g.node_count());
  EXPECT_GE(result->partition.CommunityCount(), 1u);
}

// Labels need not be dense: an arbitrary relabelling of the same grouping
// must behave like the renumbered one.
TEST_P(WarmStartAlgorithms, NonDenseSeedLabelsAccepted) {
  WeightedGraph g = CliqueRing(4, 6, 11);
  Partition sparse = PlantedPartition(4, 6);
  for (int32_t& label : sparse.assignment) label = label * 7 + 3;
  Partition dense = PlantedPartition(4, 6);

  DetectSpec spec;
  spec.algorithm = GetParam();
  spec.options.initial_partition = sparse;
  auto from_sparse = Detect(g, spec);
  spec.options.initial_partition = dense;
  auto from_dense = Detect(g, spec);
  ASSERT_TRUE(from_sparse.ok());
  ASSERT_TRUE(from_dense.ok());
  EXPECT_EQ(from_sparse->partition.assignment,
            from_dense->partition.assignment);
}

INSTANTIATE_TEST_SUITE_P(LouvainAndLabelProp, WarmStartAlgorithms,
                         ::testing::Values(AlgorithmId::kLouvain,
                                           AlgorithmId::kLabelPropagation),
                         [](const auto& param_info) {
                           return std::string(
                               AlgorithmName(param_info.param));
                         });

// Label propagation seeded with its own converged labels has nothing to
// do: one confirmation pass and out.
TEST(WarmStartTest, LabelPropagationSelfSeedConvergesImmediately) {
  WeightedGraph g = CliqueRing(6, 8, 5);
  DetectSpec spec;
  spec.algorithm = AlgorithmId::kLabelPropagation;
  auto cold = Detect(g, spec);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->converged);

  spec.options.initial_partition = cold->partition;
  auto warm = Detect(g, spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->converged);
  EXPECT_EQ(warm->iterations, 1);
  EXPECT_EQ(warm->partition.assignment, cold->partition.assignment);
}

// Louvain seeded with its own final partition must keep it (no strictly
// improving move exists out of a Louvain-stable partition at level 0, and
// the seed beats singletons).
TEST(WarmStartTest, LouvainSelfSeedIsStable) {
  WeightedGraph g = CliqueRing(6, 8, 17);
  DetectSpec spec;
  auto cold = Detect(g, spec);
  ASSERT_TRUE(cold.ok());

  spec.options.initial_partition = cold->partition;
  auto warm = Detect(g, spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->partition.assignment, cold->partition.assignment);
  EXPECT_EQ(warm->modularity, cold->modularity);
}

// Algorithms that don't support seeding ignore it rather than erroring
// (the registry contract: the option matrix marks them "ignored").
TEST(WarmStartTest, FastGreedyAndInfomapIgnoreSeed) {
  WeightedGraph g = CliqueRing(4, 6, 23);
  for (AlgorithmId id : {AlgorithmId::kFastGreedy, AlgorithmId::kInfomap}) {
    DetectSpec cold;
    cold.algorithm = id;
    auto cold_result = Detect(g, cold);
    ASSERT_TRUE(cold_result.ok());

    DetectSpec seeded = cold;
    seeded.options.initial_partition = PlantedPartition(4, 6);
    auto seeded_result = Detect(g, seeded);
    ASSERT_TRUE(seeded_result.ok());
    EXPECT_EQ(cold_result->partition.assignment,
              seeded_result->partition.assignment);
  }
}

// A direct backend call with the field unset matches the unseeded
// Detect() exactly (spot check on Louvain).
TEST(WarmStartTest, UnsetFieldMatchesDirectBackendCall) {
  WeightedGraph g = CliqueRing(5, 7, 31);
  DetectSpec spec;
  auto detect = Detect(g, spec);
  ASSERT_TRUE(detect.ok());
  auto unified = internal::DetectLouvain(g, CommunityOptions{});
  ASSERT_TRUE(unified.ok());
  EXPECT_EQ(detect->partition.assignment, unified->partition.assignment);
  EXPECT_EQ(detect->modularity, unified->modularity);
}

}  // namespace
}  // namespace bikegraph::community
