// Tests for the graph-partitioning substrate: WeightedGraph, coarsening,
// FM refinement, the size-constrained MLkP partitioner, Stoer-Wagner and
// balanced bisection, and every partitioning result against the map-based
// kernels of graph_reference.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "graph/bisection.h"
#include "graph/coarsening.h"
#include "graph/fm_refinement.h"
#include "graph/min_cut.h"
#include "graph/multilevel_partitioner.h"
#include "graph/partition.h"
#include "graph/weighted_graph.h"
#include "graph_reference.h"

namespace lazyctrl::graph {
namespace {

/// A graph of `clusters` cliques (intra weight heavy) connected by a ring of
/// light edges — the canonical case where a good partitioner must find the
/// clusters.
WeightedGraph clustered_graph(std::size_t clusters, std::size_t size,
                              Weight intra, Weight inter) {
  WeightedGraph g(clusters * size);
  for (std::size_t c = 0; c < clusters; ++c) {
    const VertexId base = static_cast<VertexId>(c * size);
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = i + 1; j < size; ++j) {
        g.add_edge(base + i, base + j, intra);
      }
    }
    const VertexId next_base = static_cast<VertexId>(((c + 1) % clusters) * size);
    g.add_edge(base, next_base, inter);
  }
  return g;
}

WeightedGraph random_graph(std::size_t n, double edge_prob, Rng& rng) {
  WeightedGraph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.next_bool(edge_prob)) {
        g.add_edge(u, v, 1.0 + rng.next_double() * 9.0);
      }
    }
  }
  return g;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Same vertices, weights, edge count, total and adjacency lists, entry
/// by entry and bit for bit.
void expect_same_graph(const WeightedGraph& got, const WeightedGraph& want) {
  ASSERT_EQ(got.vertex_count(), want.vertex_count());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  EXPECT_EQ(bits(got.total_edge_weight()), bits(want.total_edge_weight()));
  EXPECT_EQ(bits(got.total_vertex_weight()), bits(want.total_vertex_weight()));
  for (VertexId v = 0; v < want.vertex_count(); ++v) {
    ASSERT_EQ(bits(got.vertex_weight(v)), bits(want.vertex_weight(v))) << v;
    const auto g = got.neighbors(v);
    const auto w = want.neighbors(v);
    ASSERT_EQ(g.size(), w.size()) << "vertex " << v;
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i].vertex, w[i].vertex) << "vertex " << v << " entry " << i;
      ASSERT_EQ(bits(g[i].weight), bits(w[i].weight))
          << "vertex " << v << " entry " << i;
    }
  }
}

TEST(WeightedGraphTest, EmptyGraph) {
  WeightedGraph g(0);
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.total_edge_weight(), 0.0);
}

TEST(WeightedGraphTest, AddEdgeIsSymmetric) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 2.5);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  ASSERT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].vertex, 1u);
  EXPECT_EQ(g.neighbors(1)[0].vertex, 0u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 2.5);
}

TEST(WeightedGraphTest, ParallelEdgesAccumulate) {
  WeightedGraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 2.0);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 3.0);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 3.0);
}

TEST(WeightedGraphTest, SelfLoopsAndZeroWeightIgnored) {
  WeightedGraph g(2);
  g.add_edge(0, 0, 5.0);
  g.add_edge(0, 1, 0.0);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(WeightedGraphTest, UniqueEdgeAppendMatchesAddEdge) {
  // Each pair once, in a random order and orientation, plus a self-loop
  // and a zero weight that both builders must ignore.
  Rng rng(5);
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  for (VertexId u = 0; u < 40; ++u) {
    for (VertexId v = u + 1; v < 40; ++v) {
      if (!rng.next_bool(0.3)) continue;
      const Weight w = rng.next_double() * 7.0;
      edges.emplace_back(rng.next_bool(0.5) ? u : v,
                         rng.next_bool(0.5) ? v : u, w);
    }
  }
  edges.emplace_back(3, 3, 2.0);
  edges.emplace_back(4, 9, 0.0);
  rng.shuffle(edges);

  WeightedGraph want(40), got(40);
  for (const auto& [u, v, w] : edges) {
    want.add_edge(u, v, w);
    got.add_unique_edge(u, v, w);
  }
  ASSERT_GT(want.edge_count(), 100u);
  expect_same_graph(got, want);
}

TEST(WeightedGraphTest, VertexWeights) {
  WeightedGraph g(3);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 3.0);
  g.set_vertex_weight(1, 5.0);
  EXPECT_DOUBLE_EQ(g.vertex_weight(1), 5.0);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 7.0);
}

TEST(WeightedGraphTest, Degree) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 2, 3.0);
  EXPECT_DOUBLE_EQ(g.degree(0), 5.0);
  EXPECT_DOUBLE_EQ(g.degree(2), 3.0);
}

TEST(PartitionTest, CutWeightCountsCrossEdgesOnce) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(1, 2, 5.0);
  Partition p{{0, 0, 1, 1}, 2};
  EXPECT_DOUBLE_EQ(cut_weight(g, p), 5.0);
  EXPECT_DOUBLE_EQ(normalized_cut(g, p), 5.0 / 7.0);
}

TEST(PartitionTest, PartWeights) {
  WeightedGraph g(3);
  g.set_vertex_weight(2, 4.0);
  Partition p{{0, 1, 1}, 2};
  const auto w = part_weights(g, p);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 5.0);
}

TEST(PartitionTest, FeasibilityChecks) {
  WeightedGraph g(3);
  Partition p{{0, 0, 1}, 2};
  EXPECT_TRUE(is_feasible(g, p, PartitionConstraints{2.0}));
  EXPECT_FALSE(is_feasible(g, p, PartitionConstraints{1.0}));
  Partition bad{{0, kUnassigned, 1}, 2};
  EXPECT_FALSE(is_feasible(g, bad, PartitionConstraints{10.0}));
}

TEST(PartitionTest, CompactRemovesEmptyParts) {
  Partition p{{0, 3, 3, 5}, 6};
  EXPECT_EQ(compact_parts(p), 3u);
  EXPECT_EQ(p.part_count, 3u);
  EXPECT_EQ(p.assignment[0], 0u);
  EXPECT_EQ(p.assignment[1], 1u);
  EXPECT_EQ(p.assignment[3], 2u);
}

TEST(CoarseningTest, PreservesTotalVertexWeight) {
  Rng rng(1);
  WeightedGraph g = random_graph(60, 0.2, rng);
  const CoarseLevel level = coarsen_once(g, rng);
  EXPECT_LT(level.graph.vertex_count(), g.vertex_count());
  EXPECT_NEAR(level.graph.total_vertex_weight(), g.total_vertex_weight(),
              1e-9);
}

TEST(CoarseningTest, PreservesNonCollapsedEdgeWeight) {
  // Edge weight can only disappear into collapsed pairs; coarse total +
  // collapsed internal weight == fine total.
  Rng rng(2);
  WeightedGraph g = random_graph(40, 0.3, rng);
  const CoarseLevel level = coarsen_once(g, rng);
  double internal = 0;
  for (VertexId u = 0; u < g.vertex_count(); ++u) {
    for (const Neighbor& n : g.neighbors(u)) {
      if (n.vertex > u &&
          level.fine_to_coarse[u] == level.fine_to_coarse[n.vertex]) {
        internal += n.weight;
      }
    }
  }
  EXPECT_NEAR(level.graph.total_edge_weight() + internal,
              g.total_edge_weight(), 1e-9);
}

TEST(CoarseningTest, MapCoversAllFineVertices) {
  Rng rng(3);
  WeightedGraph g = random_graph(50, 0.1, rng);
  const CoarseLevel level = coarsen_once(g, rng);
  ASSERT_EQ(level.fine_to_coarse.size(), g.vertex_count());
  for (VertexId cv : level.fine_to_coarse) {
    EXPECT_LT(cv, level.graph.vertex_count());
  }
}

TEST(CoarseningTest, CoarsenToReachesTargetOrStalls) {
  Rng rng(4);
  WeightedGraph g = random_graph(200, 0.1, rng);
  const auto levels = coarsen_to(g, 30, rng);
  ASSERT_FALSE(levels.empty());
  // Each level must shrink.
  std::size_t prev = g.vertex_count();
  for (const auto& level : levels) {
    EXPECT_LT(level.graph.vertex_count(), prev);
    prev = level.graph.vertex_count();
  }
}

TEST(FmRefinementTest, ImprovesBadPartitionOfClusters) {
  // Assign clusters deliberately wrongly; FM should recover most of it.
  // The constraint leaves slack (12 > 8) because the move-based refiner
  // needs transient imbalance to migrate vertices between parts.
  WeightedGraph g = clustered_graph(2, 8, 10.0, 1.0);
  Partition p;
  p.part_count = 2;
  p.assignment.resize(16);
  for (VertexId v = 0; v < 16; ++v) p.assignment[v] = v % 2;  // interleaved
  const Weight before = cut_weight(g, p);
  Rng rng(5);
  refine_partition(g, p, PartitionConstraints{12.0}, RefineOptions{}, rng);
  const Weight after = cut_weight(g, p);
  EXPECT_LT(after, before * 0.35);
  EXPECT_TRUE(is_feasible(g, p, PartitionConstraints{12.0}));
}

TEST(FmRefinementTest, NeverViolatesSizeConstraint) {
  Rng rng(6);
  WeightedGraph g = random_graph(40, 0.2, rng);
  Partition p;
  p.part_count = 4;
  p.assignment.resize(40);
  for (VertexId v = 0; v < 40; ++v) p.assignment[v] = v % 4;
  refine_partition(g, p, PartitionConstraints{12.0}, RefineOptions{}, rng);
  EXPECT_TRUE(is_feasible(g, p, PartitionConstraints{12.0}));
}

TEST(FmRefinementTest, RepairFixesOverweightParts) {
  Rng rng(7);
  WeightedGraph g = random_graph(30, 0.3, rng);
  Partition p;
  p.part_count = 2;
  p.assignment.assign(30, 0);  // everything in part 0
  ASSERT_FALSE(is_feasible(g, p, PartitionConstraints{10.0}));
  EXPECT_TRUE(repair_overweight(g, p, PartitionConstraints{10.0}, rng));
  EXPECT_TRUE(is_feasible(g, p, PartitionConstraints{10.0}));
}

TEST(FmRefinementTest, RepairReportsUnfixableSingleton) {
  WeightedGraph g(2);
  g.set_vertex_weight(0, 100.0);
  Partition p{{0, 1}, 2};
  Rng rng(8);
  EXPECT_FALSE(repair_overweight(g, p, PartitionConstraints{10.0}, rng));
}

TEST(MultilevelPartitionerTest, RecoversPlantedClusters) {
  WeightedGraph g = clustered_graph(4, 10, 10.0, 0.5);
  Rng rng(9);
  MultilevelPartitioner mp;
  Partition p = mp.partition(g, 4, PartitionConstraints{10.0}, rng);
  EXPECT_TRUE(is_feasible(g, p, PartitionConstraints{10.0}));
  // Each planted cluster should land in a single part.
  for (std::size_t c = 0; c < 4; ++c) {
    const PartId part = p.assignment[c * 10];
    for (std::size_t i = 1; i < 10; ++i) {
      EXPECT_EQ(p.assignment[c * 10 + i], part) << "cluster " << c;
    }
  }
  EXPECT_LT(normalized_cut(g, p), 0.02);
}

TEST(MultilevelPartitionerTest, EmptyAndSingletonGraphs) {
  Rng rng(10);
  MultilevelPartitioner mp;
  WeightedGraph empty(0);
  EXPECT_EQ(mp.partition(empty, 3, PartitionConstraints{5.0}, rng).part_count,
            0u);
  WeightedGraph one(1);
  Partition p = mp.partition(one, 3, PartitionConstraints{5.0}, rng);
  EXPECT_EQ(p.part_count, 1u);
  EXPECT_EQ(p.assignment[0], 0u);
}

TEST(MultilevelPartitionerTest, DeterministicGivenSeed) {
  WeightedGraph g = clustered_graph(3, 12, 5.0, 1.0);
  MultilevelPartitioner mp;
  Rng r1(77), r2(77);
  const Partition p1 = mp.partition(g, 3, PartitionConstraints{12.0}, r1);
  const Partition p2 = mp.partition(g, 3, PartitionConstraints{12.0}, r2);
  EXPECT_EQ(p1.assignment, p2.assignment);
}

// Property sweep: feasibility must hold for every (n, k, limit) combination
// on random graphs — the core guarantee SGI relies on.
class MlkpFeasibilityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 double>> {};

TEST_P(MlkpFeasibilityTest, AlwaysFeasible) {
  const auto [n, k, limit] = GetParam();
  Rng rng(n * 131 + k * 17 + static_cast<std::uint64_t>(limit));
  WeightedGraph g = random_graph(n, 0.08, rng);
  MultilevelPartitioner mp;
  Partition p = mp.partition(g, k, PartitionConstraints{limit}, rng);
  EXPECT_TRUE(is_feasible(g, p, PartitionConstraints{limit}))
      << "n=" << n << " k=" << k << " limit=" << limit;
  // Every vertex assigned.
  EXPECT_EQ(p.assignment.size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MlkpFeasibilityTest,
    ::testing::Values(std::make_tuple(10, 2, 6.0),
                      std::make_tuple(50, 5, 12.0),
                      std::make_tuple(100, 4, 30.0),
                      std::make_tuple(100, 10, 11.0),
                      std::make_tuple(273, 6, 46.0),  // the paper's scale
                      std::make_tuple(60, 60, 1.0),
                      std::make_tuple(40, 1, 40.0),
                      std::make_tuple(200, 20, 10.0)));

TEST(StoerWagnerTest, KnownTinyGraph) {
  // Two triangles joined by a single light edge: min cut = that edge.
  WeightedGraph g(6);
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = u + 1; v < 3; ++v) g.add_edge(u, v, 10.0);
  }
  for (VertexId u = 3; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) g.add_edge(u, v, 10.0);
  }
  g.add_edge(2, 3, 1.5);
  const MinCutResult r = stoer_wagner_min_cut(g);
  EXPECT_DOUBLE_EQ(r.cut_weight, 1.5);
  // The side must be exactly one of the triangles.
  EXPECT_EQ(r.side.size(), 3u);
}

TEST(StoerWagnerTest, DisconnectedGraphHasZeroCut) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 3.0);
  g.add_edge(2, 3, 4.0);
  EXPECT_DOUBLE_EQ(stoer_wagner_min_cut(g).cut_weight, 0.0);
}

TEST(StoerWagnerTest, SingleVertex) {
  WeightedGraph g(1);
  EXPECT_DOUBLE_EQ(stoer_wagner_min_cut(g).cut_weight, 0.0);
}

TEST(StoerWagnerTest, MatchesBruteForceOnRandomGraphs) {
  // Exhaustive 2^(n-1) check on small graphs.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    WeightedGraph g = random_graph(9, 0.5, rng);
    const MinCutResult r = stoer_wagner_min_cut(g);

    double best = std::numeric_limits<double>::max();
    const std::size_t n = g.vertex_count();
    for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
      Partition p;
      p.part_count = 2;
      p.assignment.resize(n);
      for (std::size_t v = 0; v < n; ++v) {
        p.assignment[v] = (v < n - 1 && ((mask >> v) & 1)) ? 1 : 0;
      }
      best = std::min(best, cut_weight(g, p));
    }
    EXPECT_NEAR(r.cut_weight, best, 1e-9) << "seed=" << seed;
  }
}

TEST(BisectionTest, SplitsClustersApart) {
  WeightedGraph g = clustered_graph(2, 10, 8.0, 0.5);
  Rng rng(11);
  const BisectionResult r = min_bisection(g, 10.0, rng);
  // Cut should be the single light ring edge pair (2 x 0.5).
  EXPECT_LE(r.cut_weight, 1.0 + 1e-9);
  double side_w[2] = {0, 0};
  for (PartId s : r.side) {
    ASSERT_LT(s, 2u);
    side_w[s] += 1.0;
  }
  EXPECT_DOUBLE_EQ(side_w[0], 10.0);
  EXPECT_DOUBLE_EQ(side_w[1], 10.0);
}

TEST(BisectionTest, RespectsSideLimit) {
  Rng rng(12);
  WeightedGraph g = random_graph(30, 0.2, rng);
  const BisectionResult r = min_bisection(g, 16.0, rng);
  double side_w[2] = {0, 0};
  for (std::size_t v = 0; v < 30; ++v) side_w[r.side[v]] += 1.0;
  EXPECT_LE(side_w[0], 16.0);
  EXPECT_LE(side_w[1], 16.0);
}

TEST(BisectionTest, EmptyGraph) {
  WeightedGraph g(0);
  Rng rng(13);
  const BisectionResult r = min_bisection(g, 1.0, rng);
  EXPECT_TRUE(r.side.empty());
  EXPECT_DOUBLE_EQ(r.cut_weight, 0.0);
}

// --- src/graph against the map-based kernels it replaced ---
//
// Refinement scans a vertex's parts in a dense row and falls back to the
// hash map's iteration order only on a near-tie; coarsening finds
// repeated coarse edges through a position table. Both must reproduce
// graph_reference.h result for result and bit for bit, on graphs where
// gains tie exactly (integer counts, unit-weight grids and tori,
// hand-built ties), nearly (within the greedy pass's 1e-12) and never
// (real-valued estimates, where sums in another order differ in the
// last bits).

/// Integer flow counts over an hour, as in a history graph.
WeightedGraph counted_graph(std::size_t n, double edge_prob, Rng& rng) {
  WeightedGraph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.next_bool(edge_prob)) {
        g.add_edge(u, v, static_cast<Weight>(1 + rng.next_below(12)) / 3600);
      }
    }
  }
  return g;
}

/// Communities of `size` with integer counts, denser inside.
WeightedGraph counted_communities(std::size_t communities, std::size_t size,
                                  Rng& rng) {
  const std::size_t n = communities * size;
  WeightedGraph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      const bool same = u / size == v / size;
      if (rng.next_bool(same ? 0.3 : 0.02)) {
        g.add_edge(u, v, static_cast<Weight>(1 + rng.next_below(6)) / 60);
      }
    }
  }
  return g;
}

/// DGM-like estimates: decayed sums of window counts, no two alike.
WeightedGraph estimated_graph(std::size_t n, double edge_prob, Rng& rng) {
  WeightedGraph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (!rng.next_bool(edge_prob)) continue;
      double estimate = 0;
      for (int window = 0; window < 4; ++window) {
        estimate = 0.7 * estimate +
                   static_cast<double>(rng.next_below(40)) / 3600.0;
      }
      if (estimate > 0) g.add_edge(u, v, estimate);
    }
  }
  return g;
}

/// A rows x cols grid of unit weights, wrapped into a torus if asked.
WeightedGraph unit_grid(std::size_t rows, std::size_t cols, bool torus) {
  WeightedGraph g(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto v = static_cast<VertexId>(r * cols + c);
      if (c + 1 < cols || torus) {
        g.add_edge(v, static_cast<VertexId>(r * cols + (c + 1) % cols), 1.0);
      }
      if (r + 1 < rows || torus) {
        g.add_edge(v, static_cast<VertexId>((r + 1) % rows * cols + c), 1.0);
      }
    }
  }
  return g;
}

/// Tie gadgets under a fixed partition: each centre sits in part 0 with
/// one neighbour there and two in each of parts 1 and 2, so its gains
/// into parts 1 and 2 tie exactly (`skew` 0), differ by less than the
/// greedy pass's 1e-12 (4e-13) or by more (2e-12). Every third gadget's
/// inner neighbour also leans to part 2, consecutive gadgets are chained
/// by light edges, and the last vertex sits in part 3.
struct TieCase {
  WeightedGraph graph;
  Partition start;
};

TieCase tie_gadgets(std::size_t gadgets, Weight skew) {
  constexpr std::size_t kGadget = 6;  // centre, 1 inside, 2 + 2 outside
  TieCase t{WeightedGraph(gadgets * kGadget), {}};
  t.start.part_count = 4;
  for (std::size_t i = 0; i < gadgets; ++i) {
    const auto c = static_cast<VertexId>(i * kGadget);
    const PartId parts[kGadget] = {0, 0, 1, 1, 2, 2};
    for (const PartId part : parts) t.start.assignment.push_back(part);
    t.graph.add_edge(c, c + 1, 1.0);
    t.graph.add_edge(c, c + 2, 1.0 + skew);
    t.graph.add_edge(c, c + 3, 1.0);
    t.graph.add_edge(c, c + 4, 1.0);
    t.graph.add_edge(c, c + 5, 1.0);
    if (i % 3 == 2) t.graph.add_edge(c + 1, c + 4, 0.5);
    if (i > 0) t.graph.add_edge(c, c - kGadget + 1, 0.25);
  }
  t.start.assignment.back() = 3;
  return t;
}

struct Family {
  const char* name;
  WeightedGraph graph;
  std::size_t k;
  Weight limit;
};

std::vector<Family> reference_families() {
  Rng rng(2024);
  std::vector<Family> f;
  f.push_back({"counted_120", counted_graph(120, 0.08, rng), 4, 34});
  f.push_back({"counted_300", counted_graph(300, 0.03, rng), 9, 36});
  f.push_back({"counted_1100", counted_graph(1100, 0.008, rng), 22, 50});
  f.push_back({"communities", counted_communities(8, 25, rng), 8, 28});
  f.push_back({"estimated_150", estimated_graph(150, 0.08, rng), 5, 33});
  f.push_back({"estimated_1050", estimated_graph(1050, 0.008, rng), 21, 52});
  f.push_back({"grid_12x20", unit_grid(12, 20, false), 6, 44});
  f.push_back({"torus_16", unit_grid(16, 16, true), 16, 16});
  f.push_back({"torus_24", unit_grid(24, 24, true), 24, 24});
  return f;
}

/// A start for refinement: vertices dealt to random parts.
Partition random_start(const WeightedGraph& g, std::size_t k, Rng& rng) {
  Partition p;
  p.part_count = k;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    p.assignment.push_back(static_cast<PartId>(rng.next_below(k)));
  }
  return p;
}

void expect_same_partition(const Partition& got, const Partition& want) {
  EXPECT_EQ(got.part_count, want.part_count);
  ASSERT_EQ(got.assignment.size(), want.assignment.size());
  for (std::size_t v = 0; v < want.assignment.size(); ++v) {
    ASSERT_EQ(got.assignment[v], want.assignment[v]) << "vertex " << v;
  }
}

/// Runs `fn(graph, start, limit, seed)` over every family (two random
/// starts each) and the tie gadgets (their own start).
template <class Fn>
void for_each_refinement_case(Fn&& fn) {
  for (const Family& f : reference_families()) {
    for (const std::uint64_t seed : {1, 2}) {
      SCOPED_TRACE(testing::Message() << f.name << " seed " << seed);
      Rng rng(seed);
      fn(f.graph, random_start(f.graph, f.k, rng), f.limit, seed);
    }
  }
  for (const Weight skew : {0.0, 4e-13, 2e-12}) {
    SCOPED_TRACE(testing::Message() << "tie gadgets, skew " << skew);
    const TieCase t = tie_gadgets(12, skew);
    fn(t.graph, t.start, 40.0, 3);
  }
}

TEST(ReferenceEquivalenceTest, RefinePartitionMatchesMapReference) {
  const std::uint64_t ties_before = tie_broken_visits();
  for_each_refinement_case([](const WeightedGraph& g, const Partition& start,
                              Weight limit, std::uint64_t seed) {
    const PartitionConstraints c{limit};
    Partition got = start, want = start;
    Rng got_rng(seed), want_rng(seed);
    const Weight got_gain =
        refine_partition(g, got, c, RefineOptions{}, got_rng);
    const Weight want_gain =
        reference::refine_partition(g, want, c, RefineOptions{}, want_rng);
    EXPECT_EQ(bits(got_gain), bits(want_gain));
    EXPECT_EQ(got_rng.state(), want_rng.state());
    expect_same_partition(got, want);
  });
  EXPECT_GT(tie_broken_visits(), ties_before)
      << "no visit took the near-tie rule";
}

TEST(ReferenceEquivalenceTest, PlanBoundedMovesMatchesMapReference) {
  for_each_refinement_case([](const WeightedGraph& g, const Partition& start,
                              Weight limit, std::uint64_t) {
    const PartitionConstraints c{limit};
    // No floor, and the regrouper's floor of a fraction of the mean
    // incident weight.
    const Weight floor = 0.05 * 2 * g.total_edge_weight() /
                         static_cast<Weight>(g.vertex_count());
    for (const Weight min_gain : {0.0, floor}) {
      Partition got = start, want = start;
      const auto got_moves = plan_bounded_moves(g, got, c, 40, min_gain);
      const auto want_moves =
          reference::plan_bounded_moves(g, want, c, 40, min_gain);
      ASSERT_EQ(got_moves.size(), want_moves.size());
      for (std::size_t i = 0; i < want_moves.size(); ++i) {
        EXPECT_EQ(got_moves[i].vertex, want_moves[i].vertex) << i;
        EXPECT_EQ(got_moves[i].from, want_moves[i].from) << i;
        EXPECT_EQ(got_moves[i].to, want_moves[i].to) << i;
        EXPECT_EQ(bits(got_moves[i].gain), bits(want_moves[i].gain)) << i;
      }
      expect_same_partition(got, want);
    }
  });
}

TEST(ReferenceEquivalenceTest, RepairOverweightMatchesMapReference) {
  for (const Family& f : reference_families()) {
    SCOPED_TRACE(f.name);
    // Everything crowded into the lower half of the parts, under the
    // family's limit and under one so tight that repair opens parts.
    Rng rng(5);
    Partition start = random_start(f.graph, f.k, rng);
    for (PartId& part : start.assignment) part /= 2;
    for (const Weight limit : {f.limit, f.limit / 3}) {
      const PartitionConstraints c{limit};
      Partition got = start, want = start;
      Rng got_rng(7), want_rng(7);
      EXPECT_EQ(repair_overweight(f.graph, got, c, got_rng),
                reference::repair_overweight(f.graph, want, c, want_rng));
      EXPECT_EQ(got_rng.state(), want_rng.state());
      expect_same_partition(got, want);
    }
  }
}

TEST(ReferenceEquivalenceTest, PartitionerMatchesMapReference) {
  // IniGroup's three restarts on the smaller graphs only: a restart runs
  // the same code again.
  for (const Family& f : reference_families()) {
    for (const int restarts : {1, 3}) {
      if (restarts > 1 && f.graph.vertex_count() > 200) continue;
      SCOPED_TRACE(testing::Message() << f.name << " restarts " << restarts);
      const MlkpOptions options{.restarts = restarts};
      const PartitionConstraints c{f.limit};
      Rng got_rng(11), want_rng(11);
      const Partition got =
          MultilevelPartitioner(options).partition(f.graph, f.k, c, got_rng);
      const Partition want =
          reference::partition(f.graph, f.k, c, want_rng, options);
      EXPECT_EQ(got_rng.state(), want_rng.state());
      expect_same_partition(got, want);
    }
  }
}

TEST(ReferenceEquivalenceTest, MinBisectionMatchesMapReference) {
  for (const Family& f : reference_families()) {
    // A tight limit, and a looser one on the smaller graphs.
    const Weight half = f.graph.total_vertex_weight() / 2;
    for (const Weight limit : {half + 1, half * 1.2}) {
      if (limit > half + 1 && f.graph.vertex_count() > 600) continue;
      SCOPED_TRACE(testing::Message() << f.name << " limit " << limit);
      Rng got_rng(13), want_rng(13);
      const BisectionResult got = min_bisection(f.graph, limit, got_rng);
      const BisectionResult want =
          reference::min_bisection(f.graph, limit, want_rng);
      EXPECT_EQ(got_rng.state(), want_rng.state());
      EXPECT_EQ(bits(got.cut_weight), bits(want.cut_weight));
      EXPECT_EQ(got.side, want.side);
    }
  }
}

TEST(ReferenceEquivalenceTest, CoarseningMatchesAddEdgeReference) {
  // Every level down to a handful of vertices, so repeated coarse pairs
  // are the rule, not the exception.
  for (const Family& f : reference_families()) {
    SCOPED_TRACE(f.name);
    Rng got_rng(17), want_rng(17);
    WeightedGraph current = f.graph;
    for (int level = 0; current.vertex_count() > 8 && level < 12; ++level) {
      SCOPED_TRACE(testing::Message() << "level " << level);
      CoarseLevel got = coarsen_once(current, got_rng);
      const CoarseLevel want = reference::coarsen_once(current, want_rng);
      EXPECT_EQ(got.fine_to_coarse, want.fine_to_coarse);
      expect_same_graph(got.graph, want.graph);
      if (HasFatalFailure()) return;
      current = std::move(got.graph);
    }
  }
}

}  // namespace
}  // namespace lazyctrl::graph
