// Undirected weighted graph used as the "intensity graph" of the switch
// grouping problem (paper §III-C1): vertices are edge switches, edge weights
// are normalized traffic intensities (new flows per second), vertex weights
// model switch size (hosts / table load) for the size constraint.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lazyctrl::graph {

using VertexId = std::uint32_t;
using Weight = double;

struct Neighbor {
  VertexId vertex;
  Weight weight;
};

class WeightedGraph {
 public:
  /// Creates a graph with `vertex_count` vertices, all of vertex weight 1.
  explicit WeightedGraph(std::size_t vertex_count);

  /// Adds (or accumulates onto an existing) undirected edge {u, v}.
  /// Self-loops are ignored; negative weights are invalid. Cost: O(deg u)
  /// to look for v in u's list, plus O(deg v) to find u in v's when the
  /// edge exists, so a builder that adds many repeated pairs pays the
  /// degree per addition. Such builders track where each edge sits and use
  /// add_unique_edge and add_to_edge instead (graph::contract).
  void add_edge(VertexId u, VertexId v, Weight w);

  /// add_edge for a builder that adds each pair at most once: appends
  /// without add_edge's O(degree) search for an existing {u, v}, which
  /// only a debug build checks for. Same result as add_edge otherwise.
  /// The new entries sit last in u's and v's lists.
  void add_unique_edge(VertexId u, VertexId v, Weight w);

  /// add_edge onto an edge {u, v} that exists, for a builder that knows
  /// where it sits: entry `at_u` of u's list names v and entry `at_v` of
  /// v's names u (only a debug build checks). O(1); the same weights and
  /// total as add_edge.
  void add_to_edge(VertexId u, std::size_t at_u, VertexId v,
                   std::size_t at_v, Weight w);

  void set_vertex_weight(VertexId v, Weight w);

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }
  [[nodiscard]] Weight vertex_weight(VertexId v) const {
    return vertex_weights_[v];
  }
  [[nodiscard]] Weight total_vertex_weight() const noexcept {
    return total_vertex_weight_;
  }
  [[nodiscard]] Weight total_edge_weight() const noexcept {
    return total_edge_weight_;
  }
  [[nodiscard]] std::span<const Neighbor> neighbors(VertexId v) const {
    return adjacency_[v];
  }
  /// Weighted degree (sum of incident edge weights).
  [[nodiscard]] Weight degree(VertexId v) const;

 private:
  std::vector<std::vector<Neighbor>> adjacency_;
  std::vector<Weight> vertex_weights_;
  std::size_t edge_count_ = 0;
  Weight total_vertex_weight_ = 0;
  Weight total_edge_weight_ = 0;
};

}  // namespace lazyctrl::graph
