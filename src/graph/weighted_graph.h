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
  /// Self-loops are ignored; negative weights are invalid.
  void add_edge(VertexId u, VertexId v, Weight w);

  /// add_edge for a builder that adds each pair at most once: appends
  /// without add_edge's O(degree) search for an existing {u, v}, which
  /// only a debug build checks for. Same result as add_edge otherwise.
  void add_unique_edge(VertexId u, VertexId v, Weight w);

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
