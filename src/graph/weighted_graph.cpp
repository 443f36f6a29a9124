#include "graph/weighted_graph.h"

#include <algorithm>
#include <cassert>

namespace lazyctrl::graph {

WeightedGraph::WeightedGraph(std::size_t vertex_count)
    : adjacency_(vertex_count),
      vertex_weights_(vertex_count, 1.0),
      total_vertex_weight_(static_cast<Weight>(vertex_count)) {}

void WeightedGraph::add_edge(VertexId u, VertexId v, Weight w) {
  assert(u < vertex_count() && v < vertex_count());
  assert(w >= 0);
  if (u == v || w <= 0) return;
  for (Neighbor& n : adjacency_[u]) {
    if (n.vertex == v) {
      n.weight += w;
      for (Neighbor& m : adjacency_[v]) {
        if (m.vertex == u) {
          m.weight += w;
          break;
        }
      }
      total_edge_weight_ += w;
      return;
    }
  }
  add_unique_edge(u, v, w);
}

void WeightedGraph::add_unique_edge(VertexId u, VertexId v, Weight w) {
  assert(u < vertex_count() && v < vertex_count());
  assert(w >= 0);
  assert(std::none_of(adjacency_[u].begin(), adjacency_[u].end(),
                      [v](const Neighbor& n) { return n.vertex == v; }));
  if (u == v || w <= 0) return;
  adjacency_[u].push_back({v, w});
  adjacency_[v].push_back({u, w});
  ++edge_count_;
  total_edge_weight_ += w;
}

void WeightedGraph::add_to_edge(VertexId u, std::size_t at_u, VertexId v,
                                std::size_t at_v, Weight w) {
  assert(u < vertex_count() && v < vertex_count());
  assert(w >= 0);
  assert(at_u < adjacency_[u].size() && adjacency_[u][at_u].vertex == v);
  assert(at_v < adjacency_[v].size() && adjacency_[v][at_v].vertex == u);
  if (u == v || w <= 0) return;
  adjacency_[u][at_u].weight += w;
  adjacency_[v][at_v].weight += w;
  total_edge_weight_ += w;
}

void WeightedGraph::set_vertex_weight(VertexId v, Weight w) {
  assert(v < vertex_count());
  assert(w >= 0);
  total_vertex_weight_ += w - vertex_weights_[v];
  vertex_weights_[v] = w;
}

Weight WeightedGraph::degree(VertexId v) const {
  Weight d = 0;
  for (const Neighbor& n : adjacency_[v]) d += n.weight;
  return d;
}

}  // namespace lazyctrl::graph
