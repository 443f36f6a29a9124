#include "graph/fm_refinement.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory_resource>
#include <numeric>
#include <unordered_map>

namespace lazyctrl::graph {

namespace {

std::atomic<std::uint64_t> g_tie_broken_visits{0};

/// Connectivity of `v` to each part among its neighbours: part -> sum of
/// edge weights from v into that part, as a hash map. Only near-ties read
/// it (choose_move): they go to the first part in its iteration order,
/// the tie order every grouping the repo pins (GroupingFingerprintTest)
/// was computed with. That order depends only on the keys, the hash and
/// the insertion order, as for a heap-allocated std::unordered_map; the
/// nodes and buckets come from a stack arena that dies with the map, so a
/// visit reaches the heap only past kArenaBytes. A map kept across visits
/// must not replace this one: clear() keeps the grown bucket count and
/// reserve() sets one, and a different bucket count can change the order.
class PartConnectivity {
 public:
  PartConnectivity(const WeightedGraph& g, const Partition& p, VertexId v) {
    for (const Neighbor& n : g.neighbors(v)) {
      conn_[p.assignment[n.vertex]] += n.weight;
    }
  }
  PartConnectivity(const PartConnectivity&) = delete;
  PartConnectivity& operator=(const PartConnectivity&) = delete;

  [[nodiscard]] auto begin() const { return conn_.begin(); }
  [[nodiscard]] auto end() const { return conn_.end(); }

 private:
  // Room for the nodes and bucket arrays of ~60 parts. Left uninitialized:
  // the arena hands it out as raw storage.
  static constexpr std::size_t kArenaBytes = 4096;
  alignas(std::max_align_t) std::byte buffer_[kArenaBytes];
  std::pmr::monotonic_buffer_resource arena_{buffer_, kArenaBytes};
  std::pmr::unordered_map<PartId, Weight> conn_{&arena_};
};

/// The connectivity of one visited vertex: the edge weight from it into
/// each part, dense by part id, plus the parts it reaches in first-seen
/// order. load() adds the weights in neighbour order, as the hash map
/// does, so every sum and gain is bit-identical to the map's; clear()
/// zeroes the entries load() touched, so the row is all zero between
/// visits and no visit allocates. Stored edge weights are positive
/// (WeightedGraph drops the rest), so a zero entry is an unseen part.
class ConnectivityRow {
 public:
  explicit ConnectivityRow(std::size_t parts) { grow(parts); }

  /// Makes room for part ids below `parts`.
  void grow(std::size_t parts) {
    if (parts <= weight_.size()) return;
    weight_.resize(parts, 0);
    parts_.reserve(parts);
  }

  void load(const WeightedGraph& g, const Partition& p, VertexId v) {
    // A missed clear() would fold the last visit into this one's sums.
    assert(parts_.empty() && std::all_of(weight_.begin(), weight_.end(),
                                         [](Weight w) { return w == 0; }));
    for (const Neighbor& n : g.neighbors(v)) {
      const PartId part = p.assignment[n.vertex];
      assert(part < weight_.size());
      if (weight_[part] == 0) parts_.push_back(part);
      weight_[part] += n.weight;
    }
  }

  void clear() {
    for (const PartId part : parts_) weight_[part] = 0;
    parts_.clear();
  }

  /// Edge weight from the vertex into `part` (0 when it has no neighbour
  /// there).
  [[nodiscard]] Weight to(PartId part) const { return weight_[part]; }
  [[nodiscard]] const std::vector<PartId>& parts() const { return parts_; }

 private:
  std::vector<Weight> weight_;
  std::vector<PartId> parts_;
};

/// A move of the visited vertex, or none (part kUnassigned).
struct Choice {
  PartId part = kUnassigned;
  Weight gain = 0;
};

/// Scans v's admissible moves (to another part with room for v) with a
/// running best that starts at `best` and is replaced by any gain above
/// it plus `tolerance`, and returns the last replacement. Which move that
/// is depends on the scan order only when the best admissible gain beats
/// `best` by more than `tolerance` but some other admissible gain by no
/// more: only then is the vertex's PartConnectivity built and scanned in
/// its iteration order. Otherwise the result is the best gain's part, or
/// none, in any order.
Choice choose_move(const WeightedGraph& g, const Partition& p, VertexId v,
                   const std::vector<Weight>& weights,
                   const PartitionConstraints& c, Weight best,
                   Weight tolerance, ConnectivityRow& row) {
  const PartId from = p.assignment[v];
  const Weight vw = g.vertex_weight(v);
  const auto admissible = [&](PartId part) {
    return part != from && weights[part] + vw <= c.max_part_weight;
  };

  row.load(g, p, v);
  const Weight internal = row.to(from);
  constexpr Weight kNone = -std::numeric_limits<Weight>::infinity();
  Choice top{kUnassigned, kNone};
  Weight second = kNone;
  for (const PartId part : row.parts()) {
    if (!admissible(part)) continue;
    const Weight gain = row.to(part) - internal;
    if (gain > top.gain) {
      second = top.gain;
      top = {part, gain};
    } else if (gain > second) {
      second = gain;
    }
  }
  row.clear();
  if (top.gain <= best + tolerance) return {};
  if (top.gain > second + tolerance) return top;

  ++g_tie_broken_visits;
  Choice choice;
  for (const auto& [part, w] : PartConnectivity(g, p, v)) {
    if (!admissible(part)) continue;
    const Weight gain = w - internal;
    if (gain > best + tolerance) {
      best = gain;
      choice = {part, gain};
    }
  }
  return choice;
}

/// One greedy pass: move boundary vertices to their best positive-gain part
/// subject to the size constraint. Returns the gain achieved.
Weight greedy_pass(const WeightedGraph& g, Partition& p,
                   const PartitionConstraints& c, std::vector<Weight>& weights,
                   std::vector<VertexId>& order, ConnectivityRow& row,
                   Rng& rng) {
  rng.shuffle(order);
  Weight pass_gain = 0;
  for (VertexId v : order) {
    const Choice move = choose_move(g, p, v, weights, c, 0, 1e-12, row);
    if (move.part == kUnassigned) continue;
    const Weight vw = g.vertex_weight(v);
    weights[p.assignment[v]] -= vw;
    weights[move.part] += vw;
    p.assignment[v] = move.part;
    pass_gain += move.gain;
  }
  return pass_gain;
}

/// One Fiduccia-Mattheyses pass: a sequence of best-admissible moves (each
/// vertex at most once, negative gains allowed), keeping the prefix with the
/// best cumulative gain and rolling the rest back. Escapes local optima the
/// greedy pass cannot. O(n^2 * degree) — used on small graphs only.
Weight fm_pass(const WeightedGraph& g, Partition& p,
               const PartitionConstraints& c, std::vector<Weight>& weights,
               ConnectivityRow& row) {
  const std::size_t n = g.vertex_count();
  std::vector<char> moved(n, 0);
  struct Move {
    VertexId v;
    PartId from;
    PartId to;
  };
  std::vector<Move> sequence;
  sequence.reserve(n);
  Weight cum = 0, best_cum = 0;
  std::size_t best_len = 0;

  for (std::size_t step = 0; step < n; ++step) {
    VertexId best_v = 0;
    Choice best{kUnassigned, -std::numeric_limits<Weight>::max()};
    for (VertexId v = 0; v < n; ++v) {
      if (moved[v]) continue;
      const Choice move = choose_move(g, p, v, weights, c, best.gain, 0, row);
      if (move.part != kUnassigned) {
        best = move;
        best_v = v;
      }
    }
    if (best.part == kUnassigned) break;  // no admissible move left

    const PartId from = p.assignment[best_v];
    const Weight vw = g.vertex_weight(best_v);
    weights[from] -= vw;
    weights[best.part] += vw;
    p.assignment[best_v] = best.part;
    moved[best_v] = 1;
    sequence.push_back({best_v, from, best.part});
    cum += best.gain;
    if (cum > best_cum + 1e-12) {
      best_cum = cum;
      best_len = sequence.size();
    }
    // Heuristic cutoff: deep negative plateaus rarely recover.
    if (cum < best_cum - 0.25 * (std::abs(best_cum) + 1.0) &&
        sequence.size() > best_len + 16) {
      break;
    }
  }

  // Roll back everything after the best prefix.
  for (std::size_t i = sequence.size(); i-- > best_len;) {
    const Move& m = sequence[i];
    const Weight vw = g.vertex_weight(m.v);
    weights[m.to] -= vw;
    weights[m.from] += vw;
    p.assignment[m.v] = m.from;
  }
  return best_cum;
}

}  // namespace

std::uint64_t tie_broken_visits() noexcept {
  return g_tie_broken_visits.load();
}

Weight refine_partition(const WeightedGraph& g, Partition& p,
                        const PartitionConstraints& c, const RefineOptions& o,
                        Rng& rng) {
  const std::size_t n = g.vertex_count();
  if (n == 0 || p.part_count <= 1) return 0;

  std::vector<Weight> weights = part_weights(g, p);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  ConnectivityRow row(p.part_count);

  Weight total_gain = 0;
  for (int pass = 0; pass < o.max_passes; ++pass) {
    Weight pass_gain = greedy_pass(g, p, c, weights, order, row, rng);
    if (n <= o.hill_climb_vertex_limit) {
      pass_gain += fm_pass(g, p, c, weights, row);
    }
    total_gain += pass_gain;
    if (pass_gain <= 1e-12) break;
  }
  return total_gain;
}

std::vector<BoundedMove> plan_bounded_moves(const WeightedGraph& g,
                                            Partition& p,
                                            const PartitionConstraints& c,
                                            std::size_t max_moves,
                                            Weight min_gain) {
  std::vector<BoundedMove> moves;
  const std::size_t n = g.vertex_count();
  if (n == 0 || p.part_count <= 1) return moves;

  std::vector<Weight> weights = part_weights(g, p);
  ConnectivityRow row(p.part_count);
  while (moves.size() < max_moves) {
    BoundedMove best;
    best.gain = min_gain;
    for (VertexId v = 0; v < n; ++v) {
      const Choice move = choose_move(g, p, v, weights, c, best.gain, 1e-12,
                                      row);
      if (move.part != kUnassigned) {
        best = {v, p.assignment[v], move.part, move.gain};
      }
    }
    if (best.to == kUnassigned) break;  // no admissible positive move left

    const Weight vw = g.vertex_weight(best.vertex);
    weights[best.from] -= vw;
    weights[best.to] += vw;
    p.assignment[best.vertex] = best.to;
    moves.push_back(best);
  }
  return moves;
}

bool repair_overweight(const WeightedGraph& g, Partition& p,
                       const PartitionConstraints& c, Rng& rng) {
  std::vector<Weight> weights = part_weights(g, p);
  // Parts containing a single vertex that alone exceeds the limit can never
  // be fixed; they are frozen so the loop terminates and they stop acting
  // as move destinations.
  std::vector<bool> frozen(weights.size(), false);
  bool all_single_fit = true;
  // Destinations are scanned in part order, so the row's order is unused.
  ConnectivityRow row(p.part_count);

  // Process overweight parts until none remain. Each iteration moves the
  // vertex whose removal hurts the cut least to the best part with room.
  while (true) {
    PartId over = kUnassigned;
    for (PartId part = 0; part < weights.size(); ++part) {
      if (!frozen[part] && weights[part] > c.max_part_weight + 1e-9) {
        over = part;
        break;
      }
    }
    if (over == kUnassigned) break;

    // Gather the members of the overweight part.
    std::vector<VertexId> members;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      if (p.assignment[v] == over) members.push_back(v);
    }
    if (members.size() == 1) {
      // A single vertex heavier than the limit cannot be fixed.
      all_single_fit = false;
      frozen[over] = true;
      continue;
    }
    rng.shuffle(members);

    // Pick the member whose move loses the least cut weight.
    VertexId best_v = members.front();
    PartId best_dest = kUnassigned;
    Weight best_loss = std::numeric_limits<Weight>::max();
    for (VertexId v : members) {
      const Weight vw = g.vertex_weight(v);
      row.load(g, p, v);
      const Weight internal = row.to(over);
      // Candidate destinations: connected parts first, then any with room.
      for (PartId dest = 0; dest < weights.size(); ++dest) {
        if (dest == over || frozen[dest]) continue;
        if (weights[dest] + vw > c.max_part_weight) continue;
        const Weight loss = internal - row.to(dest);
        if (loss < best_loss) {
          best_loss = loss;
          best_v = v;
          best_dest = dest;
        }
      }
      row.clear();
    }

    if (best_dest == kUnassigned) {
      // No existing part has room: open a new one.
      best_dest = static_cast<PartId>(p.part_count);
      ++p.part_count;
      weights.push_back(0);
      frozen.push_back(false);
      row.grow(p.part_count);
      // Move the lightest member to maximise progress.
      best_v = *std::min_element(members.begin(), members.end(),
                                 [&](VertexId a, VertexId b) {
                                   return g.vertex_weight(a) <
                                          g.vertex_weight(b);
                                 });
    }

    const Weight vw = g.vertex_weight(best_v);
    weights[over] -= vw;
    weights[best_dest] += vw;
    p.assignment[best_v] = best_dest;
  }
  return all_single_fit;
}

}  // namespace lazyctrl::graph
