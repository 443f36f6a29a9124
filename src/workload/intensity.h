// Intensity-graph construction (paper §III-C1).
//
// The switch grouping problem takes an "intensity matrix" W where w[i][j] is
// the normalized traffic intensity — new flows per second — between edge
// switches i and j, estimated from history statistics. We expose it directly
// as a WeightedGraph ready for the partitioner.
#pragma once

#include "common/time.h"
#include "graph/weighted_graph.h"
#include "topo/topology.h"
#include "workload/trace.h"

namespace lazyctrl::workload {

/// Builds the switch-level intensity graph from the flows of `trace` whose
/// start time lies in [from, to). Edge weight = flows per second between the
/// two switches (host pair traffic aggregates onto the attachment switches).
/// Vertices are switch ids; vertex weight is 1 per switch so the group size
/// limit counts switches, as in the paper. `trace` must be sorted by start,
/// as finalize_trace leaves it: only the window's run of flows is read.
graph::WeightedGraph build_intensity_graph(const Trace& trace,
                                           const topo::Topology& topology,
                                           SimTime from, SimTime to);

/// Convenience overload over the whole trace horizon.
graph::WeightedGraph build_intensity_graph(const Trace& trace,
                                           const topo::Topology& topology);

}  // namespace lazyctrl::workload
