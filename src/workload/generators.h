// Trace generators.
//
// Two generators mirror the paper's two data sources (§V-B):
//
//  * generate_real_like — stands in for the proprietary day-long enterprise
//    trace (272 switches / 6509 hosts / 271M flows, avg 5-way centrality
//    0.85). It reproduces the published aggregates: traffic dominated by
//    intra-tenant pairs, ~10% of communicating pairs carrying ~90% of the
//    flows (Pareto pair weights), and a business-day diurnal arrival curve.
//
//  * generate_synthetic — the paper's own synthetic procedure: p% of flows
//    drawn uniformly from a fixed "hot" subset of host pairs (q% of the
//    candidate pair universe), the remaining flows from host pairs chosen
//    uniformly at random. (p,q) = (90,10) / (70,20) / (70,30) give the
//    Syn-A/B/C traces of Table II.
//
// expand_trace implements the §V-D stress test: +30% extra flows among
// previously non-communicating host pairs during hours 8-24.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "topo/topology.h"
#include "workload/trace.h"

namespace lazyctrl::workload {

struct FlowShape {
  /// Mean packets per flow (geometric-ish distribution, min 1).
  double mean_packets = 12.0;
  std::uint32_t min_packet_bytes = 64;
  std::uint32_t max_packet_bytes = 1500;
};

struct RealLikeOptions {
  std::size_t total_flows = 400'000;
  /// Fraction of communicating pairs carrying ~`heavy_flow_share` of the
  /// flows. Slightly below the paper's "10% of pairs -> 90% of flows"
  /// because light pairs with zero sampled flows drop out of the observed
  /// pair set at scaled flow counts; 6% yields a measured top-10% share of
  /// ~0.9 together with the hub flows.
  double heavy_pair_fraction = 0.03;
  double heavy_flow_share = 0.90;
  /// Fraction of communicating pairs that cross tenant boundaries;
  /// calibrated so the 5-way avg centrality lands near the paper's 0.85
  /// (each cross flow counts against the centrality of two groups).
  double cross_tenant_pair_fraction = 0.10;
  /// Fraction of hosts acting as shared services ("hubs": storage, DNS,
  /// load balancers) talked to by hosts of many tenants. Hub stars span
  /// any host partition, which is what keeps the measured centrality at
  /// the paper's ~0.85 instead of ~1.0 — without them the 90/10 skew graph
  /// is so sparse that a cut-minimising partition absorbs nearly all
  /// traffic (see DESIGN.md).
  double hub_host_fraction = 0.01;
  /// Fraction of communicating pairs that are host <-> hub pairs.
  double hub_pair_fraction = 0.12;
  /// Fraction of all flows carried by hub pairs. Hub traffic is what a
  /// partition cannot absorb: each hub star spans ~all groups, so ~4/5 of
  /// this share ends up inter-group under a 5-way partition. 0.11 lands
  /// the measured centrality at the paper's ~0.85.
  double hub_flow_share = 0.12;
  /// Communication partners per host inside its tenant.
  std::size_t partners_per_host = 3;
  SimDuration horizon = 24 * kHour;
  DiurnalProfile profile = DiurnalProfile::business_day();
  FlowShape shape;
};

Trace generate_real_like(const topo::Topology& topology,
                         const RealLikeOptions& options, Rng& rng);

struct SyntheticOptions {
  /// Percentage of flows drawn from the hot pair set.
  double p = 90.0;
  /// Hot set size as a percentage of the candidate (intra-tenant) pair
  /// universe; larger q also admits proportionally more cross-tenant pairs
  /// into the hot set, diluting locality as in Syn-B/C.
  double q = 10.0;
  /// Fraction of the hot set replaced by cross-tenant pairs, as a multiple
  /// of q/100. Calibrated (together with rest_uniform_fraction) so the
  /// measured 5-way centralities land near Table II's 0.85/0.72/0.61.
  /// Note: the paper's literal procedure — the remaining (100-p)% of flows
  /// uniform over ALL host pairs — cannot produce those centralities (a
  /// 30% uniform remainder alone caps centrality at ~0.61 because each
  /// cross flow debits two groups), so the dilution is carried mostly by
  /// the hot set here. See DESIGN.md.
  double hot_cross_factor = 1.4;
  /// Fraction of the non-hot flows drawn from uniformly random host pairs;
  /// the remainder comes from random intra-tenant pairs.
  double rest_uniform_fraction = 0.02;
  std::size_t total_flows = 400'000;
  SimDuration horizon = 24 * kHour;
  DiurnalProfile profile = DiurnalProfile::business_day();
  FlowShape shape;
};

Trace generate_synthetic(const topo::Topology& topology,
                         const SyntheticOptions& options, Rng& rng);

/// Drifting-locality workload: the stress test for Dynamic Group
/// Maintenance (src/dgm). Edge switches are assigned to traffic
/// *communities*; most flows stay inside one community, so a grouping that
/// mirrors the communities is near-optimal. The day is split into phases;
/// at every phase boundary a fraction of switches re-home to a different
/// community, shifting the locality structure under a frozen grouping's
/// feet while an online regrouper can keep tracking it.
struct DriftingLocalityOptions {
  std::size_t total_flows = 200'000;
  /// Number of switch communities. Pick close to switch_count /
  /// group_size_limit so one group can absorb one community.
  std::size_t community_count = 6;
  /// Fraction of flows drawn between two switches of the same community
  /// (the locality a good grouping converts into intra-group traffic).
  double intra_community_share = 0.85;
  /// Number of equal-length locality phases over the horizon.
  std::size_t phases = 8;
  /// Fraction of switches re-homed to a new community at each boundary.
  double drift_fraction = 0.25;
  SimDuration horizon = 24 * kHour;
  FlowShape shape;
};

Trace generate_drifting_locality(const topo::Topology& topology,
                                 const DriftingLocalityOptions& options,
                                 Rng& rng);

/// Returns a copy of `base` with `extra_fraction` (e.g. 0.30) additional
/// flows among host pairs that never communicated in `base`, with start
/// times uniform over [from, to), matching the paper's expanded-trace
/// construction (§V-D). The extra flows recur between a fixed set of new
/// pairs (`flows_per_new_pair` each on average) — persistent new structure
/// that dynamic regrouping can learn, as opposed to one-shot noise.
Trace expand_trace(const Trace& base, const topo::Topology& topology,
                   double extra_fraction, SimTime from, SimTime to, Rng& rng,
                   double flows_per_new_pair = 30.0);

// --- scenario-engine trace shaping (src/scenario) ---

/// Traffic surge: returns `base` with every flow starting in [from, to)
/// cloned ~(factor - 1) extra times — the fractional part is a Bernoulli
/// draw per flow — with each clone's arrival re-drawn uniformly within
/// the window. More arrivals among the pairs already active there, i.e.
/// a load spike without a locality change. `factor` <= 1 (or an empty
/// window) returns `base` unchanged. Deterministic for a given rng state.
/// `base` is taken by value and the clones are appended to it in place:
/// pass `std::move(trace)` to avoid copying the whole trace.
Trace surge_trace(Trace base, SimTime from, SimTime to, double factor,
                  Rng& rng);

/// Tenant activity windows: drops every flow touching a host of a listed
/// tenant that starts outside that tenant's [active_from, active_to).
/// One pass over the trace regardless of how many tenants are listed
/// (a tenant listed twice keeps only flows inside BOTH windows). This is
/// the workload half of a scenario tenant arrival/departure; the
/// control-plane half (dormant bootstrap, live dissemination, rule
/// revocation) is core::Network::set_dormant_tenants / activate_tenant /
/// deactivate_tenant.
struct TenantActivityWindow {
  TenantId tenant;
  SimTime active_from = 0;
  SimTime active_to = 0;
};
Trace restrict_tenant_windows(const Trace& base,
                              const topo::Topology& topology,
                              std::span<const TenantActivityWindow> windows);

/// Intersected [from, to) window per tenant id (a tenant listed twice
/// keeps the intersection of its entries). The ONE definition of how
/// lifecycle windows compose: restrict_tenant_windows filters flows
/// through it and the scenario runner's migration-burst eligibility
/// checks against it, so the two can never disagree.
std::unordered_map<std::uint32_t, std::pair<SimTime, SimTime>>
intersect_tenant_windows(std::span<const TenantActivityWindow> windows);

}  // namespace lazyctrl::workload
