#include "workload/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workload/pair_key_set.h"

namespace lazyctrl::workload {

namespace {

using topo::Topology;

/// Canonical 64-bit key for an unordered host pair.
std::uint64_t pair_key(HostId a, HostId b) {
  std::uint32_t lo = a.value(), hi = b.value();
  if (lo > hi) std::swap(lo, hi);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

struct HostPair {
  HostId a;
  HostId b;
};

/// Samples a flow start time from the diurnal profile.
SimTime sample_start(const std::array<double, 24>& cdf, SimDuration horizon,
                     Rng& rng) {
  const std::size_t hour = hour_of(cdf, rng.next_double());
  const SimDuration hour_len = horizon / 24;
  return static_cast<SimTime>(hour) * hour_len +
         static_cast<SimTime>(rng.next_below(
             static_cast<std::uint64_t>(std::max<SimDuration>(hour_len, 1))));
}

/// Samples packet count and size for one flow.
void sample_shape(const FlowShape& shape, Rng& rng, Flow& flow) {
  const double raw = rng.next_exponential(std::max(shape.mean_packets, 1.0));
  flow.packets =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(std::lround(raw)));
  flow.avg_packet_bytes = static_cast<std::uint32_t>(rng.next_between(
      shape.min_packet_bytes, shape.max_packet_bytes));
}

/// Groups host ids by tenant.
std::vector<std::vector<HostId>> hosts_by_tenant(const Topology& topology) {
  std::vector<std::vector<HostId>> groups;
  for (const topo::HostInfo& h : topology.hosts()) {
    const std::size_t t = h.tenant.value();
    if (groups.size() <= t) groups.resize(t + 1);
    groups[t].push_back(h.id);
  }
  return groups;
}

/// All intra-tenant unordered pairs (the candidate universe for hot sets).
std::vector<HostPair> intra_tenant_pairs(const Topology& topology) {
  std::vector<HostPair> pairs;
  for (const auto& members : hosts_by_tenant(topology)) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        pairs.push_back({members[i], members[j]});
      }
    }
  }
  return pairs;
}

/// A uniformly random pair of distinct hosts (any tenants).
HostPair random_pair(const Topology& topology, Rng& rng) {
  const std::size_t n = topology.host_count();
  assert(n >= 2);
  const auto a = static_cast<std::uint32_t>(rng.next_below(n));
  auto b = static_cast<std::uint32_t>(rng.next_below(n - 1));
  if (b >= a) ++b;
  return {HostId{a}, HostId{b}};
}

/// A random pair of hosts from two different tenants.
HostPair random_cross_tenant_pair(const Topology& topology, Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    HostPair p = random_pair(topology, rng);
    if (topology.host_info(p.a).tenant != topology.host_info(p.b).tenant) {
      return p;
    }
  }
  return random_pair(topology, rng);  // single-tenant topology fallback
}

}  // namespace

Trace generate_real_like(const Topology& topology,
                         const RealLikeOptions& options, Rng& rng) {
  assert(topology.host_count() >= 2);
  Trace trace;
  trace.horizon = options.horizon;

  // --- Build the communicating-pair set. ---
  // Intra-tenant: each host talks to a few random peers inside its tenant.
  // The set is sized for at most `partners_per_host` such pairs per host
  // plus the cross-tenant and hub pairs, about a fifth more.
  PairKeySet seen(topology.host_count() * (options.partners_per_host + 1));
  std::vector<HostPair> pairs;
  for (const auto& members : hosts_by_tenant(topology)) {
    if (members.size() < 2) continue;
    for (HostId h : members) {
      for (std::size_t k = 0; k < options.partners_per_host; ++k) {
        const HostId peer =
            members[rng.next_below(members.size())];
        if (peer == h) continue;
        if (seen.insert(pair_key(h, peer))) {
          pairs.push_back({h, peer});
        }
      }
    }
  }
  // Cross-tenant: a small fraction of extra pairs spanning tenants.
  const auto cross_target = static_cast<std::size_t>(
      options.cross_tenant_pair_fraction * static_cast<double>(pairs.size()));
  for (std::size_t added = 0; added < cross_target;) {
    HostPair p = random_cross_tenant_pair(topology, rng);
    if (seen.insert(pair_key(p.a, p.b))) {
      pairs.push_back(p);
      ++added;
    }
  }

  // Shared-service hubs: a few hosts talked to by hosts across tenants.
  // Hub pairs carry a dedicated flow share (below) — big concentrated
  // stars no host partition can absorb.
  std::vector<HostPair> hub_pairs;
  const auto hub_count = static_cast<std::size_t>(
      options.hub_host_fraction * static_cast<double>(topology.host_count()));
  const auto hub_pair_target = static_cast<std::size_t>(
      options.hub_pair_fraction * static_cast<double>(pairs.size()));
  if (hub_count > 0 && hub_pair_target > 0) {
    std::vector<HostId> hubs;
    for (std::size_t i = 0; i < hub_count; ++i) {
      hubs.push_back(HostId{static_cast<std::uint32_t>(
          rng.next_below(topology.host_count()))});
    }
    for (std::size_t added = 0, attempts = 0;
         added < hub_pair_target && attempts < hub_pair_target * 20;
         ++attempts) {
      const HostId hub = hubs[rng.next_below(hubs.size())];
      const HostId client{static_cast<std::uint32_t>(
          rng.next_below(topology.host_count()))};
      if (client == hub) continue;
      if (seen.insert(pair_key(hub, client))) {
        hub_pairs.push_back({hub, client});
        ++added;
      }
    }
  }
  if (pairs.empty()) return trace;

  // --- Split pairs into heavy and light classes (paper: ~10% of pairs
  // carry ~90% of flows). ---
  rng.shuffle(pairs);
  const std::size_t heavy_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.heavy_pair_fraction *
                                  static_cast<double>(pairs.size())));

  const auto cdf = options.profile.cumulative();
  const double hub_share = hub_pairs.empty() ? 0.0 : options.hub_flow_share;
  trace.flows.reserve(options.total_flows);
  for (std::size_t i = 0; i < options.total_flows; ++i) {
    const HostPair* chosen;
    if (rng.next_bool(hub_share)) {
      chosen = &hub_pairs[rng.next_below(hub_pairs.size())];
    } else if (rng.next_bool(options.heavy_flow_share)) {
      chosen = &pairs[rng.next_below(heavy_count)];
    } else {
      chosen = &pairs[heavy_count == pairs.size()
                          ? rng.next_below(pairs.size())
                          : heavy_count + rng.next_below(pairs.size() -
                                                         heavy_count)];
    }
    const HostPair& p = *chosen;
    Flow f;
    // Direction alternates randomly.
    if (rng.next_bool(0.5)) {
      f.src = p.a;
      f.dst = p.b;
    } else {
      f.src = p.b;
      f.dst = p.a;
    }
    f.start = sample_start(cdf, options.horizon, rng);
    sample_shape(options.shape, rng, f);
    trace.flows.push_back(f);
  }
  finalize_trace(trace);
  return trace;
}

Trace generate_synthetic(const Topology& topology,
                         const SyntheticOptions& options, Rng& rng) {
  assert(topology.host_count() >= 2);
  Trace trace;
  trace.horizon = options.horizon;

  // Candidate universe: intra-tenant pairs (the locality-bearing set).
  std::vector<HostPair> universe = intra_tenant_pairs(topology);
  if (universe.empty()) return trace;
  rng.shuffle(universe);

  // Hot set: q% of the universe. Larger q also lets proportionally more
  // cross-tenant pairs into the hot set (hot_cross_factor x q), which is
  // what dilutes centrality from Syn-A to Syn-C in Table II.
  const double q_frac = std::clamp(options.q / 100.0, 0.0, 1.0);
  std::size_t hot_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(q_frac *
                                  static_cast<double>(universe.size())));
  hot_size = std::min(hot_size, universe.size());
  std::vector<HostPair> hot(universe.begin(),
                            universe.begin() +
                                static_cast<std::ptrdiff_t>(hot_size));
  const auto cross_in_hot = static_cast<std::size_t>(std::clamp(
      options.hot_cross_factor * q_frac, 0.0, 1.0) *
      static_cast<double>(hot_size));
  for (std::size_t i = 0; i < cross_in_hot; ++i) {
    hot[rng.next_below(hot.size())] = random_cross_tenant_pair(topology, rng);
  }

  const double p_frac = std::clamp(options.p / 100.0, 0.0, 1.0);
  const auto cdf = options.profile.cumulative();
  trace.flows.reserve(options.total_flows);
  for (std::size_t i = 0; i < options.total_flows; ++i) {
    HostPair pair;
    if (rng.next_bool(p_frac)) {
      pair = hot[rng.next_below(hot.size())];
    } else if (rng.next_bool(options.rest_uniform_fraction)) {
      pair = random_pair(topology, rng);
    } else {
      pair = universe[rng.next_below(universe.size())];
    }
    Flow f;
    if (rng.next_bool(0.5)) std::swap(pair.a, pair.b);
    f.src = pair.a;
    f.dst = pair.b;
    f.start = sample_start(cdf, options.horizon, rng);
    sample_shape(options.shape, rng, f);
    trace.flows.push_back(f);
  }
  finalize_trace(trace);
  return trace;
}

Trace generate_drifting_locality(const Topology& topology,
                                 const DriftingLocalityOptions& options,
                                 Rng& rng) {
  assert(topology.host_count() >= 2);
  Trace trace;
  trace.horizon = options.horizon;

  // Only switches with attached hosts can source or sink flows.
  std::vector<SwitchId> populated;
  for (const topo::SwitchInfo& sw : topology.switches()) {
    if (!topology.hosts_on_switch(sw.id).empty()) populated.push_back(sw.id);
  }
  const std::size_t communities =
      std::max<std::size_t>(1, std::min(options.community_count,
                                        populated.size()));
  if (populated.size() < 2 || options.phases == 0 ||
      options.total_flows == 0) {
    return trace;
  }

  // Initial communities: balanced round-robin over a shuffled switch list.
  rng.shuffle(populated);
  std::vector<std::vector<SwitchId>> members(communities);
  std::vector<std::size_t> community_of(topology.switch_count(), 0);
  for (std::size_t i = 0; i < populated.size(); ++i) {
    members[i % communities].push_back(populated[i]);
    community_of[populated[i].value()] = i % communities;
  }

  const auto random_host_on = [&](SwitchId sw) {
    const auto& hosts = topology.hosts_on_switch(sw);
    return hosts[rng.next_below(hosts.size())];
  };

  const SimDuration phase_len =
      options.horizon / static_cast<SimDuration>(options.phases);
  const std::size_t flows_per_phase = options.total_flows / options.phases;
  trace.flows.reserve(options.total_flows);

  for (std::size_t phase = 0; phase < options.phases; ++phase) {
    const SimTime phase_start =
        static_cast<SimTime>(phase) * phase_len;
    for (std::size_t i = 0; i < flows_per_phase; ++i) {
      HostId src, dst;
      SwitchId src_sw, dst_sw;
      const bool intra = rng.next_bool(options.intra_community_share);
      if (intra) {
        // Pick a community with >= 2 switches, then two distinct switches.
        std::size_t c = rng.next_below(communities);
        for (std::size_t tries = 0;
             members[c].size() < 2 && tries < communities; ++tries) {
          c = (c + 1) % communities;
        }
        if (members[c].size() < 2) continue;  // degenerate community layout
        const std::size_t a = rng.next_below(members[c].size());
        std::size_t b = rng.next_below(members[c].size() - 1);
        if (b >= a) ++b;
        src_sw = members[c][a];
        dst_sw = members[c][b];
      } else {
        // Background: any two distinct populated switches.
        const std::size_t a = rng.next_below(populated.size());
        std::size_t b = rng.next_below(populated.size() - 1);
        if (b >= a) ++b;
        src_sw = populated[a];
        dst_sw = populated[b];
      }
      src = random_host_on(src_sw);
      dst = random_host_on(dst_sw);

      Flow f;
      f.src = src;
      f.dst = dst;
      f.start = phase_start + static_cast<SimTime>(rng.next_below(
                                  static_cast<std::uint64_t>(
                                      std::max<SimDuration>(phase_len, 1))));
      sample_shape(options.shape, rng, f);
      trace.flows.push_back(f);
    }

    // Phase boundary: re-home a fraction of switches to other communities.
    if (phase + 1 == options.phases || communities < 2) continue;
    const auto drifters = static_cast<std::size_t>(
        options.drift_fraction * static_cast<double>(populated.size()));
    for (std::size_t d = 0; d < drifters; ++d) {
      const SwitchId sw = populated[rng.next_below(populated.size())];
      const std::size_t from = community_of[sw.value()];
      std::size_t to = rng.next_below(communities - 1);
      if (to >= from) ++to;
      auto& old_members = members[from];
      if (old_members.size() <= 2) continue;  // keep communities non-trivial
      old_members.erase(
          std::find(old_members.begin(), old_members.end(), sw));
      members[to].push_back(sw);
      community_of[sw.value()] = to;
    }
  }
  finalize_trace(trace);
  return trace;
}

Trace expand_trace(const Trace& base, const Topology& topology,
                   double extra_fraction, SimTime from, SimTime to, Rng& rng,
                   double flows_per_new_pair) {
  assert(to > from);
  const auto extra = static_cast<std::size_t>(
      extra_fraction * static_cast<double>(base.flows.size()));
  Trace out;
  out.horizon = base.horizon;
  out.flows.reserve(base.flows.size() + extra);
  out.flows.assign(base.flows.begin(), base.flows.end());

  PairKeySet communicated(base.flows.size());
  for (const Flow& f : base.flows) {
    communicated.insert(pair_key(f.src, f.dst));
  }

  if (extra == 0) {
    finalize_trace(out);
    return out;
  }

  // Fix the set of new pairs first; the extra flows recur among them so the
  // expansion adds persistent structure, not one-shot noise.
  const std::size_t pair_target = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(extra) /
                                  std::max(flows_per_new_pair, 1.0)));
  std::vector<HostPair> new_pairs;
  std::size_t attempts = 0;
  const std::size_t max_attempts = pair_target * 100 + 1000;
  while (new_pairs.size() < pair_target && attempts++ < max_attempts) {
    HostPair p = random_pair(topology, rng);
    if (!communicated.insert(pair_key(p.a, p.b))) continue;
    new_pairs.push_back(p);
  }
  if (new_pairs.empty()) {
    finalize_trace(out);
    return out;
  }

  FlowShape shape;  // default shape for the injected background flows
  for (std::size_t added = 0; added < extra; ++added) {
    HostPair p = new_pairs[rng.next_below(new_pairs.size())];
    Flow f;
    if (rng.next_bool(0.5)) std::swap(p.a, p.b);
    f.src = p.a;
    f.dst = p.b;
    f.start = from + static_cast<SimTime>(
                         rng.next_below(static_cast<std::uint64_t>(to - from)));
    sample_shape(shape, rng, f);
    out.flows.push_back(f);
  }
  finalize_trace(out);
  return out;
}

Trace surge_trace(Trace base, SimTime from, SimTime to, double factor,
                  Rng& rng) {
  if (factor <= 1.0 || to <= from) {
    finalize_trace(base);
    return base;
  }
  const double extra = factor - 1.0;
  const auto whole = static_cast<std::size_t>(extra);
  const double frac = extra - static_cast<double>(whole);
  const auto window = static_cast<std::uint64_t>(to - from);
  const auto in_window = [&](const Flow& f) {
    return f.start >= from && f.start < to;
  };
  // Clones go in place behind the base flows; finalize_trace then merges
  // them in. Reserve the most clones the draws below can make.
  std::vector<Flow>& flows = base.flows;
  const std::size_t base_count = flows.size();
  const auto surged = static_cast<std::size_t>(
      std::count_if(flows.begin(), flows.end(), in_window));
  flows.reserve(base_count + surged * (whole + (frac > 0 ? 1 : 0)));
  for (std::size_t i = 0; i < base_count; ++i) {
    if (!in_window(flows[i])) continue;
    std::size_t copies = whole;
    if (rng.next_bool(frac)) ++copies;
    for (std::size_t c = 0; c < copies; ++c) {
      Flow dup = flows[i];
      dup.start = from + static_cast<SimTime>(rng.next_below(window));
      flows.push_back(dup);
    }
  }
  finalize_trace(base);
  return base;
}

std::unordered_map<std::uint32_t, std::pair<SimTime, SimTime>>
intersect_tenant_windows(std::span<const TenantActivityWindow> windows) {
  std::unordered_map<std::uint32_t, std::pair<SimTime, SimTime>> out;
  for (const TenantActivityWindow& w : windows) {
    auto [it, fresh] = out.try_emplace(
        w.tenant.value(), std::make_pair(w.active_from, w.active_to));
    if (!fresh) {
      it->second.first = std::max(it->second.first, w.active_from);
      it->second.second = std::min(it->second.second, w.active_to);
    }
  }
  return out;
}

Trace restrict_tenant_windows(const Trace& base, const Topology& topology,
                              std::span<const TenantActivityWindow> windows) {
  Trace out;
  out.horizon = base.horizon;
  if (windows.empty()) {
    out.flows = base.flows;
    finalize_trace(out);
    return out;
  }
  const auto window = intersect_tenant_windows(windows);
  const auto outside = [&](HostId h, SimTime start) {
    const auto it = window.find(topology.host_info(h).tenant.value());
    return it != window.end() &&
           (start < it->second.first || start >= it->second.second);
  };
  out.flows.reserve(base.flows.size());
  for (const Flow& f : base.flows) {
    if (outside(f.src, f.start) || outside(f.dst, f.start)) continue;
    out.flows.push_back(f);
  }
  finalize_trace(out);
  return out;
}

}  // namespace lazyctrl::workload
