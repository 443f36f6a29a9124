#include "core/network.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>

#include "common/log.h"
#include "net/packet.h"
#include "obs/flow_latency.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/sharded_runtime.h"

namespace lazyctrl::core {

namespace {

// Latency-attribution emission (obs/flow_latency.h): decomposes an
// analytically priced first-packet latency into the stage slices. The
// edge stage is the ingress leg every path shares (host link + switch
// pipeline); controller-path flows add the round-trip breakdown; the
// remainder up to e2e is delivery (datapath + egress), derived by the
// reader rather than stored. Callers gate on flow_attribution_enabled().
// `flow_id` is the flow's position in the trace.
void record_flow_attribution(
    const workload::Flow& flow, std::uint64_t flow_id, SwitchId src_sw,
    SwitchId dst_sw, obs::FlowPathKind path, const LatencyModel& lat,
    SimDuration e2e,
    const Network::ControllerTripBreakdown* trip = nullptr) {
  obs::FlowRecord rec;
  rec.flow_id = flow_id;
  rec.start = flow.start;
  rec.src_sw = src_sw.value();
  rec.dst_sw = dst_sw.value();
  rec.path = path;
  rec.stages.edge = lat.host_link + lat.switch_processing;
  if (trip != nullptr) {
    rec.stages.retry_backoff = trip->retry_backoff;
    rec.stages.punt_rtt = trip->uplink + trip->service;
    rec.stages.ctrl_queue = trip->queue;
    rec.stages.install = trip->downlink;
  }
  rec.stages.e2e = e2e;
  obs::flow_recorder().record(rec);
}

// Per-channel salts of the control-plane fault model. Large, distinct
// constants so (flow, attempt, channel) triples decorrelate after the
// splitmix64 finalizer.
constexpr std::uint64_t kSaltUplinkLoss = 0xA3C5'9D17'4B21'E6F9ull;
constexpr std::uint64_t kSaltUplinkDup = 0x1F86'C2B4'7E09'5A3Dull;
constexpr std::uint64_t kSaltDownlinkLoss = 0x6E14'8FA2'D35B'70C8ull;
constexpr std::uint64_t kSaltDownlinkDup = 0xB90D'417E'268C'F5A1ull;

// Deterministic fault predicate for one control-plane message leg: the
// decision is a pure function of (config seed, the flow's position in the
// trace, attempt, salt)
// through the splitmix64 finalizer — the run RNG is never consulted, so
// fault injection is bit-identical across shard counts, across reps,
// and a rate of 0 never perturbs a run (same discipline as the flow
// sampler in obs/flow_latency.h).
bool fault_roll(std::uint64_t seed, std::uint64_t flow_id,
                std::uint32_t attempt, std::uint64_t salt,
                double rate) noexcept {
  if (rate <= 0.0) return false;
  const std::uint64_t h = obs::mix_flow_id(
      flow_id ^ (static_cast<std::uint64_t>(attempt) << 40) ^ salt ^
      obs::mix_flow_id(seed));
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

}  // namespace

Network::Network(topo::Topology topology, Config config)
    : topology_(std::move(topology)),
      config_(config),
      rng_(config.seed),
      controller_(config, topology_.host_count()),
      sgi_(SgiOptions{config.grouping.group_size_limit,
                      config.grouping.max_incupdate_iterations,
                      config.grouping.parallel_incupdate, 3}) {
  switches_.reserve(topology_.switch_count());
  for (const topo::SwitchInfo& info : topology_.switches()) {
    switches_.push_back(std::make_unique<EdgeSwitch>(
        info.id, info.underlay_ip, info.management_mac, config_));
  }
  metrics_ = std::make_unique<RunMetrics>(horizon_);

  traffic_monitor_ = std::make_unique<dgm::TrafficMonitor>(
      topology_.switch_count(),
      dgm::TrafficMonitorOptions{config_.grouping.stats_window,
                                 config_.grouping.intensity_ewma_decay,
                                 1e-3});
  if (config_.mode == ControlMode::kLazyCtrl &&
      (config_.dgm.mode == DgmMode::kPeriodic ||
       config_.dgm.mode == DgmMode::kDriftTriggered)) {
    dgm_ = std::make_unique<dgm::Maintainer>(
        config_.dgm, config_.grouping.group_size_limit,
        static_cast<dgm::GroupingHost&>(*this), config_.seed);
  }
}

void Network::bootstrap() {
  graph::WeightedGraph empty(topology_.switch_count());
  bootstrap(empty);
}

void Network::bootstrap(const graph::WeightedGraph& history_intensity) {
  assert(!bootstrapped_);
  bootstrapped_ = true;
  obs::ScopedTimer timer(obs::TraceEventType::kBootstrap, simulator_.now(),
                         topology_.switch_count(), topology_.host_count());

  // Live state dissemination at bootstrap (§III-D3): every switch learns
  // its attached hosts; the controller builds the C-LIB.
  compute_excluded_hosts();
  for (const topo::HostInfo& h : topology_.hosts()) {
    // Dormant tenants' hosts (scenario tenant-arrival events) are not
    // announced yet; activate_tenant() runs this dissemination later.
    if (dormant_hosts_.contains(h.id.value())) continue;
    switches_[h.attached_switch.value()]->lfib().learn(h.mac, h.id, h.tenant);
    controller_.clib_learn(h.mac, h.id, h.tenant, h.attached_switch);
  }

  if (config_.mode != ControlMode::kLazyCtrl) return;

  // IniGroup: initial grouping from history (paper: first-hour traffic).
  Grouping grouping = sgi_.initial_grouping(history_intensity, rng_);
  apply_grouping(std::move(grouping), /*initial=*/true);
}

void Network::compute_excluded_hosts() {
  excluded_hosts_.clear();
  const std::size_t threshold =
      config_.grouping.host_exclusion_tenant_threshold;
  if (threshold == 0 || config_.mode != ControlMode::kLazyCtrl) return;

  // Appendix B: on switches serving more tenants than the threshold, hosts
  // of the smallest local tenants are excluded from grouping and handled by
  // the controller directly.
  for (const topo::SwitchInfo& sw : topology_.switches()) {
    std::map<std::uint32_t, std::vector<HostId>> by_tenant;
    for (HostId h : topology_.hosts_on_switch(sw.id)) {
      by_tenant[topology_.host_info(h).tenant.value()].push_back(h);
    }
    if (by_tenant.size() <= threshold) continue;
    // Keep the `threshold` tenants with the most local hosts.
    std::vector<std::pair<std::size_t, std::uint32_t>> ranked;
    ranked.reserve(by_tenant.size());
    for (const auto& [tenant, hosts] : by_tenant) {
      ranked.push_back({hosts.size(), tenant});
    }
    std::sort(ranked.begin(), ranked.end(), std::greater<>());
    for (std::size_t i = threshold; i < ranked.size(); ++i) {
      for (HostId h : by_tenant[ranked[i].second]) {
        excluded_hosts_.insert(h.value());
      }
    }
  }
}

void Network::select_designated(const std::vector<SwitchId>& members) {
  if (members.empty()) return;
  // The paper selects the designated switch randomly (§III-A overview) or
  // by a configurable principle; random keeps the model simple.
  const SwitchId designated =
      members[rng_.next_below(members.size())];
  for (SwitchId m : members) {
    switches_[m.value()]->set_designated(designated);
  }
}

void Network::rebuild_group_fib(GroupId g,
                                const std::vector<SwitchId>& members,
                                std::span<const SwitchId> changed_members) {
  obs::ScopedTimer timer(obs::TraceEventType::kGfibRebuild, simulator_.now(),
                         members.size(), changed_members.size());
  // Dissemination cost (§III-B3 peer links): each member sends its L-FIB to
  // the designated switch, which relays the bundle to every member.
  if (members.size() > 1) {
    metrics_->peer_link_messages += 2 * (members.size() - 1);
  }
  metrics_->state_link_messages += 1;  // designated -> controller

  GFib& bank = gfibs_[g.value()];
  // A filter summarises its switch's visible hosts (excluded and dormant
  // hosts are invisible to G-FIBs).
  std::vector<MacAddress> macs;
  const auto sync = [&](SwitchId m) {
    macs.clear();
    for (HostId h : topology_.hosts_on_switch(m)) {
      if (!host_hidden(h)) macs.push_back(topology_.host_info(h).mac);
    }
    bank.sync_peer(m, macs);
  };

  std::vector<SwitchId> sorted(members);
  std::sort(sorted.begin(), sorted.end());
  std::vector<SwitchId> current;
  bank.peers_into(current);
  if (current != sorted) {
    // New or changed member set: rebuild from scratch in ascending id
    // order, which the sliced layout turns into pure column appends (no
    // shifting), then point every member at the rebuilt columns.
    bank.clear();
    bank.reserve_peers(sorted.size());
    for (const SwitchId m : sorted) sync(m);
    for (const SwitchId m : sorted) switches_[m.value()]->attach_gfib(&bank);
    return;
  }
  // Same members: every other filter derives from an unchanged host set
  // and is already correct. A changed member's filter MUST be re-synced —
  // keeping it would mis-forward toward a host's old location and break
  // the no-false-negative guarantee at the new one.
  for (const SwitchId m : changed_members) sync(m);
}

void Network::apply_grouping(Grouping grouping, bool initial) {
  grouping.compact();

  // Capture the pre-update membership keyed by old group id BEFORE the
  // switches are relabelled below. A group needs a designated/G-FIB
  // rebuild exactly when its member set changed; a pure renumbering
  // (compaction shuffling ids around) keeps peers and designated — both
  // stored as switch ids — valid as they are.
  std::vector<std::vector<SwitchId>> old_members;
  if (!initial) {
    for (const auto& sw : switches_) {
      const GroupId og = sw->group();
      if (!og.valid()) continue;  // pre-bootstrap switches have no group
      if (og.value() >= old_members.size()) {
        old_members.resize(og.value() + 1);
      }
      old_members[og.value()].push_back(sw->id());  // ascending by id
    }
  }

  controller_.set_grouping(std::move(grouping));
  const Grouping& g = controller_.grouping();
  const auto members = g.members();

  // An unchanged group's bank moves to the group's new id; every other
  // group starts from an empty bank that rebuild_group_fib fills below.
  std::vector<bool> rebuild(members.size(), initial);
  std::vector<GFib> banks(members.size(), empty_gfib());
  if (!initial) {
    for (std::size_t gi = 0; gi < members.size(); ++gi) {
      const GroupId og = switches_[members[gi].front().value()]->group();
      rebuild[gi] = !og.valid() || og.value() >= old_members.size() ||
                    old_members[og.value()] != members[gi];
      if (!rebuild[gi]) banks[gi] = std::move(gfibs_[og.value()]);
    }
  }
  gfibs_ = std::move(banks);

  const SimTime now = simulator_.now();
  ++grouping_epoch_;
  for (std::size_t gi = 0; gi < members.size(); ++gi) {
    const GroupId group{static_cast<std::uint32_t>(gi)};
    for (SwitchId m : members[gi]) {
      switches_[m.value()]->set_group(group);
    }
    if (!rebuild[gi]) {
      // The moved bank kept its columns, so only its address changed.
      for (SwitchId m : members[gi]) {
        switches_[m.value()]->attach_gfib(&gfibs_[gi]);
      }
      continue;
    }
    select_designated(members[gi]);
    rebuild_group_fib(group, members[gi]);
    if (!initial) {
      for (SwitchId m : members[gi]) {
        EdgeSwitch& sw = *switches_[m.value()];
        sw.set_transition_until(now + config_.grouping.transition_window);
        if (config_.grouping.preload_on_update) {
          // Appendix B: the controller preloads temporary rules so flows
          // keep forwarding while G-FIBs resettle.
          ++metrics_->preload_rules_installed;
          ++metrics_->control_link_messages;
        }
      }
    }
  }

  if (config_.failover_enabled) rebuild_failure_wheels();
}

void Network::rebuild_failure_wheels() {
  for (auto& wheel : wheels_) wheel->stop();
  wheels_.clear();

  for (const auto& group : controller_.grouping().members()) {
    if (group.empty()) continue;
    // §III-D1: the controller orders the ring by management MAC.
    std::vector<SwitchId> ring = group;
    std::sort(ring.begin(), ring.end(), [this](SwitchId a, SwitchId b) {
      return switches_[a.value()]->management_mac() <
             switches_[b.value()]->management_mac();
    });
    const SwitchId designated = switches_[group.front().value()]->designated();
    // Backups: the two ring neighbours of the designated switch.
    std::vector<SwitchId> backups;
    if (ring.size() > 1) {
      const auto it = std::find(ring.begin(), ring.end(), designated);
      const std::size_t idx =
          static_cast<std::size_t>(std::distance(ring.begin(), it));
      backups.push_back(ring[(idx + 1) % ring.size()]);
      if (ring.size() > 2) {
        backups.push_back(ring[(idx + ring.size() - 1) % ring.size()]);
      }
    }
    auto wheel = std::make_unique<FailureWheel>(simulator_, std::move(ring),
                                                designated, backups, config_);
    wheel->start();
    wheels_.push_back(std::move(wheel));
  }
}

FailureWheel* Network::wheel_of(SwitchId sw) {
  if (wheels_.empty()) return nullptr;
  const GroupId g = switches_[sw.value()]->group();
  if (!g.valid() || g.value() >= wheels_.size()) return nullptr;
  return wheels_[g.value()].get();
}

SimDuration Network::control_detour(SwitchId via) {
  if (!via.valid() || wheels_.empty()) return 0;
  const FailureWheel* wheel = wheel_of(via);
  if (wheel == nullptr || !wheel->control_relayed(via)) return 0;
  return config_.latency.datapath + config_.latency.switch_processing;
}

SimDuration Network::controller_round_trip(SimTime now, SwitchId via,
                                           ControllerTripBreakdown* breakdown) {
  const SimDuration detour = control_detour(via);
  const SimTime arrival = now + detour + config_.latency.control_link;
  metrics_->controller_requests.add_event(arrival);
  ++metrics_->controller_packet_ins;
  metrics_->control_link_messages += 2;  // PacketIn + FlowMod/PacketOut

  const SimTime start =
      std::max(arrival, controller_.admit_request(arrival) -
                            config_.latency.controller_service);
  const SimTime done = start + config_.latency.controller_service;
  metrics_->controller_queue_delay_ms.add(to_milliseconds(start - arrival));
  if (breakdown != nullptr) {
    breakdown->uplink = detour + config_.latency.control_link;
    breakdown->queue = start - arrival;
    breakdown->service = config_.latency.controller_service;
    breakdown->downlink = config_.latency.control_link + detour;
  }
  return (done + config_.latency.control_link + detour) - now;
}

Network::PuntOutcome Network::controller_punt_with_retry(
    std::uint64_t flow_id, SimTime now, SwitchId via,
    ControllerTripBreakdown* breakdown) {
  const ControllerConfig& ctrl = config_.controller;
  RunMetrics& m = *metrics_;
  const std::uint64_t seed = config_.seed;
  SimDuration elapsed = 0;  ///< backoff accumulated before this attempt
  const std::uint64_t attempts = 1 + std::uint64_t{ctrl.punt_retry_limit};
  for (std::uint64_t a = 0; a < attempts; ++a) {
    const auto attempt = static_cast<std::uint32_t>(a);
    if (attempt > 0) {
      // The previous attempt failed: the edge switch detects the missing
      // reply after a deterministic exponential backoff (+ jitter keyed
      // on the flow's position in the trace, not the run RNG) and
      // re-sends the punt.
      elapsed += EdgeSwitch::punt_retry_delay(flow_id, attempt - 1, ctrl,
                                              seed);
      ++m.punt_retries;
    }
    const SimTime t = now + elapsed;

    // PacketIn uplink.
    m.control_link_messages += 1;
    if (fault_roll(seed, flow_id, attempt, kSaltUplinkDup, ctrl.dup_rate)) {
      m.control_link_messages += 1;  // duplicate copy also transits
      ++m.ctrl_msgs_duped;
    }
    if (fault_roll(seed, flow_id, attempt, kSaltUplinkLoss,
                   ctrl.loss_rate)) {
      ++m.ctrl_msgs_lost;
      continue;  // PacketIn never arrived
    }

    const SimDuration detour = control_detour(via);
    const SimTime arrival = t + detour + config_.latency.control_link;

    // Bounded admission: a full outage backlog sheds the request with an
    // explicit reject reply; the switch backs off and retries.
    const CentralController::AdmitResult admit =
        controller_.admit_request_bounded(arrival, ctrl.queue_cap);
    if (admit.rejected) {
      ++m.ctrl_admission_drops;
      m.control_link_messages += 1;  // reject reply
      continue;
    }
    const SimTime start =
        std::max(arrival, admit.done - config_.latency.controller_service);
    const SimTime done = start + config_.latency.controller_service;
    m.controller_queue_delay_ms.add(to_milliseconds(start - arrival));

    // FlowMod/PacketOut downlink.
    m.control_link_messages += 1;
    if (fault_roll(seed, flow_id, attempt, kSaltDownlinkDup,
                   ctrl.dup_rate)) {
      m.control_link_messages += 1;
      ++m.ctrl_msgs_duped;
    }
    if (fault_roll(seed, flow_id, attempt, kSaltDownlinkLoss,
                   ctrl.loss_rate)) {
      // The controller serviced the request but the reply was lost; the
      // switch never learns and retries the whole punt.
      ++m.ctrl_msgs_lost;
      continue;
    }

    // Fully successful attempt — the only one that counts as a PacketIn,
    // so the flows/packet-ins conservation identities are unchanged by
    // faults (failed legs live in ctrl_msgs_* and punt_retries).
    m.controller_requests.add_event(arrival);
    ++m.controller_packet_ins;
    const SimDuration trip =
        (done + config_.latency.control_link + detour) - t;
    if (breakdown != nullptr) {
      breakdown->uplink = detour + config_.latency.control_link;
      breakdown->queue = start - arrival;
      breakdown->service = config_.latency.controller_service;
      breakdown->downlink = config_.latency.control_link + detour;
      breakdown->retry_backoff = elapsed;
    }
    return {.delay = elapsed + trip, .backoff = elapsed, .delivered = true};
  }

  // Every attempt lost or rejected: the punt times out at the edge.
  ++m.punt_timeouts;
  if (breakdown != nullptr) breakdown->retry_backoff = elapsed;
  return {.delay = elapsed, .backoff = elapsed, .delivered = false};
}

void Network::install_reactive_rule(EdgeSwitch& sw, const net::Packet& pkt,
                                    SwitchId dst_sw, bool exact_match,
                                    SimTime now) {
  openflow::FlowRule rule;
  rule.priority = 10;
  rule.match.tenant = pkt.tenant;
  rule.match.dst_mac = pkt.dst_mac;
  if (exact_match) rule.match.src_mac = pkt.src_mac;  // OpenFlow baseline
  if (span_install_log_ != nullptr) {
    (*span_install_log_)[sw.id().value()].push_back(rule.match);
  }
  if (dst_sw == sw.id()) {
    rule.action.type = openflow::ActionType::kForwardLocal;
  } else {
    rule.action.type = openflow::ActionType::kEncapTo;
    rule.action.remote_switch = dst_sw;
    rule.action.tunnel_dst = switches_[dst_sw.value()]->underlay_ip();
  }
  rule.installed_at = now;
  rule.expires_at = now + config_.rules.rule_ttl;
  sw.flow_table().install(rule);
}

void Network::account_flow_latency(const workload::Flow& flow,
                                   SimDuration first_packet,
                                   SimDuration steady_packet) {
  RunMetrics& m = *metrics_;
  m.first_packet_latency_ms.add(to_milliseconds(first_packet));
  m.packet_latency.add(flow.start, to_milliseconds(first_packet));
  if (flow.packets > 1) {
    m.packet_latency.add_n(flow.start, to_milliseconds(steady_packet),
                           flow.packets - 1);
  }
  m.packets_accounted += flow.packets;
}

net::Packet Network::make_flow_packet(const topo::HostInfo& src,
                                      const topo::HostInfo& dst,
                                      const workload::Flow& flow) noexcept {
  net::Packet pkt;
  pkt.kind = net::PacketKind::kData;
  pkt.src_mac = src.mac;
  pkt.dst_mac = dst.mac;
  pkt.tenant = src.tenant;
  pkt.payload_bytes = flow.avg_packet_bytes;
  pkt.created_at = flow.start;
  return pkt;
}

void Network::on_flow(const workload::Flow& flow, std::uint64_t flow_id,
                      const EdgeSwitch::Decision* pre) {
  ++metrics_->flows_seen;
  metrics_->flow_arrivals.add_event(flow.start);
  const topo::HostInfo& src = topology_.host_info(flow.src);
  const topo::HostInfo& dst = topology_.host_info(flow.dst);
  const SwitchId src_sw = src.attached_switch;
  const SwitchId dst_sw = dst.attached_switch;
  EdgeSwitch& sw = *switches_[src_sw.value()];
  const bool lazy = config_.mode == ControlMode::kLazyCtrl;
  // Switch-pair traffic feeds regrouping only, which OpenFlow mode never
  // runs, so that mode records none.
  if (lazy) traffic_monitor_->record_flow(src_sw, dst_sw);

  const net::Packet pkt = make_flow_packet(src, dst, flow);
  // Grouping transition window (appendix B preload): no decision.
  if (lazy && handle_transition_flow(flow, flow_id, src_sw, dst_sw, pkt)) {
    return;
  }
  const EdgeSwitch::Decision d =
      pre != nullptr ? *pre : sw.decide(pkt, flow.start, config_.mode);
  if (lazy) {
    process_lazyctrl_decision(flow, flow_id, src_sw, dst_sw, pkt, d);
  } else {
    process_openflow_decision(flow, flow_id, src_sw, dst_sw, pkt, d);
  }
}

void Network::process_openflow_decision(const workload::Flow& flow,
                                        std::uint64_t flow_id,
                                        SwitchId src_sw, SwitchId dst_sw,
                                        const net::Packet& pkt,
                                        const EdgeSwitch::Decision& d) {
  const SimDuration steady = path_delays().steady(src_sw, dst_sw);

  if (d.kind == EdgeSwitch::DecisionKind::kFlowTableHit) {
    ++metrics_->flows_flow_table_hit;
    account_flow_latency(flow, steady, steady);
    if (obs::flow_attribution_enabled()) {
      record_flow_attribution(flow, flow_id, src_sw, dst_sw,
                              obs::FlowPathKind::kFlowTableHit,
                              config_.latency, steady);
    }
    return;
  }
  // Every miss is a PacketIn; the controller resolves via C-LIB and
  // installs an exact-match rule (Floodlight learning-switch behaviour).
  finish_controller_flow(flow, flow_id, src_sw, dst_sw, pkt,
                         ControllerPathReason::kOpenFlowMiss);
}

bool Network::handle_transition_flow(const workload::Flow& flow,
                                     std::uint64_t flow_id,
                                     SwitchId src_sw, SwitchId dst_sw,
                                     const net::Packet& pkt) {
  EdgeSwitch& sw = *switches_[src_sw.value()];
  if (host_pair_excluded(flow) || !sw.in_transition(flow.start)) return false;

  const SimDuration steady = path_delays().steady(src_sw, dst_sw);

  if (config_.grouping.preload_on_update) {
    // Preloaded temporary rule absorbs the transition.
    ++metrics_->flows_flow_table_hit;
    account_flow_latency(flow, steady, steady);
    if (obs::flow_attribution_enabled()) {
      record_flow_attribution(flow, flow_id, src_sw, dst_sw,
                              obs::FlowPathKind::kFlowTableHit,
                              config_.latency, steady);
    }
    return true;
  }
  finish_controller_flow(flow, flow_id, src_sw, dst_sw, pkt,
                         ControllerPathReason::kTransitionPunt);
  return true;
}

void Network::process_lazyctrl_decision(const workload::Flow& flow,
                                        std::uint64_t flow_id,
                                        SwitchId src_sw, SwitchId dst_sw,
                                        const net::Packet& pkt,
                                        const EdgeSwitch::Decision& d) {
  const PathDelays paths = path_delays();
  const SimDuration steady = paths.steady(src_sw, dst_sw);
  RunMetrics& m = *metrics_;

  // Appendix B host exclusion: excluded hosts are controller-handled
  // (fine-grained control, with rule caching).
  if (host_pair_excluded(flow) &&
      d.kind != EdgeSwitch::DecisionKind::kFlowTableHit &&
      d.kind != EdgeSwitch::DecisionKind::kLocalDeliver) {
    finish_controller_flow(flow, flow_id, src_sw, dst_sw, pkt,
                           ControllerPathReason::kExcludedHosts);
    return;
  }

  const bool attr = obs::flow_attribution_enabled();
  switch (d.kind) {
    case EdgeSwitch::DecisionKind::kFlowTableHit: {
      ++m.flows_flow_table_hit;
      account_flow_latency(flow, steady, steady);
      if (attr) {
        record_flow_attribution(flow, flow_id, src_sw, dst_sw,
                                obs::FlowPathKind::kFlowTableHit,
                                config_.latency, steady);
      }
      return;
    }
    case EdgeSwitch::DecisionKind::kLocalDeliver: {
      ++m.flows_local_delivery;
      account_flow_latency(flow, paths.local, paths.local);
      if (attr) {
        record_flow_attribution(flow, flow_id, src_sw, dst_sw,
                                obs::FlowPathKind::kLocalDeliver,
                                config_.latency, paths.local);
      }
      return;
    }
    case EdgeSwitch::DecisionKind::kIntraGroup: {
      const bool has_dst = std::binary_search(d.candidates.begin(),
                                              d.candidates.end(), dst_sw);
      if (has_dst) {
        // Normal intra-group delivery; extra copies are BF false positives
        // dropped at the mis-targeted peers (Fig. 5 encapsulated branch).
        ++m.flows_intra_group;
        const std::uint64_t extras = d.candidates.size() - 1;
        m.bf_false_positive_copies += extras * flow.packets;
        m.bf_misforward_drops += extras * flow.packets;
        account_flow_latency(flow, paths.cross, paths.cross);
        if (attr) {
          record_flow_attribution(flow, flow_id, src_sw, dst_sw,
                                  obs::FlowPathKind::kIntraGroup,
                                  config_.latency, paths.cross);
        }
        return;
      }
      // Pure false positive: the destination is outside the group but some
      // filter matched. All copies are dropped at the receivers; per the
      // optional §III-D4 rule, the mis-forward is reported so the
      // controller installs an exact rule and forwards the packet.
      m.bf_false_positive_copies += d.candidates.size();
      m.bf_misforward_drops += d.candidates.size();
      finish_controller_flow(flow, flow_id, src_sw, dst_sw, pkt,
                             ControllerPathReason::kPureFalsePositive);
      return;
    }
    case EdgeSwitch::DecisionKind::kToController: {
      // Inter-group flow: PacketIn, coarse (tenant, dst) rule installed.
      finish_controller_flow(flow, flow_id, src_sw, dst_sw, pkt,
                             ControllerPathReason::kInterGroupPunt);
      return;
    }
  }
}

void Network::finish_controller_flow(const workload::Flow& flow,
                                     std::uint64_t flow_id,
                                     SwitchId src_sw, SwitchId dst_sw,
                                     const net::Packet& pkt,
                                     ControllerPathReason reason) {
  obs::trace_instant(obs::TraceEventType::kFlowPunt, flow.start,
                     static_cast<std::uint64_t>(reason), src_sw.value());
  const SimTime now = flow.start;
  const LatencyModel& lat = config_.latency;
  const PathDelays paths = path_delays();
  const SimDuration steady = paths.steady(src_sw, dst_sw);
  EdgeSwitch& sw = *switches_[src_sw.value()];
  RunMetrics& m = *metrics_;

  const bool attr = obs::flow_attribution_enabled();
  ControllerTripBreakdown bd;
  ControllerTripBreakdown* bdp = attr ? &bd : nullptr;
  SimDuration e2e = 0;
  obs::FlowPathKind path = obs::FlowPathKind::kOpenFlowMiss;

  // Punt send offset and detour-capable spoke; the pure-false-positive
  // report is raised by the mis-targeted peer (generic spoke) after the
  // copy crossed the fabric.
  const bool pure_fp = reason == ControllerPathReason::kPureFalsePositive;
  const SimDuration report_at = pure_fp ? paths.cross : lat.host_link;
  const SwitchId via = pure_fp ? SwitchId::invalid() : src_sw;

  const PuntOutcome out =
      controller_punt_with_retry(flow_id, now + report_at, via, bdp);

  if (!out.delivered) {
    // The punt exhausted every retry. LazyCtrl degrades gracefully: the
    // edge switch falls back to §III-D intra-group flooding, so the flow
    // is delivered (degraded) over the peer links without a rule. The
    // OpenFlow baseline has no local fallback — the flow is dropped and
    // deliberately NOT latency-accounted (no packet ever arrives).
    if (config_.mode == ControlMode::kLazyCtrl) {
      ++m.flows_degraded;
      m.peer_link_messages += sw.gfib().peer_count();
      const SimDuration first = report_at + out.delay + paths.cross +
                                lat.datapath + lat.switch_processing;
      account_flow_latency(flow, first, steady);
      e2e = first;
      path = obs::FlowPathKind::kDegradedFlood;
    } else {
      ++m.flows_dropped;
      e2e = report_at + out.delay;
      path = obs::FlowPathKind::kPuntDropped;
    }
    if (attr) {
      record_flow_attribution(flow, flow_id, src_sw, dst_sw, path, lat, e2e,
                              &bd);
    }
    return;
  }

  const SimDuration ctrl = out.delay;
  switch (reason) {
    case ControllerPathReason::kOpenFlowMiss: {
      install_reactive_rule(sw, pkt, dst_sw, /*exact_match=*/true, now);
      account_flow_latency(flow, steady + ctrl, steady);
      e2e = steady + ctrl;
      path = obs::FlowPathKind::kOpenFlowMiss;
      break;
    }
    case ControllerPathReason::kTransitionPunt: {
      ++m.transition_punts;
      install_reactive_rule(sw, pkt, dst_sw, /*exact_match=*/false, now);
      account_flow_latency(flow, steady + ctrl, steady);
      e2e = steady + ctrl;
      path = obs::FlowPathKind::kTransitionPunt;
      break;
    }
    case ControllerPathReason::kExcludedHosts:
    case ControllerPathReason::kInterGroupPunt: {
      install_reactive_rule(sw, pkt, dst_sw, /*exact_match=*/false, now);
      ++m.flows_inter_group;
      m.inter_group_arrivals.add_event(now);
      account_flow_latency(flow, steady + ctrl, steady);
      e2e = steady + ctrl;
      path = reason == ControllerPathReason::kExcludedHosts
                 ? obs::FlowPathKind::kExcludedHosts
                 : obs::FlowPathKind::kInterGroupPunt;
      break;
    }
    case ControllerPathReason::kPureFalsePositive: {
      install_reactive_rule(sw, pkt, dst_sw, /*exact_match=*/false, now);
      ++m.flows_inter_group;
      m.inter_group_arrivals.add_event(now);
      account_flow_latency(flow, report_at + ctrl + lat.datapath, steady);
      e2e = report_at + ctrl + lat.datapath;
      path = obs::FlowPathKind::kPureFalsePositive;
      break;
    }
  }
  if (attr) {
    record_flow_attribution(flow, flow_id, src_sw, dst_sw, path, lat, e2e,
                            &bd);
  }
}

void Network::roll_stats_window() {
  const SimTime now = simulator_.now();
  controller_.roll_window(now);

  // Fold the window's switch-pair counts (the aggregate the state
  // advertisements deliver, designated switch -> controller) into the
  // decayed intensity estimate. The decay smooths per-window noise so
  // regrouping reacts to persistent shifts.
  traffic_monitor_->roll_window();

  if (config_.mode == ControlMode::kLazyCtrl &&
      config_.dgm.mode == DgmMode::kControllerLoad) {
    run_incupdate(/*forced=*/false);
  }
}

bool Network::run_incupdate(bool forced) {
  const SimTime now = simulator_.now();
  if (traffic_monitor_->flow_mass() < config_.dgm.min_flow_evidence) {
    return false;
  }
  if (!forced && !controller_.should_regroup(now)) return false;
  Grouping grouping = controller_.grouping();  // copy for in-place update
  const Sgi::UpdateResult result = sgi_.incremental_update(
      grouping, traffic_monitor_->intensity_graph(), rng_);
  if (result.touched_groups.empty()) {
    // No profitable move; the attempt still restarts the growth baseline.
    controller_.note_regrouped(now);
    return false;
  }
  LOG_DEBUG("grouping update at t=" << to_seconds(now)
                                    << "s, Winter " << result.inter_group_before
                                    << " -> " << result.inter_group_after);
  commit_grouping(std::move(grouping), result.touched_groups);
  return true;
}

void Network::commit_grouping(Grouping grouping,
                              const std::vector<GroupId>& /*touched*/) {
  // Staged semantics: targeted G-FIB resync, preload + transition windows,
  // failure-wheel rebuild. The planner's touched list is numbered against
  // the pre-compact grouping, so apply_grouping derives the rebuild set
  // itself (see network.h).
  const SimTime now = simulator_.now();
  apply_grouping(std::move(grouping), /*initial=*/false);
  controller_.note_regrouped(now);
  ++metrics_->grouping_update_count;
  metrics_->grouping_updates.add_event(now);
}

bool Network::run_dgm_maintenance() {
  if (!dgm_ || !bootstrapped_ || controller_.grouping().group_count == 0) {
    return false;
  }
  const dgm::MaintenanceRound round =
      dgm_->maintenance_round(*traffic_monitor_, simulator_.now());
  ++metrics_->dgm_rounds;
  if (!round.plan_applied) return false;

  ++metrics_->dgm_plans_applied;
  metrics_->dgm_switch_moves += round.moves;
  metrics_->dgm_group_merges += round.merges;
  metrics_->dgm_group_splits += round.splits;
  metrics_->dgm_flow_mods += round.flow_mods;
  return true;
}

void Network::schedule_migration(HostId host, SwitchId to, SimTime at) {
  assert(!replayed_);
  pending_migrations_.push_back({host, to, at});
}

void Network::perform_migration(HostId host, SwitchId to) {
  const topo::HostInfo before = topology_.host_info(host);
  const SwitchId from = topology_.migrate_host(host, to);
  if (from == to) return;

  // Live dissemination (§III-D3): old switch forgets, new switch learns,
  // C-LIB updates, and the affected groups resync the two changed L-FIBs.
  switches_[from.value()]->lfib().forget(before.mac);
  switches_[to.value()]->lfib().learn(before.mac, host, before.tenant);
  controller_.clib_learn(before.mac, host, before.tenant, to);
  metrics_->control_link_messages += 1;

  // Stale rules pointing at the old location are revoked.
  for (const auto& sw : switches_) {
    sw->flow_table().remove_rules_for_destination(before.mac);
  }

  if (config_.mode == ControlMode::kLazyCtrl &&
      controller_.grouping().group_count > 0) {
    // Both endpoints' host sets changed, so their filters must be force
    // rebuilt at every group peer — the delta resync would otherwise keep
    // the (now stale) installed filters.
    const auto members = controller_.grouping().members();
    const GroupId gf = controller_.grouping().group_of(from);
    const GroupId gt = controller_.grouping().group_of(to);
    if (gf == gt) {
      const SwitchId changed[] = {from, to};
      rebuild_group_fib(gf, members[gf.value()], changed);
    } else {
      const SwitchId changed_from[] = {from};
      rebuild_group_fib(gf, members[gf.value()], changed_from);
      const SwitchId changed_to[] = {to};
      rebuild_group_fib(gt, members[gt.value()], changed_to);
    }
  }
}

void Network::set_dormant_tenants(std::span<const TenantId> tenants) {
  assert(!bootstrapped_ && "dormant tenants must be set before bootstrap()");
  for (const topo::HostInfo& h : topology_.hosts()) {
    for (const TenantId t : tenants) {
      if (h.tenant == t) {
        dormant_hosts_.insert(h.id.value());
        break;
      }
    }
  }
}

void Network::resync_changed_members(const std::vector<SwitchId>& changed) {
  if (config_.mode != ControlMode::kLazyCtrl ||
      controller_.grouping().group_count == 0) {
    return;
  }
  const auto members = controller_.grouping().members();
  // Group the changed switches so each affected group resyncs once, with
  // its own members marked dirty (their installed filters are
  // present-but-stale, exactly the live host-migration situation).
  std::map<std::uint32_t, std::vector<SwitchId>> by_group;
  for (const SwitchId sw : changed) {
    const GroupId g = controller_.grouping().group_of(sw);
    if (g.valid()) by_group[g.value()].push_back(sw);
  }
  for (const auto& [g, dirty] : by_group) {
    rebuild_group_fib(GroupId{g}, members[g], dirty);
  }
}

bool Network::activate_tenant(TenantId tenant) {
  std::vector<SwitchId> changed;
  for (const topo::HostInfo& h : topology_.hosts()) {
    if (h.tenant != tenant || !dormant_hosts_.contains(h.id.value())) {
      continue;
    }
    // §III-D3 live dissemination, host by host: edge switch learns, the
    // C-LIB update rides the control link.
    dormant_hosts_.erase(h.id.value());
    switches_[h.attached_switch.value()]->lfib().learn(h.mac, h.id, h.tenant);
    controller_.clib_learn(h.mac, h.id, h.tenant, h.attached_switch);
    ++metrics_->control_link_messages;
    if (std::find(changed.begin(), changed.end(), h.attached_switch) ==
        changed.end()) {
      changed.push_back(h.attached_switch);
    }
  }
  if (changed.empty()) return false;
  resync_changed_members(changed);
  return true;
}

bool Network::deactivate_tenant(TenantId tenant) {
  std::vector<SwitchId> changed;
  std::vector<MacAddress> macs;
  for (const topo::HostInfo& h : topology_.hosts()) {
    if (h.tenant != tenant || dormant_hosts_.contains(h.id.value())) {
      continue;
    }
    dormant_hosts_.insert(h.id.value());
    switches_[h.attached_switch.value()]->lfib().forget(h.mac);
    controller_.clib_forget(h.mac);
    macs.push_back(h.mac);
    ++metrics_->control_link_messages;
    if (std::find(changed.begin(), changed.end(), h.attached_switch) ==
        changed.end()) {
      changed.push_back(h.attached_switch);
    }
  }
  if (changed.empty()) return false;
  // Reactive rules pointing at the departed hosts are revoked everywhere,
  // like after a live migration.
  for (const auto& sw : switches_) {
    for (const MacAddress mac : macs) {
      sw->flow_table().remove_rules_for_destination(mac);
    }
  }
  resync_changed_members(changed);
  return true;
}

void Network::begin_controller_outage(SimDuration duration) {
  if (duration <= 0) return;
  const SimTime now = simulator_.now();
  obs::trace_instant(obs::TraceEventType::kControllerOutageBegin, now,
                     static_cast<std::uint64_t>((now + duration) / kMillisecond),
                     controller_.outage_queue_depth());
  controller_.begin_outage(now + duration);
}

bool Network::reconcile_state() {
  if (config_.mode != ControlMode::kLazyCtrl || !bootstrapped_) return false;
  std::uint64_t repairs = 0;

  // Audit every active host's L-FIB record at its attached switch and
  // its C-LIB entry against the topology (the ground truth); re-learn
  // whatever diverged while control messages were being lost.
  for (const topo::HostInfo& h : topology_.hosts()) {
    if (dormant_hosts_.contains(h.id.value())) continue;
    EdgeSwitch& hsw = *switches_[h.attached_switch.value()];
    const std::optional<LFibEntry> lrec = hsw.lfib().lookup(h.mac);
    if (!lrec.has_value() || lrec->host != h.id || lrec->tenant != h.tenant) {
      hsw.lfib().learn(h.mac, h.id, h.tenant);
      ++repairs;
    }
    const std::optional<ClibEntry> crec = controller_.clib_lookup(h.mac);
    if (!crec.has_value() || crec->host != h.id ||
        crec->attached_switch != h.attached_switch) {
      controller_.clib_learn(h.mac, h.id, h.tenant, h.attached_switch);
      ++repairs;
    }
  }

  // Resync every group's G-FIB from the (now repaired) L-FIBs. The delta
  // pass keeps filters that already exist, so this is idempotent — a
  // reconcile over converged state repairs nothing and rebuilds nothing.
  const auto members = controller_.grouping().members();
  for (std::size_t gi = 0; gi < members.size(); ++gi) {
    if (!members[gi].empty()) {
      rebuild_group_fib(GroupId{static_cast<std::uint32_t>(gi)},
                        members[gi]);
    }
  }

  metrics_->reconcile_repairs += repairs;
  // Audit traffic rides the state channel (switch -> designated ->
  // controller), priced as one report per switch.
  metrics_->state_link_messages += switches_.size();
  return true;
}

bool Network::inject_switch_failure(SwitchId sw) {
  FailureWheel* wheel = wheel_of(sw);
  if (wheel == nullptr || !wheel->is_switch_up(sw)) return false;
  wheel->fail_switch(sw);
  return true;
}

bool Network::inject_switch_recovery(SwitchId sw) {
  FailureWheel* wheel = wheel_of(sw);
  if (wheel == nullptr || wheel->is_switch_up(sw)) return false;
  wheel->recover_switch(sw);
  return true;
}

bool Network::inject_peer_link_failure(SwitchId sw) {
  FailureWheel* wheel = wheel_of(sw);
  if (wheel == nullptr || wheel->ring().size() < 2 ||
      !wheel->is_down_link_up(sw)) {
    return false;
  }
  wheel->fail_peer_link(sw, wheel->downstream_of(sw));
  return true;
}

bool Network::inject_peer_link_recovery(SwitchId sw) {
  FailureWheel* wheel = wheel_of(sw);
  if (wheel == nullptr || wheel->ring().size() < 2 ||
      wheel->is_down_link_up(sw)) {
    return false;
  }
  wheel->recover_peer_link(sw, wheel->downstream_of(sw));
  return true;
}

bool Network::inject_control_link_failure(SwitchId sw) {
  FailureWheel* wheel = wheel_of(sw);
  if (wheel == nullptr || !wheel->is_control_link_up(sw)) return false;
  wheel->fail_control_link(sw);
  return true;
}

bool Network::inject_control_link_recovery(SwitchId sw) {
  FailureWheel* wheel = wheel_of(sw);
  if (wheel == nullptr || wheel->is_control_link_up(sw)) return false;
  wheel->recover_control_link(sw);
  return true;
}

std::size_t Network::failover_event_count() const {
  std::size_t n = 0;
  for (const auto& wheel : wheels_) n += wheel->events().size();
  return n;
}

bool Network::force_regroup() {
  if (config_.mode != ControlMode::kLazyCtrl || !bootstrapped_ ||
      controller_.grouping().group_count == 0) {
    return false;
  }
  if (dgm_) return run_dgm_maintenance();
  return run_incupdate(/*forced=*/true);
}

void Network::begin_replay(const workload::Trace& trace) {
  assert(bootstrapped_ && "call bootstrap() before replay()");
  assert(!replayed_);
  replayed_ = true;
  horizon_ = trace.horizon;
  // Re-bucket the time series to the trace horizon but keep the scalar
  // counters accumulated during bootstrap (dissemination messages etc.).
  auto fresh = std::make_unique<RunMetrics>(horizon_);
  fresh->peer_link_messages = metrics_->peer_link_messages;
  fresh->state_link_messages = metrics_->state_link_messages;
  fresh->control_link_messages = metrics_->control_link_messages;
  fresh->preload_rules_installed = metrics_->preload_rules_installed;
  metrics_ = std::move(fresh);

  // Periodic machinery.
  ReplayTimers& timers = replay_timers_;
  timers.window = simulator_.schedule_periodic(
      config_.grouping.stats_window, [this] { roll_stats_window(); });
  timers.report = simulator_.schedule_periodic(
      config_.state_report_period, [this] { state_report_tick(); });
  if (dgm_) {
    timers.dgm = simulator_.schedule_periodic(
        config_.dgm.maintenance_period, [this] { run_dgm_maintenance(); });
  }
  if (config_.controller.reconcile_period > 0) {
    timers.reconcile = simulator_.schedule_periodic(
        config_.controller.reconcile_period, [this] { reconcile_state(); });
  }

  // Migrations. The scheduled id is recorded so a checkpoint can match
  // the pending one-shot back to its migration.
  for (PendingMigration& m : pending_migrations_) {
    m.event = simulator_.schedule_at(
        m.at, [this, host = m.host, to = m.to] {
          perform_migration(host, to);
        });
  }
}

void Network::state_report_tick() {
  if (config_.mode == ControlMode::kLazyCtrl) {
    metrics_->state_link_messages += controller_.grouping().group_count;
  }
}

void Network::end_replay() {
  simulator_.cancel(replay_timers_.window);
  simulator_.cancel(replay_timers_.report);
  if (replay_timers_.dgm != 0) simulator_.cancel(replay_timers_.dgm);
  if (replay_timers_.reconcile != 0) {
    simulator_.cancel(replay_timers_.reconcile);
  }
}

void Network::replay(const workload::Trace& trace) {
  begin_replay(trace);
  run_flow_chain(trace, nullptr);
}

void Network::resume_replay(const workload::Trace& trace,
                            const ResumeCursor& rc) {
  // No begin_replay(): the restorer already rebuilt the metrics storage
  // and re-attached every periodic timer and migration one-shot under
  // its exact snapshot tuple. Only the flow chain is left to re-create.
  run_flow_chain(trace, &rc);
}

void Network::run_flow_chain(const workload::Trace& trace,
                             const ResumeCursor* rc) {
  std::optional<runtime::ShardedRuntime> sharded;
  if (config_.runtime.num_shards > 1) sharded.emplace(*this);
  sim::CursorStep step =
      span_step(trace.flows, sharded ? &*sharded : nullptr);
  if (rc == nullptr) {
    if (!trace.flows.empty()) {
      sim::schedule_cursor_chain(simulator_, trace.flows.front().start,
                                 std::move(step), &cursor_);
    }
  } else if (rc->active) {
    sim::resume_cursor_chain(simulator_, rc->at, rc->seq, rc->id, rc->index,
                             std::move(step), &cursor_);
  }
  simulator_.run_until(trace.horizon);
  end_replay();
}

sim::CursorStep Network::span_step(const std::vector<workload::Flow>& flows,
                                   runtime::ShardedRuntime* sharded) {
  return [this, &flows, sharded](std::size_t i)
             -> std::optional<std::pair<std::size_t, SimTime>> {
    // The event for flow i has fired, so flow i is safe. Later flows join
    // the span only while they start strictly before the next pending
    // event: at a timestamp tie that event runs first, and no flow
    // schedules one. The TTL bound is the sharded runtime's: a worker's
    // lookup sweeps every rule expired by its flow's start before the
    // merge handles the span's earlier flows, and every rule an earlier
    // flow hit or installed expires at least one TTL after the span's
    // first flow.
    const SimTime fence = std::min(simulator_.next_event_time(),
                                   flows[i].start + config_.rules.rule_ttl);
    const std::size_t cap = std::min(flows.size(), i + kMaxSpanFlows);
    std::size_t end = i + 1;
    while (end < cap && flows[end].start < fence) ++end;

    obs::ScopedTimer timer(obs::TraceEventType::kReplaySpan, flows[i].start,
                           end - i, i);
    if (sharded != nullptr) {
      sharded->process_span(flows, i, end);
    } else {
      for (std::size_t k = i; k < end; ++k) on_flow(flows[k], k);
    }
    if (end == flows.size()) return std::nullopt;
    return {{end, flows[end].start}};
  };
}

HostId Network::add_silent_host(TenantId tenant, SwitchId sw) {
  return topology_.add_host(tenant, sw);
}

SimDuration Network::cold_cache_first_packet(HostId src_id, HostId dst_id) {
  const topo::HostInfo& src = topology_.host_info(src_id);
  const topo::HostInfo& dst = topology_.host_info(dst_id);
  const SwitchId src_sw = src.attached_switch;
  const SwitchId dst_sw = dst.attached_switch;
  const LatencyModel& lat = config_.latency;
  const SimTime now = simulator_.now();

  const PathDelays paths = path_delays();
  const SimDuration local_path = paths.local;
  const SimDuration cross_path = paths.cross;

  if (config_.mode == ControlMode::kOpenFlow) {
    // Baseline cold cache (§V-E: the learning-switch module learns the
    // topology through ARP flooding): the ARP request is a PacketIn, the
    // controller floods it (PacketOut), the reply is another PacketIn
    // relayed back, and the first data packet is a third PacketIn resolved
    // into a FlowMod. Once the controller has learned a destination's
    // location the ARP round trips are skipped and only flow setup remains.
    SimDuration total = lat.host_link + lat.switch_processing;
    if (!controller_.clib_lookup(dst.mac).has_value()) {
      total += controller_round_trip(now + total);         // ARP request in
      total += lat.datapath + lat.switch_processing;       // flood to edge
      total += lat.host_link * 2;                          // dst host replies
      total += controller_round_trip(now + total);         // ARP reply in
      total += lat.datapath + lat.host_link;               // reply delivered
      total += lat.host_link + lat.switch_processing;      // first data pkt
    }
    total += controller_round_trip(now + total);           // flow setup
    total += lat.datapath + lat.switch_processing + lat.host_link;

    // Locations are now learned.
    switches_[src_sw.value()]->lfib().learn(src.mac, src_id, src.tenant);
    switches_[dst_sw.value()]->lfib().learn(dst.mac, dst_id, dst.tenant);
    controller_.clib_learn(src.mac, src_id, src.tenant, src_sw);
    controller_.clib_learn(dst.mac, dst_id, dst.tenant, dst_sw);
    net::Packet first;
    first.src_mac = src.mac;
    first.dst_mac = dst.mac;
    first.tenant = src.tenant;
    first.created_at = now;
    install_reactive_rule(*switches_[src_sw.value()], first, dst_sw,
                          /*exact_match=*/true, now);
    return total;
  }

  // LazyCtrl: the live-dissemination cascade of §III-D3.
  EdgeSwitch& ssw = *switches_[src_sw.value()];
  ssw.lfib().learn(src.mac, src_id, src.tenant);  // level i: learn source
  controller_.clib_learn(src.mac, src_id, src.tenant, src_sw);

  SimDuration total = lat.host_link + lat.switch_processing;
  if (dst_sw == src_sw) {
    // Local flood answers immediately.
    total += lat.host_link * 2;  // request to host, reply back
    total += local_path;         // first data packet
  } else {
    const bool same_group =
        controller_.grouping().group_count > 0 &&
        controller_.grouping().group_of(src_sw) ==
            controller_.grouping().group_of(dst_sw);
    // Level ii: designated switch broadcasts inside the group.
    total += lat.datapath + lat.switch_processing;  // to designated
    total += lat.datapath + lat.switch_processing;  // designated -> members
    metrics_->peer_link_messages += 2;
    if (!same_group) {
      // Level iii: controller relays to other groups of this tenant.
      total += controller_round_trip(now + total);
      total += lat.datapath + lat.switch_processing;  // relay -> members
      metrics_->state_link_messages += 1;
    }
    total += lat.host_link * 2;            // dst host replies
    total += lat.datapath + lat.host_link; // reply direct to source
    total += cross_path;                   // first data packet
  }

  // Learn the destination group/network-wide.
  EdgeSwitch& dsw = *switches_[dst_sw.value()];
  dsw.lfib().learn(dst.mac, dst_id, dst.tenant);
  controller_.clib_learn(dst.mac, dst_id, dst.tenant, dst_sw);
  // Both endpoint switches learned a host: their filters are stale in
  // their groups' banks until re-synced.
  resync_changed_members(src_sw == dst_sw
                             ? std::vector<SwitchId>{src_sw}
                             : std::vector<SwitchId>{src_sw, dst_sw});
  return total;
}

std::size_t Network::total_gfib_bytes() const {
  std::size_t total = 0;
  for (const GFib& bank : gfibs_) total += bank.storage_bytes();
  return total;
}

void Network::register_stats(obs::Registry& r) {
  // RunMetrics: every field, straight off the X-macro lists. Gauges (not
  // pointer counters) because begin_replay() replaces metrics_'s storage.
#define LAZYCTRL_X(f)                    \
  r.gauge("metrics." #f,                 \
          [this] { return static_cast<double>(metrics_->f); });
  LAZYCTRL_METRICS_COUNTER_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
#define LAZYCTRL_X(f)                                             \
  r.gauge("metrics." #f ".events", [this] {                       \
    std::uint64_t events = 0;                                     \
    const TimeBucketSeries& s = metrics_->f;                      \
    for (std::size_t i = 0; i < s.bucket_count(); ++i)            \
      events += s.bucket_events(i);                               \
    return static_cast<double>(events);                           \
  });
  LAZYCTRL_METRICS_SERIES_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X
#define LAZYCTRL_X(f)                                                       \
  r.gauge("metrics." #f ".count",                                           \
          [this] { return static_cast<double>(metrics_->f.count()); });     \
  r.gauge("metrics." #f ".mean", [this] { return metrics_->f.mean(); });    \
  r.gauge("metrics." #f ".max", [this] { return metrics_->f.max(); });
  LAZYCTRL_METRICS_STATS_FIELDS(LAZYCTRL_X)
#undef LAZYCTRL_X

  // Controller load and outage-queue state.
  r.gauge("controller.total_requests", [this] {
    return static_cast<double>(controller_.total_requests());
  });
  r.gauge("controller.clib_size", [this] {
    return static_cast<double>(controller_.clib_size());
  });
  r.gauge("controller.outage_queue_depth", [this] {
    return static_cast<double>(controller_.outage_queue_depth());
  });
  r.gauge("controller.outage_queue_peak", [this] {
    return static_cast<double>(controller_.outage_queue_peak());
  });
  r.gauge("controller.outage_queued_total", [this] {
    return static_cast<double>(controller_.outage_queued_total());
  });
  r.gauge("controller.admission_drops", [this] {
    return static_cast<double>(controller_.admission_drops());
  });

  // FIB occupancy across all switches.
  r.gauge("fib.gfib_total_bytes",
          [this] { return static_cast<double>(total_gfib_bytes()); });
  const auto table_sum = [this](std::size_t EdgeSwitch::TableSizes::*field) {
    std::size_t total = 0;
    for (const auto& sw : switches_) total += sw->table_sizes().*field;
    return static_cast<double>(total);
  };
  r.gauge("fib.lfib_entries", [table_sum] {
    return table_sum(&EdgeSwitch::TableSizes::lfib_entries);
  });
  r.gauge("fib.flow_table_rules", [table_sum] {
    return table_sum(&EdgeSwitch::TableSizes::flow_table_rules);
  });
  r.gauge("fib.gfib_peers", [table_sum] {
    return table_sum(&EdgeSwitch::TableSizes::gfib_peers);
  });

  // Grouping / failover.
  r.counter("grouping.epoch", &grouping_epoch_);
  r.gauge("grouping.group_count", [this] {
    return static_cast<double>(controller_.grouping().group_count);
  });
  r.gauge("failover.detections", [this] {
    return static_cast<double>(failover_event_count());
  });

  // DGM round outcomes — direct pointer counters: MaintainerStats lives
  // inside the Maintainer member, so its addresses are stable.
  if (dgm_) {
    const dgm::MaintainerStats& s = dgm_->stats();
    r.counter("dgm.rounds", &s.rounds);
    r.counter("dgm.plans_applied", &s.plans_applied);
    r.counter("dgm.switch_moves", &s.switch_moves);
    r.counter("dgm.group_merges", &s.group_merges);
    r.counter("dgm.group_splits", &s.group_splits);
    r.counter("dgm.flow_mods", &s.flow_mods);
  }

  // Sharded-runtime span stats (all zero until a sharded replay ran).
  r.counter("runtime.spans", &runtime_obs_.spans);
  r.counter("runtime.flows", &runtime_obs_.flows);
  r.counter("runtime.redecided_flows", &runtime_obs_.redecided_flows);
  r.counter("runtime.repartitions", &runtime_obs_.repartitions);

  // Wall-clock phase totals from the trace recorder (zero when tracing
  // was off for the run).
  const auto phase = [](obs::TraceEventType t) {
    return [t] {
      return static_cast<double>(obs::recorder().phase_total(t).wall_ns) /
             1e6;
    };
  };
  r.gauge("phase.bootstrap_wall_ms", phase(obs::TraceEventType::kBootstrap));
  r.gauge("phase.gfib_rebuild_wall_ms",
          phase(obs::TraceEventType::kGfibRebuild));
  r.gauge("phase.replay_span_wall_ms",
          phase(obs::TraceEventType::kReplaySpan));
  r.gauge("phase.barrier_wait_wall_ms",
          phase(obs::TraceEventType::kShardBarrierWait));

  // Observability health: ring overflow in either recorder means the
  // exported trace / flight-recorder window is incomplete.
  r.gauge("obs.trace_dropped", [] {
    return static_cast<double>(obs::recorder().dropped());
  });
  r.gauge("obs.flow_records_dropped", [] {
    return static_cast<double>(obs::flow_recorder().dropped());
  });

  // Per-flow latency attribution (zero / empty when attribution was off
  // for the run). Quantiles read the whole-run stage histograms.
  r.gauge("latency.samples", [] {
    return static_cast<double>(
        obs::flow_recorder()
            .stage_histogram(obs::FlowStage::kE2e)
            .count());
  });
  for (std::size_t i = 0; i < obs::kNumFlowStages; ++i) {
    const auto stage = static_cast<obs::FlowStage>(i);
    const std::string base = obs::flow_stage_metric(stage);
    for (const auto& [suffix, p] :
         {std::pair{".p50", 0.50}, {".p90", 0.90}, {".p99", 0.99},
          {".p999", 0.999}}) {
      r.gauge(base + suffix, [stage, p = p] {
        return obs::flow_recorder().stage_histogram(stage).quantile(p);
      });
    }
  }
}

}  // namespace lazyctrl::core
