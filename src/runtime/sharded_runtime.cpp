#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "obs/trace.h"
#include "topo/topology.h"

namespace lazyctrl::runtime {

namespace {

/// Resolves the endpoints and builds the flow's packet through the ONE
/// shared assembly helper (core::Network::make_flow_packet), keeping
/// worker-built packets byte-identical to the sequential datapath's.
net::Packet make_packet(const topo::Topology& topo,
                        const workload::Flow& flow) {
  return core::Network::make_flow_packet(topo.host_info(flow.src),
                                         topo.host_info(flow.dst), flow);
}

}  // namespace

ShardedRuntime::ShardedRuntime(core::Network& net)
    : net_(net),
      plan_(net.topology().switch_count(), net.controller().grouping(),
            std::max<std::size_t>(net.config().runtime.num_shards, 1)),
      shards_(plan_.shard_count()) {
  plan_epoch_ = net_.grouping_epoch_;
}

ShardedRuntime::~ShardedRuntime() { stop_workers(); }

void ShardedRuntime::refresh_plan() {
  if (net_.grouping_epoch_ == plan_epoch_) return;
  plan_ = ShardPlan(net_.topology_.switch_count(),
                    net_.controller_.grouping(), shards_.size());
  plan_epoch_ = net_.grouping_epoch_;
  ++stats_.repartitions;
}

void ShardedRuntime::spawn_workers() {
  shutdown_ = false;
  span_seq_ = 0;
  done_count_ = 0;
  workers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { worker_main(s); });
  }
}

void ShardedRuntime::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void ShardedRuntime::worker_main(std::size_t shard_idx) {
  Shard& shard = shards_[shard_idx];
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this, seen] { return shutdown_ || span_seq_ > seen; });
      if (shutdown_) return;
      seen = span_seq_;
    }
    run_shard(shard);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++done_count_ == workers_.size()) done_cv_.notify_one();
    }
  }
}

void ShardedRuntime::replay(const workload::Trace& trace) {
  assert(!replayed_ && "a ShardedRuntime drives one replay");
  replayed_ = true;

  const core::Network::ReplayTimers timers = net_.begin_replay(trace);
  refresh_plan();
  spawn_workers();

  // Cursor-driven span injection (sim::schedule_cursor_chain), mirroring
  // the sequential batched injector: the event for flow i has fired, so i
  // is safe; later flows join the span only while they start strictly
  // before the next pending control-plane event (at a timestamp tie the
  // sequential datapath would run that event first) and within one rule
  // TTL of the span's first flow, up to kMaxSpanFlows.
  if (!trace.flows.empty()) {
    sim::schedule_cursor_chain(net_.simulator_, trace.flows.front().start,
                               span_cursor_step(&trace.flows),
                               &net_.cursor_);
  }

  run_to_horizon(trace, timers);
}

void ShardedRuntime::resume(const workload::Trace& trace,
                            const core::Network::ResumeCursor& rc) {
  assert(!replayed_ && "a ShardedRuntime drives one replay");
  replayed_ = true;

  // No begin_replay(): the restorer already rebuilt the metrics storage
  // and re-attached every periodic timer and migration one-shot under
  // its exact snapshot tuple. Only the span chain is ours to re-create.
  refresh_plan();
  spawn_workers();
  if (rc.active) {
    sim::resume_cursor_chain(net_.simulator_, rc.at, rc.seq, rc.id,
                             rc.index, span_cursor_step(&trace.flows),
                             &net_.cursor_);
  }
  run_to_horizon(trace, net_.replay_timers_);
}

sim::CursorStep ShardedRuntime::span_cursor_step(
    const std::vector<workload::Flow>* flows) {
  return [this, flows](std::size_t i)
      -> std::optional<std::pair<std::size_t, SimTime>> {
    // A worker's lookup sweeps every rule expired by its flow's start,
    // before the merge re-decides the span's earlier flows. Every rule an
    // earlier flow hit or the merge installed expires at least one rule
    // TTL after the span's first flow, so ending the span there keeps the
    // sweeps from reaching them.
    const SimTime fence =
        std::min(net_.simulator_.next_event_time(),
                 (*flows)[i].start + net_.config_.rules.rule_ttl);
    std::size_t end = i + 1;
    while (end < flows->size() && end - i < kMaxSpanFlows &&
           (*flows)[end].start < fence) {
      ++end;
    }
    process_span(*flows, i, end);
    if (end >= flows->size()) return std::nullopt;
    return {{end, (*flows)[end].start}};
  };
}

void ShardedRuntime::run_to_horizon(
    const workload::Trace& trace,
    const core::Network::ReplayTimers& timers) {
  net_.simulator_.run_until(trace.horizon);
  net_.end_replay(timers);
  stop_workers();

  // Copy stats into the Network before this (ephemeral) runtime dies, so
  // obs::Registry gauges registered on the network keep reading them.
  net_.runtime_obs_ = core::Network::RuntimeObsStats{
      true, stats_.spans, stats_.flows, stats_.redecided_flows,
      stats_.repartitions};
}

void ShardedRuntime::process_span(const std::vector<workload::Flow>& flows,
                                  std::size_t begin, std::size_t end) {
  refresh_plan();
  const std::size_t n = end - begin;
  obs::ScopedTimer span_timer(obs::TraceEventType::kReplaySpan,
                              flows[begin].start, n, begin);
  ++stats_.spans;
  stats_.flows += n;

  src_sw_.resize(n);
  dst_sw_.resize(n);
  shard_of_flow_.resize(n);
  pos_.resize(n);
  for (Shard& shard : shards_) shard.offsets.clear();

  const bool lazy = net_.config_.mode == core::ControlMode::kLazyCtrl;

  // Meta pass (coordinator): per-flow ingress bookkeeping in global flow
  // order — exactly the head of the sequential Network::on_flow — plus
  // the shard assignment of every decidable flow. Transition-window flows
  // are handled without a decide() in sequential mode, so they stay with
  // the coordinator (kUnassigned).
  for (std::size_t k = 0; k < n; ++k) {
    const workload::Flow& flow = flows[begin + k];
    ++net_.metrics_->flows_seen;
    net_.metrics_->flow_arrivals.add_event(flow.start);
    const topo::HostInfo& src = net_.topology_.host_info(flow.src);
    const topo::HostInfo& dst = net_.topology_.host_info(flow.dst);
    src_sw_[k] = src.attached_switch;
    dst_sw_[k] = dst.attached_switch;
    if (src_sw_[k] != dst_sw_[k]) {
      net_.switches_[src_sw_[k].value()]->record_new_flow_to(dst_sw_[k]);
    }
    shard_of_flow_[k] = plan_.shard_of(src_sw_[k]);

    const bool transition_special =
        lazy && !net_.host_pair_excluded(flow) &&
        net_.switches_[src_sw_[k].value()]->in_transition(flow.start);
    if (transition_special) {
      pos_[k] = kUnassigned;
      continue;
    }
    Shard& shard = shards_[shard_of_flow_[k]];
    pos_[k] = static_cast<std::uint32_t>(shard.offsets.size());
    shard.offsets.push_back(static_cast<std::uint32_t>(k));
  }

  // Parallel phase: publish the span and run the barrier.
  span_flows_ = &flows;
  span_begin_ = begin;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_count_ = 0;
    ++span_seq_;
  }
  work_cv_.notify_all();
  {
    obs::ScopedTimer wait_timer(obs::TraceEventType::kShardBarrierWait,
                                flows[begin].start, shards_.size(),
                                span_seq_);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return done_count_ == workers_.size(); });
  }

  merge(flows, begin, end);
}

void ShardedRuntime::run_shard(Shard& shard) {
  shard.packets.clear();
  shard.decisions.clear();
  shard.candidates.clear();
  const std::vector<workload::Flow>& flows = *span_flows_;
  const core::ControlMode mode = net_.config_.mode;

  // Owned flows are decided in span order, so every switch sees its flows
  // in the sequential order (TTL refreshes and lazy expiry included); the
  // one thing a pre-decision cannot see is an install made while merging
  // an earlier flow of this span, which the merge repairs. decide()'s
  // candidate view is overwritten by the next call, so candidates are
  // copied into the shard's pool.
  for (const std::uint32_t k : shard.offsets) {
    const workload::Flow& flow = flows[span_begin_ + k];
    const net::Packet& pkt =
        shard.packets.emplace_back(make_packet(net_.topology_, flow));
    core::EdgeSwitch& sw = *net_.switches_[src_sw_[k].value()];
    if (sw.flow_table().capacity() != 0) {
      // Not pre-decided: a bounded table evicts by its exact size at each
      // install, and a lookup here would already sweep rules that expire
      // later in the span, before the merge installs at earlier times.
      // The merge decides these flows itself.
      shard.decisions.push_back(
          {core::EdgeSwitch::DecisionKind::kToController, 0, 0});
      continue;
    }
    const core::EdgeSwitch::Decision d = sw.decide(pkt, flow.start, mode);
    const auto cand_begin =
        static_cast<std::uint32_t>(shard.candidates.size());
    shard.candidates.insert(shard.candidates.end(), d.candidates.begin(),
                            d.candidates.end());
    shard.decisions.push_back(
        {d.kind, cand_begin,
         static_cast<std::uint32_t>(shard.candidates.size())});
  }
}

void ShardedRuntime::merge(const std::vector<workload::Flow>& flows,
                           std::size_t begin, std::size_t end) {
  const std::size_t n = end - begin;
  const bool openflow = net_.config_.mode == core::ControlMode::kOpenFlow;
  if (install_log_.size() < net_.switches_.size()) {
    install_log_.resize(net_.switches_.size());
  }
  net_.span_install_log_ = &install_log_;

  for (std::size_t k = 0; k < n; ++k) {
    const workload::Flow& flow = flows[begin + k];
    if (pos_[k] == kUnassigned) {
      const net::Packet pkt = make_packet(net_.topology_, flow);
      const bool handled =
          net_.handle_transition_flow(flow, src_sw_[k], dst_sw_[k], pkt);
      (void)handled;
      assert(handled && "transition window cannot close mid-span");
      continue;
    }

    const Shard& shard = shards_[shard_of_flow_[k]];
    const net::Packet& pkt = shard.packets[pos_[k]];
    core::EdgeSwitch& sw = *net_.switches_[src_sw_[k].value()];

    // Staleness: a rule installed while finishing an EARLIER flow of this
    // span at the same ingress switch invalidates the pre-decide (the
    // sequential interleaving would have decided after the install).
    // Re-decide those sequentially, as well as every flow at a bounded
    // table (never pre-decided, see run_shard). The scan is capped: once a
    // switch has accumulated many span installs, every later packet there
    // is treated as stale outright (the re-decide fallback is always
    // exact), which bounds the check at O(span x kMaxInstallScan) instead
    // of going quadratic on controller-heavy single-switch bursts.
    constexpr std::size_t kMaxInstallScan = 64;
    bool stale = sw.flow_table().capacity() != 0;
    const std::vector<openflow::Match>& installs =
        install_log_[src_sw_[k].value()];
    if (!stale && !installs.empty()) {
      if (installs.size() > kMaxInstallScan) {
        stale = true;
      } else {
        for (const openflow::Match& match : installs) {
          if (match.matches(pkt)) {
            stale = true;
            break;
          }
        }
      }
    }

    core::Network::DecisionView view;
    if (stale) {
      ++stats_.redecided_flows;
      const core::EdgeSwitch::Decision fresh =
          sw.decide(pkt, flow.start, net_.config_.mode);
      view = core::Network::DecisionView{fresh.kind, fresh.candidates};
    } else {
      const PreDecision& d = shard.decisions[pos_[k]];
      view = core::Network::DecisionView{
          d.kind, std::span<const SwitchId>(shard.candidates)
                      .subspan(d.cand_begin, d.cand_end - d.cand_begin)};
    }
    if (openflow) {
      net_.process_openflow_decision(flow, src_sw_[k], dst_sw_[k], pkt, view);
    } else {
      net_.process_lazyctrl_decision(flow, src_sw_[k], dst_sw_[k], pkt, view);
    }
  }

  // Installs only ever land at span ingress switches; clearing by offset
  // is O(span) and leaves the log empty for the next span.
  for (std::size_t k = 0; k < n; ++k) {
    install_log_[src_sw_[k].value()].clear();
  }
  net_.span_install_log_ = nullptr;
}

}  // namespace lazyctrl::runtime
