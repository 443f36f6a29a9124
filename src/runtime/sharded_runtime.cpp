#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <span>

#include "obs/trace.h"
#include "topo/topology.h"

namespace lazyctrl::runtime {

ShardedRuntime::ShardedRuntime(core::Network& net)
    : net_(net),
      plan_(net.topology().switch_count(), net.controller().grouping(),
            std::max<std::size_t>(net.config().runtime.num_shards, 1)),
      plan_epoch_(net.grouping_epoch_),
      shards_(plan_.shard_count()) {
  workers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { worker_main(s); });
  }
}

ShardedRuntime::~ShardedRuntime() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardedRuntime::refresh_plan() {
  if (net_.grouping_epoch_ == plan_epoch_) return;
  plan_ = ShardPlan(net_.topology_.switch_count(),
                    net_.controller_.grouping(), shards_.size());
  plan_epoch_ = net_.grouping_epoch_;
  ++net_.runtime_obs_.repartitions;
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

void ShardedRuntime::process_span(const std::vector<workload::Flow>& flows,
                                  std::size_t begin, std::size_t end) {
  refresh_plan();
  const std::size_t n = end - begin;
  ++net_.runtime_obs_.spans;
  net_.runtime_obs_.flows += n;

  src_sw_.resize(n);
  shard_of_flow_.resize(n);
  pos_.resize(n);
  for (Shard& shard : shards_) shard.offsets.clear();

  const bool lazy = net_.config_.mode == core::ControlMode::kLazyCtrl;

  // Shard assignment of every decidable flow. Network::on_flow handles
  // transition-window flows without a decide(), so no worker may decide
  // them either: they stay with the coordinator (kUnassigned).
  for (std::size_t k = 0; k < n; ++k) {
    const workload::Flow& flow = flows[begin + k];
    src_sw_[k] = net_.topology_.host_info(flow.src).attached_switch;
    shard_of_flow_[k] = plan_.shard_of(src_sw_[k]);
    if (lazy && !net_.host_pair_excluded(flow) &&
        net_.switches_[src_sw_[k].value()]->in_transition(flow.start)) {
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
        shard.packets.emplace_back(core::Network::make_flow_packet(
            net_.topology_.host_info(flow.src),
            net_.topology_.host_info(flow.dst), flow));
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
  if (install_log_.size() < net_.switches_.size()) {
    install_log_.resize(net_.switches_.size());
  }
  net_.span_install_log_ = &install_log_;

  for (std::size_t k = 0; k < n; ++k) {
    const workload::Flow& flow = flows[begin + k];
    if (pos_[k] == kUnassigned) {
      net_.on_flow(flow, begin + k);  // transition window: no decision
      continue;
    }

    const Shard& shard = shards_[shard_of_flow_[k]];
    const net::Packet& pkt = shard.packets[pos_[k]];

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
    bool stale =
        net_.switches_[src_sw_[k].value()]->flow_table().capacity() != 0;
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

    if (stale) {
      ++net_.runtime_obs_.redecided_flows;
      net_.on_flow(flow, begin + k);
      continue;
    }
    const PreDecision& d = shard.decisions[pos_[k]];
    const core::EdgeSwitch::Decision pre{
        d.kind, nullptr,
        std::span<const SwitchId>(shard.candidates)
            .subspan(d.cand_begin, d.cand_end - d.cand_begin)};
    net_.on_flow(flow, begin + k, &pre);
  }

  // Installs only ever land at span ingress switches; clearing by offset
  // is O(span) and leaves the log empty for the next span.
  for (std::size_t k = 0; k < n; ++k) {
    install_log_[src_sw_[k].value()].clear();
  }
  net_.span_install_log_ = nullptr;
}

}  // namespace lazyctrl::runtime
