#include "core/controller.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace lazyctrl::core {

CentralController::CentralController(const Config& config, std::size_t hosts)
    : config_(config),
      clib_(hosts),
      servers_free_at_(std::max<std::size_t>(config.controller.servers, 1),
                       0) {}

void CentralController::clib_learn([[maybe_unused]] MacAddress mac,
                                   HostId host, TenantId tenant, SwitchId sw) {
  assert(host.valid() && mac == MacAddress::for_host(host.value()));
  const std::size_t i = host.value();
  if (i >= clib_.size()) clib_.resize(i + 1);
  ClibEntry& slot = clib_[i];
  if (!slot.host.valid()) ++clib_live_;
  slot = ClibEntry{host, tenant, sw};
}

void CentralController::clib_forget(MacAddress mac) {
  if (const ClibEntry* slot = clib_slot(mac)) {
    clib_[slot->host.value()] = ClibEntry{};
    --clib_live_;
  }
}

std::optional<ClibEntry> CentralController::clib_lookup(MacAddress mac) const {
  if (const ClibEntry* slot = clib_slot(mac)) return *slot;
  return std::nullopt;
}

const ClibEntry* CentralController::clib_slot(MacAddress mac) const noexcept {
  const std::optional<std::uint32_t> i = mac.host_index();
  if (!i || *i >= clib_.size() || !clib_[*i].host.valid()) return nullptr;
  return &clib_[*i];
}

SimTime CentralController::admit_request(SimTime arrival) {
  return admit_request_bounded(arrival, 0).done;
}

CentralController::AdmitResult CentralController::admit_request_bounded(
    SimTime arrival, std::size_t queue_cap) {
  ++total_requests_;
  ++window_requests_;
  if (queue_cap > 0 && arrival < outage_until_ &&
      outage_queue_depth_ >= queue_cap) {
    // Drop-tail: the outage backlog is full; shed the request without
    // touching queue or server state.
    ++admission_drops_;
    return {.done = 0, .rejected = true};
  }
  if (arrival < outage_until_) {
    // Arrived into an ongoing outage: it queues until the outage lifts.
    ++outage_queue_depth_;
    ++outage_queued_total_;
    outage_queue_peak_ = std::max(outage_queue_peak_, outage_queue_depth_);
  } else if (outage_queue_depth_ > 0) {
    // First post-outage admission — the FIFO backlog drains ahead of it.
    obs::trace_instant(obs::TraceEventType::kControllerOutageDrain, arrival,
                       outage_queue_depth_);
    outage_queue_depth_ = 0;
  }
  // Earliest-free server of the cluster takes the request.
  auto it = std::min_element(servers_free_at_.begin(), servers_free_at_.end());
  const SimTime start = std::max({arrival, *it, outage_until_});
  const SimTime done = start + config_.latency.controller_service;
  *it = done;
  return {.done = done, .rejected = false};
}

std::uint64_t CentralController::roll_window(SimTime /*now*/) {
  const std::uint64_t n = window_requests_;
  last_window_requests_ = static_cast<double>(n);
  if (baseline_window_requests_ < 0) {
    baseline_window_requests_ = last_window_requests_;
  }
  window_requests_ = 0;
  return n;
}

bool CentralController::should_regroup(SimTime now) const {
  if (now - last_update_at_ < config_.dgm.cooldown) return false;
  if (baseline_window_requests_ < 0) return false;
  // Accumulated growth of >= trigger (default 30%) since the last update.
  const double floor = std::max(baseline_window_requests_, 1.0);
  return last_window_requests_ >=
         floor * (1.0 + config_.grouping.workload_growth_trigger);
}

void CentralController::note_regrouped(SimTime now) {
  last_update_at_ = now;
  baseline_window_requests_ = std::max(last_window_requests_, 1.0);
}

}  // namespace lazyctrl::core
