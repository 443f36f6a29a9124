#include "topo/topology.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace lazyctrl::topo {

SwitchId Topology::add_switch() {
  const auto index = static_cast<std::uint32_t>(switches_.size());
  SwitchInfo info;
  info.id = SwitchId{index};
  info.underlay_ip = IpAddress::for_switch(index);
  // Management MACs use a distinct OUI (0x06) so they never collide with
  // host MACs (0x02 OUI).
  info.management_mac =
      MacAddress{(std::uint64_t{0x06} << 40) | index};
  switches_.push_back(info);
  by_switch_.emplace_back();
  return info.id;
}

HostId Topology::add_host(TenantId tenant, SwitchId sw) {
  assert(sw.value() < switches_.size());
  const auto index = static_cast<std::uint32_t>(hosts_.size());
  HostInfo info;
  info.id = HostId{index};
  info.mac = MacAddress::for_host(index);
  info.tenant = tenant;
  info.attached_switch = sw;
  hosts_.push_back(info);
  by_switch_[sw.value()].push_back(info.id);
  return info.id;
}

SwitchId Topology::migrate_host(HostId host, SwitchId to) {
  assert(host.value() < hosts_.size() && to.value() < switches_.size());
  HostInfo& info = hosts_[host.value()];
  const SwitchId from = info.attached_switch;
  if (from == to) return from;
  auto& old_list = by_switch_[from.value()];
  old_list.erase(std::find(old_list.begin(), old_list.end(), host));
  by_switch_[to.value()].push_back(host);
  info.attached_switch = to;
  return from;
}

const HostInfo* Topology::find_host_by_mac(MacAddress mac) const {
  const std::optional<std::uint32_t> index = mac.host_index();
  if (!index || *index >= hosts_.size()) return nullptr;
  const HostInfo& host = hosts_[*index];
  return host.mac == mac ? &host : nullptr;
}

const std::vector<HostId>& Topology::hosts_on_switch(SwitchId sw) const {
  return by_switch_.at(sw.value());
}

std::vector<SwitchId> Topology::switches_of_tenant(TenantId tenant) const {
  std::set<SwitchId> result;
  for (const HostInfo& h : hosts_) {
    if (h.tenant == tenant) result.insert(h.attached_switch);
  }
  return {result.begin(), result.end()};
}

}  // namespace lazyctrl::topo
