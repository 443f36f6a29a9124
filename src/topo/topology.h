// Data-center topology model.
//
// Mirrors the paper's core-edge separation (§III-B1): the core is an IP
// underlay abstracted as one-hop any-to-any connectivity between edge
// switches; what the topology tracks is the *edge* — which host (VM) is
// attached to which edge switch, and which tenant owns it. VM migration
// re-attaches a host to a different switch. Hosts and switches are dense
// arrays indexed by id; a host's MAC encodes its id (MacAddress::for_host),
// so no table maps MACs back to hosts.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/mac.h"

namespace lazyctrl::topo {

struct HostInfo {
  HostId id;
  MacAddress mac;
  TenantId tenant;
  SwitchId attached_switch;
};

struct SwitchInfo {
  SwitchId id;
  IpAddress underlay_ip;
  /// Management-interface MAC; the controller orders switches by this
  /// address when building the failure-detection wheel (§III-D1).
  MacAddress management_mac;
};

class Topology {
 public:
  /// Adds an edge switch; ids are dense starting from 0.
  SwitchId add_switch();

  /// Adds a host owned by `tenant`, attached to `sw`.
  HostId add_host(TenantId tenant, SwitchId sw);

  /// Re-attaches `host` to `to` (VM migration). Returns the old switch.
  SwitchId migrate_host(HostId host, SwitchId to);

  [[nodiscard]] std::size_t switch_count() const noexcept {
    return switches_.size();
  }
  [[nodiscard]] std::size_t host_count() const noexcept {
    return hosts_.size();
  }

  [[nodiscard]] const SwitchInfo& switch_info(SwitchId id) const {
    return switches_.at(id.value());
  }
  [[nodiscard]] const HostInfo& host_info(HostId id) const {
    return hosts_.at(id.value());
  }
  [[nodiscard]] const std::vector<SwitchInfo>& switches() const noexcept {
    return switches_;
  }
  [[nodiscard]] const std::vector<HostInfo>& hosts() const noexcept {
    return hosts_;
  }

  /// Host owning `mac`, or nullptr if unknown: the MAC decodes to a host
  /// index (MacAddress::host_index) below host_count() whose host has
  /// exactly that MAC. Management MACs and the broadcast MAC are never
  /// found.
  [[nodiscard]] const HostInfo* find_host_by_mac(MacAddress mac) const;

  /// Hosts currently attached to `sw` (ids, unsorted but deterministic).
  [[nodiscard]] const std::vector<HostId>& hosts_on_switch(SwitchId sw) const;

  /// All switches hosting at least one VM of `tenant`.
  [[nodiscard]] std::vector<SwitchId> switches_of_tenant(
      TenantId tenant) const;

 private:
  std::vector<SwitchInfo> switches_;
  std::vector<HostInfo> hosts_;
  std::vector<std::vector<HostId>> by_switch_;
};

}  // namespace lazyctrl::topo
