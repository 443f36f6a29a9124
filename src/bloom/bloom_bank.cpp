#include "bloom/bloom_bank.h"

#include <algorithm>

namespace lazyctrl {

void BloomBank::set_filter(SwitchId peer, BloomFilter filter) {
  const auto it = std::lower_bound(
      filters_.begin(), filters_.end(), peer,
      [](const Entry& e, SwitchId p) { return e.peer < p; });
  if (it != filters_.end() && it->peer == peer) {
    it->filter = std::move(filter);
  } else {
    filters_.insert(it, Entry{peer, std::move(filter)});
  }
}

void BloomBank::build_filter(SwitchId peer,
                             const std::vector<MacAddress>& hosts) {
  BloomFilter f(params_);
  for (MacAddress mac : hosts) f.insert(mac);
  set_filter(peer, std::move(f));
}

void BloomBank::clear() { filters_.clear(); }

const BloomBank::Entry* BloomBank::find(SwitchId peer) const {
  const auto it = std::lower_bound(
      filters_.begin(), filters_.end(), peer,
      [](const Entry& e, SwitchId p) { return e.peer < p; });
  return it != filters_.end() && it->peer == peer ? &*it : nullptr;
}

std::size_t BloomBank::slot_of(SwitchId peer) const {
  const Entry* e = find(peer);
  return e != nullptr ? static_cast<std::size_t>(e - filters_.data())
                      : kNoSlot;
}

const BloomFilter* BloomBank::filter(SwitchId peer) const {
  const Entry* e = find(peer);
  return e ? &e->filter : nullptr;
}

std::size_t BloomBank::storage_bytes() const noexcept {
  std::size_t total = 0;
  for (const Entry& e : filters_) total += e.filter.storage_bytes();
  return total;
}

}  // namespace lazyctrl
