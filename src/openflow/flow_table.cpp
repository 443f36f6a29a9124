#include "openflow/flow_table.h"

#include <algorithm>

namespace lazyctrl::openflow {

namespace {
bool same_match(const Match& a, const Match& b) noexcept {
  return a.tenant == b.tenant && a.src_mac == b.src_mac &&
         a.dst_mac == b.dst_mac;
}

/// Rules that pin (tenant, dst) live in the bucket index; the rest are
/// wildcarded.
bool pins_key(const Match& m) noexcept { return m.tenant && m.dst_mac; }
}  // namespace

bool FlowTable::install(FlowRule rule) {
  // Replace an existing rule with the identical match and priority.
  if (FlowRule* same = find_identical(rule)) {
    *same = rule;  // position and key unchanged: index stays valid
    next_expiry_ = std::min(next_expiry_, rule.expires_at);
    return false;
  }
  if (capacity_ > 0 && size() >= capacity_) {
    // Evict the oldest-installed live rule (the first one on a tie).
    std::size_t oldest = rules_.size();
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (!dead_[i] && (oldest == rules_.size() ||
                        rules_[i].installed_at < rules_[oldest].installed_at)) {
        oldest = i;
      }
    }
    bury(oldest);
    ++evictions_;
    index_dirty_ = true;
    compact();
  }
  next_expiry_ = std::min(next_expiry_, rule.expires_at);
  // Reuse the tombstones' slots rather than grow the vector, so it never
  // outgrows the live rules' high-water mark.
  if (rules_.size() == rules_.capacity() && tombstones_ > 0) compact();
  // Insert keeping descending priority order (stable within a priority).
  // Tombstones keep their priority, so the slots stay sorted.
  const auto pos = std::upper_bound(rules_.begin(), rules_.end(),
                                    rule.priority,
                                    [](int prio, const FlowRule& r) {
                                      return prio > r.priority;
                                    });
  const auto at = static_cast<std::uint32_t>(pos - rules_.begin());
  const bool at_back = pos == rules_.end();
  rules_.insert(pos, std::move(rule));
  dead_.insert(dead_.begin() + at, 0);
  if (at_back && !index_dirty_) {
    // Fast path for the reactive-install pattern (uniform priority): the
    // new rule lands at the back, positions are stable, link it in place.
    index_append(at);
  } else {
    index_dirty_ = true;  // positions shifted
  }
  return true;
}

FlowRule* FlowTable::find_identical(const FlowRule& rule) {
  const auto identical = [&](std::size_t i) {
    return rules_[i].priority == rule.priority &&
           same_match(rules_[i].match, rule.match) && !dead_[i];
  };
  if (index_dirty_) {
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (identical(i)) return &rules_[i];
    }
    return nullptr;
  }
  if (!pins_key(rule.match)) {
    for (const std::uint32_t i : wildcard_positions_) {
      if (identical(i)) return &rules_[i];
    }
    return nullptr;
  }
  if (buckets_.empty()) return nullptr;
  // The first identical rule in table order is the lowest position.
  std::uint32_t found = kNoPosition;
  for (std::uint32_t pos1 = buckets_[bucket_of(index_key(
           *rule.match.tenant, *rule.match.dst_mac))];
       pos1 != 0; pos1 = chain_[pos1 - 1]) {
    if (pos1 - 1 < found && identical(pos1 - 1)) found = pos1 - 1;
  }
  return found == kNoPosition ? nullptr : &rules_[found];
}

void FlowTable::index_append(std::uint32_t pos) {
  if (pins_key(rules_[pos].match) && size() > buckets_.size() / 2) {
    index_dirty_ = true;  // grow the bucket array at the next rebuild
    return;
  }
  chain_.resize(rules_.size(), 0);
  link(pos);
}

void FlowTable::link(std::uint32_t pos) {
  const Match& m = rules_[pos].match;
  if (!pins_key(m)) {
    wildcard_positions_.push_back(pos);
    return;
  }
  const std::size_t b = bucket_of(index_key(*m.tenant, *m.dst_mac));
  chain_[pos] = buckets_[b];
  buckets_[b] = pos + 1;
}

void FlowTable::compact() {
  if (tombstones_ > 0) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (dead_[i]) continue;
      if (kept != i) rules_[kept] = std::move(rules_[i]);
      ++kept;
    }
    rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(kept),
                 rules_.end());
    dead_.assign(kept, 0);
    tombstones_ = 0;
  }
  if (index_dirty_) return;  // the next lookup rebuilds the index
  std::fill(buckets_.begin(), buckets_.end(), 0);
  chain_.assign(rules_.size(), 0);
  wildcard_positions_.clear();
  for (std::uint32_t i = 0; i < rules_.size(); ++i) link(i);
}

void FlowTable::rebuild_index() {
  std::size_t want = 16;
  while (want < size() * 2) want <<= 1;
  if (buckets_.size() < want) buckets_.resize(want);
  index_dirty_ = false;
  compact();  // relinks, now that the index is clean
  next_expiry_ = kNoExpiry;
  for (const FlowRule& r : rules_) {
    next_expiry_ = std::min(next_expiry_, r.expires_at);
  }
}

void FlowTable::expire(SimTime now) {
  next_expiry_ = kNoExpiry;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (dead_[i]) continue;
    if (rules_[i].expires_at <= now) {
      bury(i);
    } else {
      next_expiry_ = std::min(next_expiry_, rules_[i].expires_at);
    }
  }
  if (tombstones_ * 4 > rules_.size()) index_dirty_ = true;  // compact
}

const FlowRule* FlowTable::lookup(const net::Packet& p, SimTime now) {
  if (now >= next_expiry_) expire(now);
  if (index_dirty_) rebuild_index();

  // The winner under a sequential scan is the first live match in
  // descending-priority (then insertion) order == the lowest position.
  std::uint32_t best = kNoPosition;
  if (!buckets_.empty()) {
    for (std::uint32_t pos1 = buckets_[bucket_of(index_key(p.tenant,
                                                           p.dst_mac))];
         pos1 != 0; pos1 = chain_[pos1 - 1]) {
      const std::uint32_t i = pos1 - 1;
      if (i < best && rules_[i].match.matches(p) && !dead_[i]) best = i;
    }
  }
  for (const std::uint32_t i : wildcard_positions_) {
    if (i >= best) break;  // positions ascend; can't beat the current best
    if (rules_[i].match.matches(p) && !dead_[i]) {
      best = i;
      break;
    }
  }
  if (best == kNoPosition) return nullptr;
  FlowRule& r = rules_[best];
  ++r.match_count;
  return &r;
}

std::size_t FlowTable::remove_rules_for_destination(MacAddress dst) {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FlowRule& r = rules_[i];
    if (!dead_[i] && r.match.dst_mac && *r.match.dst_mac == dst) {
      bury(i);
      ++removed;
    }
  }
  if (removed > 0) {
    index_dirty_ = true;
    compact();
  }
  return removed;
}

void FlowTable::clear() noexcept {
  rules_.clear();
  dead_.clear();
  tombstones_ = 0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
  chain_.clear();
  wildcard_positions_.clear();
  index_dirty_ = false;
  next_expiry_ = kNoExpiry;
}

std::uint64_t FlowTable::total_matches() const noexcept {
  std::uint64_t total = 0;
  for (const FlowRule& r : rules()) total += r.match_count;
  return total;
}

}  // namespace lazyctrl::openflow
