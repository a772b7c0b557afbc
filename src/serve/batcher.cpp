#include "serve/batcher.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace apim::serve {

DynamicBatcher::DynamicBatcher(util::Cycles window, std::size_t max_ops)
    : window_(window), max_ops_(max_ops == 0 ? 1 : max_ops) {}

ClosedBatch DynamicBatcher::seal(const BatchKey& key, OpenBatch&& open,
                                 util::Cycles now) {
  ClosedBatch closed;
  closed.key = key;
  closed.members = std::move(open.members);
  closed.ops = open.ops;
  closed.closed_at = now;
  closed.seq = next_seq_++;
  pending_requests_ -= closed.members.size();
  return closed;
}

std::optional<ClosedBatch> DynamicBatcher::add(std::uint64_t request_id,
                                               const BatchKey& key,
                                               std::size_t ops,
                                               util::Cycles now) {
  assert(ops > 0);
  // A request bigger than the op budget still ships as its own batch (the
  // executor round-robins its ops over the lanes); it just never coalesces.
  if (window_ == 0 || ops >= max_ops_) {
    OpenBatch singleton;
    singleton.members.push_back(request_id);
    singleton.ops = ops;
    pending_requests_ += 1;  // seal() symmetrically removes it.
    return seal(key, std::move(singleton), now);
  }

  auto it = open_.find(key);
  if (it == open_.end()) {
    it = open_.emplace(key, OpenBatch{}).first;
    it->second.close_at = now + window_;
  } else if (it->second.ops + ops > max_ops_) {
    // This request would overflow the open batch: close it now and start a
    // fresh one so the member that triggered the overflow is not delayed
    // behind a full dispatch.
    ClosedBatch full = seal(key, std::move(it->second), now);
    it->second = OpenBatch{};
    it->second.close_at = now + window_;
    it->second.members.push_back(request_id);
    it->second.ops = ops;
    pending_requests_ += 1;
    return full;
  }

  it->second.members.push_back(request_id);
  it->second.ops += ops;
  pending_requests_ += 1;
  if (it->second.ops >= max_ops_) {
    ClosedBatch closed = seal(key, std::move(it->second), now);
    open_.erase(it);
    return closed;
  }
  return std::nullopt;
}

std::vector<ClosedBatch> DynamicBatcher::close_due(util::Cycles now) {
  std::vector<ClosedBatch> closed;
  // std::map iteration is key-ordered, so equal close times seal in key
  // order — deterministic for any host configuration.
  for (auto it = open_.begin(); it != open_.end();) {
    if (it->second.close_at <= now) {
      closed.push_back(seal(it->first, std::move(it->second), now));
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(closed.begin(), closed.end(),
            [](const ClosedBatch& a, const ClosedBatch& b) {
              return a.seq < b.seq;
            });
  return closed;
}

std::optional<util::Cycles> DynamicBatcher::next_close() const {
  std::optional<util::Cycles> earliest;
  for (const auto& [key, open] : open_)
    if (!earliest || open.close_at < *earliest) earliest = open.close_at;
  return earliest;
}

}  // namespace apim::serve
