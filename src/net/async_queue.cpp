#include "net/async_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace fedsu::net {

std::uint64_t arrival_tiebreak(std::uint64_t seed, int client, int version) {
  // splitmix64-style finalizer over the three keys; any bijective mixer
  // works, it only has to be stable and seed-dependent.
  std::uint64_t x = seed ^
                    (0x9e3779b97f4a7c15ULL *
                     (static_cast<std::uint64_t>(client) + 1)) ^
                    (0xbf58476d1ce4e5b9ULL *
                     (static_cast<std::uint64_t>(version) + 1));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

AsyncUplink::AsyncUplink(double server_bps) : settled_(server_bps) {}

void AsyncUplink::advance(double frontier_s) {
  if (frontier_s < frontier_s_) {
    throw std::logic_error("AsyncUplink: frontier moved backwards");
  }
  frontier_s_ = frontier_s;
  settled_.settle(frontier_s_);
  projected_.clear();
}

std::size_t AsyncUplink::add(double start_s, double bytes,
                             double rate_cap_bps) {
  if (start_s < frontier_s_) {
    throw std::logic_error("AsyncUplink: flow starts before the frontier");
  }
  projected_.clear();
  return settled_.add(Flow{start_s, bytes, rate_cap_bps});
}

double AsyncUplink::completion_s(std::size_t flow) {
  if (flow >= settled_.size()) {
    throw std::out_of_range("AsyncUplink: bad flow id");
  }
  const std::vector<std::size_t>& open = settled_.unfinished_ids();
  const auto it = std::lower_bound(open.begin(), open.end(), flow);
  if (it == open.end() || *it != flow) return settled_.finish_time_s(flow);
  if (projected_.empty()) {
    OBS_SPAN("net.async_uplink");
    SharedLink projection = settled_.unfinished_copy();
    projection.settle();
    projected_.resize(open.size());
    for (std::size_t k = 0; k < open.size(); ++k) {
      projected_[k] = projection.finish_time_s(k);
    }
  }
  return projected_[static_cast<std::size_t>(it - open.begin())];
}

void AsyncUplink::restore_flows(const std::vector<Flow>& flows) {
  SharedLink link(settled_.bottleneck_bps());
  for (const Flow& flow : flows) link.add(flow);
  settled_ = std::move(link);
  frontier_s_ = 0.0;
  projected_.clear();
}

}  // namespace fedsu::net
