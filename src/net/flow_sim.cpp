#include "net/flow_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fedsu::net {

std::vector<double> max_min_fair_rates(const std::vector<double>& caps,
                                       double capacity) {
  if (capacity <= 0.0) {
    throw std::invalid_argument("max_min_fair_rates: capacity <= 0");
  }
  const std::size_t n = caps.size();
  std::vector<double> rates(n, 0.0);
  if (n == 0) return rates;
  for (double c : caps) {
    if (c <= 0.0) throw std::invalid_argument("max_min_fair_rates: cap <= 0");
  }
  // Water-filling: repeatedly grant the fair share; flows whose cap is
  // below it are frozen at their cap and their leftover redistributes.
  std::vector<std::size_t> active(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = i;
  double remaining = capacity;
  while (!active.empty()) {
    const double fair = remaining / static_cast<double>(active.size());
    // Freeze all capped flows this pass.
    std::vector<std::size_t> still_active;
    bool froze_any = false;
    for (std::size_t i : active) {
      if (caps[i] <= fair) {
        rates[i] = caps[i];
        remaining -= caps[i];
        froze_any = true;
      } else {
        still_active.push_back(i);
      }
    }
    if (!froze_any) {
      for (std::size_t i : still_active) rates[i] = fair;
      break;
    }
    active = std::move(still_active);
  }
  return rates;
}

SharedLink::SharedLink(double bottleneck_bps)
    : bottleneck_bps_(bottleneck_bps) {
  if (bottleneck_bps <= 0.0) {
    throw std::invalid_argument("SharedLink: bottleneck <= 0");
  }
}

std::size_t SharedLink::add(const Flow& flow) {
  if (flow.bytes < 0.0 || flow.rate_cap_bps <= 0.0 ||
      flow.start_time_s < 0.0) {
    throw std::invalid_argument("SharedLink: bad flow");
  }
  const std::size_t id = flows_.size();
  flows_.push_back(flow);
  bits_left_.push_back(flow.bytes * 8.0);
  finish_.push_back(flow.start_time_s);  // zero-byte default
  if (bits_left_.back() != 0.0) open_.push_back(id);
  return id;
}

void SharedLink::settle(double frontier_s) {
  // Event loop: between events the active set and its rates are constant.
  std::vector<std::size_t> active;
  std::vector<double> caps;
  while (!open_.empty()) {
    // Active flows: started and unfinished.
    active.clear();
    caps.clear();
    double next_arrival = std::numeric_limits<double>::infinity();
    for (std::size_t i : open_) {
      if (flows_[i].start_time_s <= now_) {
        active.push_back(i);
        caps.push_back(flows_[i].rate_cap_bps);
      } else {
        next_arrival = std::min(next_arrival, flows_[i].start_time_s);
      }
    }
    if (active.empty()) {
      // Idle until the next arrival.
      if (next_arrival > frontier_s) return;
      now_ = next_arrival;
      continue;
    }
    const std::vector<double> rates = max_min_fair_rates(caps, bottleneck_bps_);

    // Time until the first active flow completes at current rates.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < active.size(); ++k) {
      if (rates[k] > 0.0) {
        dt = std::min(dt, bits_left_[active[k]] / rates[k]);
      }
    }
    // ... or until a new flow arrives and reshapes the allocation.
    if (next_arrival - now_ < dt) dt = next_arrival - now_;
    if (!(dt > 0.0) || !std::isfinite(dt)) {
      throw std::logic_error("SharedLink: stalled simulation");
    }
    // A flow arriving at the frontier would cut this step short (as dt > 0,
    // this also stops every step that starts at or past the frontier).
    if (dt > frontier_s - now_) return;

    bool any_finished = false;
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::size_t i = active[k];
      bits_left_[i] -= rates[k] * dt;
      if (bits_left_[i] <= 1e-9) {
        bits_left_[i] = 0.0;
        finish_[i] = now_ + dt;
        any_finished = true;
      }
    }
    now_ += dt;
    if (any_finished) {
      std::erase_if(open_, [&](std::size_t i) { return bits_left_[i] == 0.0; });
    }
  }
}

SharedLink SharedLink::unfinished_copy() const {
  SharedLink copy(bottleneck_bps_);
  copy.now_ = now_;
  for (std::size_t i : open_) {
    copy.open_.push_back(copy.flows_.size());
    copy.flows_.push_back(flows_[i]);
    copy.bits_left_.push_back(bits_left_[i]);
    copy.finish_.push_back(finish_[i]);
  }
  return copy;
}

std::vector<FlowResult> simulate_shared_link(const std::vector<Flow>& flows,
                                             double bottleneck_bps) {
  SharedLink link(bottleneck_bps);
  for (const Flow& flow : flows) link.add(flow);
  link.settle();
  std::vector<FlowResult> results(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    results[i].finish_time_s = link.finish_time_s(i);
  }
  return results;
}

}  // namespace fedsu::net
