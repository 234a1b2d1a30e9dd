// Flow-level network simulation with max-min fair sharing.
//
// Models one bottleneck link (the FL server's access link) shared by many
// client flows, each additionally capped by its own access rate — the
// classic water-filling allocation, advanced event-by-event (a flow
// arriving or completing changes the allocation; rates are constant in
// between). This is the exact fluid model of TCP-fair sharing and upgrades
// the coarse "capacity / concurrent" approximation of NetworkModel: with
// staggered arrivals, early flows get more than 1/N of the bottleneck, so
// the earliest-70% participation cut (paper §VI-A) lands differently.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace fedsu::net {

struct Flow {
  double start_time_s = 0.0;  // when the flow becomes active
  double bytes = 0.0;         // payload to move
  double rate_cap_bps = 0.0;  // client access-link rate (bits/s), > 0
};

struct FlowResult {
  double finish_time_s = 0.0;  // absolute completion time
};

// The event loop behind every flow simulation, resumable. Flows are added
// in id order; settle() advances the loop. Each event step takes the
// unfinished flows that have started (in ascending id order), gives them
// their max-min fair rates, and advances `now` to the first completion or
// arrival. A settle() with a frontier stops before the first step that a
// flow starting at or after the frontier could change: a step joins only
// if it starts strictly before the frontier and its `dt` is at most
// `frontier - now`, computed exactly as the loop computes an arrival's
// `dt`; an idle jump joins only if its target is at or before the
// frontier. Adding such flows later and settling further therefore yields
// bitwise the completion times of one pass over all flows.
class SharedLink {
 public:
  // Throws std::invalid_argument for a non-positive capacity.
  explicit SharedLink(double bottleneck_bps);

  // Registers a flow; returns its id. Zero-byte flows finish at their
  // start time. Throws std::invalid_argument for negative inputs or a
  // non-positive cap.
  std::size_t add(const Flow& flow);

  // Runs event steps until every flow has finished or the next step is not
  // settled by `frontier_s` (see above). The default runs to completion.
  void settle(double frontier_s = std::numeric_limits<double>::infinity());

  // A link holding only this link's unfinished flows (renumbered in the
  // order of unfinished_ids()) at the same `now`.
  SharedLink unfinished_copy() const;

  double bottleneck_bps() const { return bottleneck_bps_; }
  std::size_t size() const { return flows_.size(); }
  const std::vector<Flow>& flows() const { return flows_; }
  // Ascending ids of the flows that have not finished yet.
  const std::vector<std::size_t>& unfinished_ids() const { return open_; }
  // Absolute completion time; meaningful once the flow has finished.
  double finish_time_s(std::size_t flow) const { return finish_[flow]; }

 private:
  double bottleneck_bps_;
  double now_ = 0.0;
  std::vector<Flow> flows_;
  std::vector<double> bits_left_;
  std::vector<double> finish_;
  std::vector<std::size_t> open_;
};

// Simulates the given flows over a shared bottleneck of
// `bottleneck_bps` (bits/s): every flow added to one SharedLink, settled
// with no frontier. Zero-byte flows finish at their start time. Throws
// std::invalid_argument for non-positive capacities or negative inputs.
std::vector<FlowResult> simulate_shared_link(const std::vector<Flow>& flows,
                                             double bottleneck_bps);

// Max-min fair ("water-filling") instantaneous allocation: divides
// `capacity` over `caps` so no flow exceeds its cap and unused share is
// redistributed. Exposed for tests. Returns per-flow rates.
std::vector<double> max_min_fair_rates(const std::vector<double>& caps,
                                       double capacity);

}  // namespace fedsu::net
