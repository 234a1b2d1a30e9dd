// Per-upload completion ordering for the buffered-async round engine
// (DESIGN.md §11).
//
// The synchronous path simulates one round's uploads in isolation
// (net/round_timeline); under buffered-async execution uploads from many
// dispatch cycles overlap on the server's ingress link, so completion times
// depend on the whole contention history. AsyncUplink keeps every upload
// flow ever dispatched (absolute start times; the checkpoint stores this
// history) in one SharedLink whose event loop it settles incrementally.
//
// Frontier contract: advance(frontier) declares that every flow added from
// then on starts at or after `frontier` (the engine passes each cycle's
// start time, which never decreases); add() throws std::logic_error for a
// start before it. Settling rule (net/flow_sim.h): advance() runs the
// event steps that no such flow could change — a step that starts strictly
// before the frontier and whose dt is at most `frontier - now`, or an idle
// jump to an arrival at or before the frontier — and keeps the result as
// settled state. Completion times of the flows still unfinished come from a
// projection: a copy of just those flows, run to completion. Every event
// step runs the same loop body in the same order as one pass over the whole
// history, so completion times are bitwise those of that pass (§5b): a
// flow that finished before a new flow's start never moves, while flows
// still in progress pick up the new contention. Per cycle the cost is the
// cycle's own events times the unfinished flows, not the run's history.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/flow_sim.h"

namespace fedsu::net {

// Seed-keyed tiebreak for simultaneous arrivals: hashes (client, version)
// through the run seed so equal-time arrivals are consumed in an order that
// is reproducible for any thread count yet not systematically biased toward
// low client ids (the id itself is only the final tiebreak; §5b).
std::uint64_t arrival_tiebreak(std::uint64_t seed, int client, int version);

class AsyncUplink {
 public:
  // `server_bps` is the shared ingress capacity every upload contends for.
  explicit AsyncUplink(double server_bps);

  // Moves the frontier to `frontier_s` and settles the event loop up to
  // it. Throws std::logic_error if the frontier would move backwards.
  void advance(double frontier_s);

  // Registers an upload flow; returns its stable id. `start_s` is absolute
  // simulated time (compute finish + any retry backoff), at or after the
  // frontier.
  std::size_t add(double start_s, double bytes, double rate_cap_bps);

  // Completion time of `flow` under the full contention history so far.
  double completion_s(std::size_t flow);

  std::size_t size() const { return settled_.size(); }

  // Checkpoint support: the flow history is the uplink's state. Restoring
  // it resets the frontier to 0, so the next advance() settles the whole
  // history in one pass and completion times come out bitwise as before.
  // A malformed flow throws std::invalid_argument and changes nothing.
  const std::vector<Flow>& flows() const { return settled_.flows(); }
  void restore_flows(const std::vector<Flow>& flows);

 private:
  double frontier_s_ = 0.0;
  SharedLink settled_;
  // Projected completion times of settled_.unfinished_ids(), in that
  // order; empty until needed after an add() or advance().
  std::vector<double> projected_;
};

}  // namespace fedsu::net
