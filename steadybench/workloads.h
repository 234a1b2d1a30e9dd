// The benchmark's named workloads: each loads a different layer of the
// fedsu stack (see README.md for the reasoning and the measured shares).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fl/protocol_factory.h"
#include "fl/simulation.h"

namespace steadybench {

struct Workload {
  std::string name;
  fedsu::fl::SimulationOptions options;
  fedsu::fl::ProtocolConfig protocol;
  float target = 0.0f;    // test accuracy the run must reach
  int warmup_rounds = 2;  // rounds run inside set-up (replicas, arenas)
  int rounds = 0;         // the workload's last round
  int window_start = 0;   // first round of the round_wall_ms window
};

const std::vector<std::string>& workload_names();

// Builds the named workload for `seed`. `protocol` is "fedsu" (the measured
// configuration) or "fedavg" (the reference figures in README.md). `quick`
// shrinks the run to a handful of rounds for the harness's self-test.
// Throws std::invalid_argument on an unknown workload or protocol.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       int threads, const std::string& protocol, bool quick);

}  // namespace steadybench
