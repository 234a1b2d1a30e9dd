// Builds a synchronization protocol by name — the registry bench binaries
// and examples share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compress/protocol.h"
#include "core/fedsu_manager.h"

namespace fedsu::fl {

struct ProtocolConfig {
  // fedavg | cmfl | apf | fedsu | fedsu-v1 | fedsu-v2 | topk | qsgd | signsgd
  std::string name = "fedsu";
  int num_clients = 8;

  // fedsu, fedsu-v1, fedsu-v2. The name sets `ablation`; fedsu-v1 also
  // runs with EMA theta 0.98. The ablations' fixed period is
  // initial_no_check.
  core::FedSuOptions fedsu;
  double cmfl_relevance = 0.8;      // cmfl
  double apf_stability = 0.05;      // apf
  double topk_fraction = 0.1;       // topk
  int qsgd_bits = 8;                // qsgd
  double signsgd_step_scale = 1.0;  // signsgd
};

std::unique_ptr<compress::SyncProtocol> make_protocol(
    const ProtocolConfig& config);

std::vector<std::string> known_protocols();

}  // namespace fedsu::fl
