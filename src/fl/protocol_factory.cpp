#include "fl/protocol_factory.h"

#include <stdexcept>

#include "compress/apf.h"
#include "compress/cmfl.h"
#include "compress/fedavg.h"
#include "compress/qsgd.h"
#include "compress/signsgd.h"
#include "compress/topk.h"

namespace fedsu::fl {

std::unique_ptr<compress::SyncProtocol> make_protocol(
    const ProtocolConfig& config) {
  if (config.name == "fedavg") {
    return std::make_unique<compress::FedAvg>();
  }
  if (config.name == "cmfl") {
    compress::CmflOptions options;
    options.relevance_threshold = config.cmfl_relevance;
    return std::make_unique<compress::Cmfl>(options);
  }
  if (config.name == "apf") {
    compress::ApfOptions options;
    options.stability_threshold = config.apf_stability;
    return std::make_unique<compress::Apf>(options);
  }
  if (config.name == "fedsu" || config.name == "fedsu-v1" ||
      config.name == "fedsu-v2") {
    core::FedSuOptions options = config.fedsu;
    options.ablation = core::FedSuAblation::kNone;
    if (config.name == "fedsu-v1") {
      options.ablation = core::FedSuAblation::kFixedPeriod;
      options.ema_decay = 0.98;
    } else if (config.name == "fedsu-v2") {
      options.ablation = core::FedSuAblation::kRandomEntry;
    }
    return std::make_unique<core::FedSuManager>(config.num_clients, options);
  }
  if (config.name == "topk") {
    compress::TopKOptions options;
    options.fraction = config.topk_fraction;
    return std::make_unique<compress::TopK>(config.num_clients, options);
  }
  if (config.name == "qsgd") {
    compress::QsgdOptions options;
    options.bits = config.qsgd_bits;
    return std::make_unique<compress::Qsgd>(options);
  }
  if (config.name == "signsgd") {
    compress::SignSgdOptions options;
    options.step_scale = config.signsgd_step_scale;
    return std::make_unique<compress::SignSgd>(options);
  }
  throw std::invalid_argument("make_protocol: unknown protocol '" +
                              config.name + "'");
}

std::vector<std::string> known_protocols() {
  return {"fedavg", "cmfl", "apf", "fedsu", "fedsu-v1", "fedsu-v2", "topk",
          "qsgd",  "signsgd"};
}

}  // namespace fedsu::fl
