// Sweep the Dirichlet concentration alpha to see how FedSU behaves as the
// clients' data distributions go from near-IID (alpha large) to heavily
// skewed (alpha small). The paper runs at alpha = 1 (§VI-A) and notes FL
// accuracy degrades at higher skew; FedSU aims to preserve — not improve —
// whatever accuracy the non-IID level allows, while still sparsifying.
#include <cstdio>

#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "metrics/convergence.h"
#include "util/flags.h"

using namespace fedsu;

int main(int argc, char** argv) try {
  util::Flags flags;
  flags.add_int("rounds", 30, "FL rounds per alpha")
      .add_int("clients", 8, "number of clients");
  if (!fedsu::util::parse_flags(flags, argc, argv)) return 0;

  std::printf("%-8s | %-22s | %-22s\n", "alpha", "FedAvg best acc",
              "FedSU best acc / ratio");
  for (double alpha : {0.1, 0.5, 1.0, 10.0, 100.0}) {
    float accs[2] = {0.0f, 0.0f};
    double ratio = 0.0;
    int which = 0;
    for (const char* scheme : {"fedavg", "fedsu"}) {
      fl::SimulationOptions options;
      options.model = nn::paper_spec("emnist");
      options.dataset = data::synthetic_preset("emnist");
      options.dataset.train_count = 1200;
      options.dataset.noise = 1.0f;
      options.num_clients = static_cast<int>(flags.get_int("clients"));
      options.dirichlet_alpha = alpha;
      options.local.iterations = 10;
      options.local.learning_rate = 0.03f;
      options.eval_every = 2;

      fl::ProtocolConfig protocol;
      protocol.name = scheme;
      protocol.num_clients = options.num_clients;
      fl::Simulation sim(options, fl::make_protocol(protocol));
      const auto records = sim.run(static_cast<int>(flags.get_int("rounds")));
      const metrics::RunSummary summary = metrics::summarize(records);
      accs[which++] = summary.best_accuracy;
      if (std::string(scheme) == "fedsu") {
        ratio = summary.mean_sparsification_ratio;
      }
    }
    std::printf("%-8.1f | %-22.3f | %.3f / %4.1f%%\n", alpha, accs[0], accs[1],
                100.0 * ratio);
  }
  return 0;
} catch (const fedsu::util::UsageError& e) {
  return fedsu::util::usage_exit(argv[0], e);
}
