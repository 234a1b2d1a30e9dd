// Stop-and-resume: checkpoint an FL run (model + FedSU manager state) to a
// file, then restore it into a fresh process-equivalent simulation and keep
// training. FedSU's masks, no-checking periods, slopes and EMA statistics
// all survive the restart — without them a restarted run would have to
// re-learn every speculation decision from scratch.
#include <cstdio>

#include "core/fedsu_manager.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "io/checkpoint.h"
#include "util/flags.h"

using namespace fedsu;

namespace {

fl::SimulationOptions workload() {
  fl::SimulationOptions options;
  options.model = nn::paper_spec("emnist");
  options.dataset = data::synthetic_preset("emnist");
  options.dataset.train_count = 1200;
  options.dataset.noise = 1.0f;
  options.num_clients = 8;
  options.local.iterations = 10;
  options.local.learning_rate = 0.03f;
  options.eval_every = 4;
  return options;
}

fl::ProtocolConfig fedsu_config() {
  fl::ProtocolConfig config;
  config.name = "fedsu";
  config.num_clients = 8;
  return config;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Flags flags;
  flags.add_int("rounds", 12, "rounds before AND after the restart")
      .add_string("path", "/tmp/fedsu_example_checkpoint.bin",
                  "checkpoint file path");
  if (!fedsu::util::parse_flags(flags, argc, argv)) return 0;
  const int rounds = static_cast<int>(flags.get_int("rounds"));
  const std::string path = flags.get_string("path");

  // Phase 1: train, then checkpoint.
  double mask_fraction = 0.0;
  {
    auto proto = fl::make_protocol(fedsu_config());
    auto* manager = dynamic_cast<core::FedSuManager*>(proto.get());
    fl::Simulation sim(workload(), std::move(proto));
    sim.run(rounds);
    mask_fraction = manager->predictable_fraction();
    const io::Checkpoint checkpoint = io::make_checkpoint(
        *manager, sim.global_state(), sim.rounds_completed(),
        sim.elapsed_time_s());
    io::save_checkpoint(checkpoint, path);
    std::printf("phase 1: %d rounds trained, accuracy %.3f, "
                "%.1f%% of parameters speculative\n",
                sim.rounds_completed(), sim.evaluate(),
                100.0 * mask_fraction);
    std::printf("checkpoint written to %s (%zu model scalars, %zu protocol "
                "snapshot bytes)\n",
                path.c_str(), checkpoint.model_state.size(),
                checkpoint.protocol_snapshot.size());
  }

  // Phase 2: fresh simulation, restore, continue.
  {
    const io::Checkpoint checkpoint = io::load_checkpoint(path);
    auto proto = fl::make_protocol(fedsu_config());
    auto* manager = dynamic_cast<core::FedSuManager*>(proto.get());
    fl::Simulation sim(workload(), std::move(proto));
    sim.protocol().restore(checkpoint.protocol_snapshot);
    sim.load_global_state(checkpoint.model_state);
    std::printf("\nphase 2: restored round %d, %.1f%% of parameters "
                "speculative (was %.1f%%)\n",
                checkpoint.round, 100.0 * manager->predictable_fraction(),
                100.0 * mask_fraction);
    sim.run(rounds);
    std::printf("phase 2: +%d rounds, accuracy %.3f, %.1f%% speculative\n",
                rounds, sim.evaluate(), 100.0 * manager->predictable_fraction());
  }
  std::remove(path.c_str());
  return 0;
} catch (const fedsu::util::UsageError& e) {
  return fedsu::util::usage_exit(argv[0], e);
}
