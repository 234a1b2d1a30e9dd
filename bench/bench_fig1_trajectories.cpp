// Fig. 1: evolution trajectories of randomly-selected scalar parameters when
// training the CNN and the DenseNet-style model under plain FedAvg.
//
// Paper shape to reproduce: after an early fast-moving phase, sampled
// parameter-value curves contain long stretches that a straight line fits
// well (strong trajectory linearity). We print the per-round values plus a
// per-window linearity verdict from the second-order oscillation ratio.
#include <cstdio>

#include "common.h"
#include "core/oscillation.h"
#include "metrics/stats.h"
#include "util/csv.h"

using namespace fedsu;

int main(int argc, char** argv) try {
  bench::BenchConfig defaults;
  defaults.rounds = 40;
  util::Flags flags = bench::make_flags(defaults);
  flags.add_int("params", 2, "number of randomly-sampled parameters to trace");
  flags.add_string("datasets", "emnist,cifar", "datasets to trace");
  if (!fedsu::util::parse_flags(flags, argc, argv)) return 0;
  bench::BenchConfig base = bench::config_from_flags(flags);
  const int num_params = static_cast<int>(flags.get_int("params"));

  for (const std::string dataset : {std::string("emnist"), std::string("cifar")}) {
    if (flags.get_string("datasets").find(dataset) == std::string::npos) continue;
    bench::BenchConfig config = base;
    config.dataset = dataset;
    config.eval_every = 0;
    if (dataset == "cifar") config.rounds = std::min(config.rounds, 25);

    fl::Simulation sim(bench::simulation_options(config),
                       fl::make_protocol(bench::protocol_config(config, "fedavg")));
    util::Rng pick(config.seed ^ 0x777);
    std::vector<std::size_t> indices;
    for (int i = 0; i < num_params; ++i) {
      indices.push_back(pick.uniform_index(sim.model_state_size()));
    }
    metrics::TrajectoryRecorder recorder(indices);
    recorder.record(sim.global_state());
    for (int r = 0; r < config.rounds; ++r) {
      sim.step();
      recorder.record(sim.global_state());
    }

    bench::print_header("Fig. 1 trajectories: " + dataset + " (" +
                        nn::paper_spec(dataset).arch + "), FedAvg");
    for (std::size_t p = 0; p < indices.size(); ++p) {
      const auto& series = recorder.series()[p];
      std::printf("param[%zu] (state index %zu):\n", p, indices[p]);
      for (std::size_t r = 0; r < series.size(); ++r) {
        std::printf("  round %3zu  value % .6f\n", r, series[r]);
      }
      // Quantify trajectory linearity: fraction of rounds the oscillation
      // ratio marks as linear.
      core::OscillationTracker osc(1);
      int linear = 0, total = 0;
      for (std::size_t r = 1; r < series.size(); ++r) {
        const double ratio = osc.observe(0, series[r] - series[r - 1]);
        if (osc.ready(0)) {
          ++total;
          if (ratio < 0.1) ++linear;
        }
      }
      std::printf("  -> rounds diagnosed linear (R < 0.1): %d / %d\n", linear,
                  total);
    }
    if (!config.csv_dir.empty()) {
      util::CsvWriter csv(config.csv_dir + "/fig1_" + dataset + ".csv");
      std::vector<std::string> header{"round"};
      for (std::size_t p = 0; p < indices.size(); ++p) {
        header.push_back("param" + std::to_string(p));
      }
      csv.write_row(header);
      for (std::size_t r = 0; r < recorder.series()[0].size(); ++r) {
        std::vector<std::string> row{std::to_string(r)};
        for (const auto& series : recorder.series()) {
          row.push_back(util::CsvWriter::field(series[r]));
        }
        csv.write_row(row);
      }
    }
  }
  return 0;
} catch (const fedsu::util::UsageError& e) {
  return fedsu::util::usage_exit(argv[0], e);
}
