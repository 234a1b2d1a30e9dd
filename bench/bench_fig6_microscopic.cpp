// Fig. 6: microscopic trajectory of one parameter under FedSU vs a FedAvg
// reference run, with the speculative-phase start (green dot) / end (red
// cross) rounds marked.
//
// Paper shape to reproduce: the FedSU trajectory tracks the FedAvg one
// closely; speculation phases cover long stretches and end promptly when
// the linear pattern breaks (the correction snaps the value back).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common.h"
#include "core/fedsu_manager.h"
#include "metrics/stats.h"
#include "util/csv.h"

using namespace fedsu;

int main(int argc, char** argv) try {
  bench::BenchConfig defaults;
  defaults.rounds = 45;
  util::Flags flags = bench::make_flags(defaults);
  if (!fedsu::util::parse_flags(flags, argc, argv)) return 0;
  bench::BenchConfig config = bench::config_from_flags(flags);
  config.eval_every = 0;

  // FedSU run with the event hook capturing speculation phases.
  auto proto = fl::make_protocol(bench::protocol_config(config, "fedsu"));
  auto* manager = dynamic_cast<core::FedSuManager*>(proto.get());
  std::map<std::size_t, std::vector<std::pair<int, bool>>> events;
  manager->set_event_hook([&](const core::SpecEvent& e) {
    events[e.param].emplace_back(e.round, e.start);
  });
  fl::Simulation fedsu_sim(bench::simulation_options(config), std::move(proto));
  std::vector<std::vector<float>> fedsu_states{fedsu_sim.global_state()};
  for (int r = 0; r < config.rounds; ++r) {
    fedsu_sim.step();
    fedsu_states.push_back(fedsu_sim.global_state());
  }

  // Pick the parameter with the most speculation activity (most paper-like).
  std::size_t best_param = 0;
  std::size_t best_events = 0;
  const auto& rounds_linear = manager->linear_rounds();
  for (const auto& [param, evs] : events) {
    const std::size_t score =
        evs.size() + static_cast<std::size_t>(rounds_linear[param]);
    if (score > best_events) {
      best_events = score;
      best_param = param;
    }
  }

  // FedAvg reference with identical seeds.
  fl::Simulation fedavg_sim(bench::simulation_options(config),
                            fl::make_protocol(bench::protocol_config(config,
                                                                     "fedavg")));
  std::vector<std::vector<float>> fedavg_states{fedavg_sim.global_state()};
  for (int r = 0; r < config.rounds; ++r) {
    fedavg_sim.step();
    fedavg_states.push_back(fedavg_sim.global_state());
  }

  bench::print_header("Fig. 6: microscopic trajectory (" + config.dataset +
                      ", state index " + std::to_string(best_param) + ")");
  const auto& param_events = events[best_param];
  double max_gap = 0.0;
  for (std::size_t r = 0; r < fedsu_states.size(); ++r) {
    const float su = fedsu_states[r][best_param];
    const float avg = fedavg_states[r][best_param];
    max_gap = std::max(max_gap, static_cast<double>(std::fabs(su - avg)));
    std::string marker;
    for (const auto& [round, start] : param_events) {
      if (round == static_cast<int>(r) - 1) {
        marker += start ? "  <- speculation starts" : "  <- speculation ends";
      }
    }
    std::printf("  round %3zu  fedsu % .6f  fedavg % .6f%s\n", r, su, avg,
                marker.c_str());
  }
  std::printf("speculation phases: %zu events, %d rounds speculative, "
              "max |fedsu - fedavg| gap %.5f\n",
              param_events.size(), rounds_linear[best_param], max_gap);

  if (!config.csv_dir.empty()) {
    util::CsvWriter csv(config.csv_dir + "/fig6.csv");
    csv.write_row({"round", "fedsu", "fedavg"});
    for (std::size_t r = 0; r < fedsu_states.size(); ++r) {
      csv.write_row({std::to_string(r),
                     util::CsvWriter::field(fedsu_states[r][best_param]),
                     util::CsvWriter::field(fedavg_states[r][best_param])});
    }
  }
  return 0;
} catch (const fedsu::util::UsageError& e) {
  return fedsu::util::usage_exit(argv[0], e);
}
