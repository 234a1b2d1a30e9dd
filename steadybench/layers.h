// Per-layer probes for the traced run: each times direct calls into one
// layer's public functions, repeated, and reports the median.
#pragma once

#include <string>
#include <vector>

#include "fl/simulation.h"
#include "nn/zoo.h"

namespace steadybench {

// GFLOP/s of tensor::gemm::sgemm over the GEMM shapes one local batch of
// `spec`'s model issues (forward and backward).
double gemm_gflops(const fedsu::nn::ModelSpec& spec, int batch);

struct TrainingProbe {
  double forward_ms = 0.0;       // nn::Model::forward, train mode, one batch
  double backward_ms = 0.0;      // nn::Model::backward, same batch
  double client_train_ms = 0.0;  // one fl::Client::train_round
};

// Times the model and one client's local round on the workload's data,
// starting from `global_state`.
TrainingProbe probe_training(const fedsu::fl::SimulationOptions& options,
                             const std::vector<float>& global_state);

// Median host milliseconds of Simulation::evaluate().
double probe_eval_ms(const fedsu::fl::Simulation& sim);

struct CheckpointProbe {
  double ms = 0.0;  // snapshot_state + io::save_run_checkpoint
  double mb = 0.0;  // checkpoint file size
};

// Writes checkpoints of `sim` into `dir` (created, then removed).
CheckpointProbe probe_checkpoint(const fedsu::fl::Simulation& sim,
                                 const std::string& dir);

}  // namespace steadybench
