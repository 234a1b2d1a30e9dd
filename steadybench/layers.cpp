#include "layers.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "data/loader.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "io/checkpoint.h"
#include "nn/loss.h"
#include "tensor/gemm.h"

namespace steadybench {

namespace {

using Clock = std::chrono::steady_clock;
using fedsu::tensor::gemm::Accumulate;
using fedsu::tensor::gemm::Variant;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

// Calls `once` until at least `min_reps` samples and `budget_ms` have been
// spent, and returns the samples (milliseconds each).
template <typename F>
std::vector<double> repeat_timed(F once, int min_reps, double budget_ms) {
  once();  // warm caches and lazily grown buffers
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps ||
         ms_since(start) < budget_ms) {
    samples.push_back(once());
  }
  return samples;
}

struct GemmShape {
  Variant variant;
  int m, n, k;
  int count;  // calls per local batch
};

// The GEMMs of one local batch: convolutions run one im2col GEMM per image
// (forward NN, backward NT for dW and TN for the input gradient); linear
// layers run one GEMM per batch (forward NT, backward TN and NN).
std::vector<GemmShape> model_gemms(const fedsu::nn::ModelSpec& spec,
                                   int batch) {
  std::vector<GemmShape> shapes;
  auto conv = [&](int in_c, int out_c, int kernel, int out_size) {
    const int patch = out_size * out_size;
    const int fan_in = in_c * kernel * kernel;
    shapes.push_back({Variant::kNN, out_c, patch, fan_in, batch});
    shapes.push_back({Variant::kNT, out_c, fan_in, patch, batch});
    shapes.push_back({Variant::kTN, fan_in, patch, out_c, batch});
  };
  auto linear = [&](int in, int out) {
    shapes.push_back({Variant::kNT, batch, out, in, 1});
    shapes.push_back({Variant::kTN, out, in, batch, 1});
    shapes.push_back({Variant::kNN, batch, in, out, 1});
  };
  if (spec.arch == "mlp") {
    linear(spec.in_channels * spec.image_size * spec.image_size, spec.hidden);
    linear(spec.hidden, spec.num_classes);
  } else if (spec.arch == "resnet") {
    // nn/zoo.cpp build_resnet: base width 8, three residual stages, the
    // last two strided with a 1x1 projection.
    const int s = spec.image_size, s2 = (s + 1) / 2, s4 = (s2 + 1) / 2;
    conv(spec.in_channels, 8, 3, s);
    conv(8, 8, 3, s);
    conv(8, 8, 3, s);
    conv(8, 16, 3, s2);
    conv(16, 16, 3, s2);
    conv(8, 16, 1, s2);
    conv(16, 32, 3, s4);
    conv(32, 32, 3, s4);
    conv(16, 32, 1, s4);
    linear(32, spec.num_classes);
  } else {
    throw std::invalid_argument("gemm probe: no shape table for '" +
                                spec.arch + "'");
  }
  return shapes;
}

}  // namespace

double gemm_gflops(const fedsu::nn::ModelSpec& spec, int batch) {
  const std::vector<GemmShape> shapes = model_gemms(spec, batch);
  std::size_t a_max = 0, b_max = 0, c_max = 0;
  double flops = 0.0;
  for (const GemmShape& g : shapes) {
    a_max = std::max<std::size_t>(a_max, static_cast<std::size_t>(g.m) * g.k);
    b_max = std::max<std::size_t>(b_max, static_cast<std::size_t>(g.k) * g.n);
    c_max = std::max<std::size_t>(c_max, static_cast<std::size_t>(g.m) * g.n);
    flops += 2.0 * g.m * g.n * g.k * g.count;
  }
  std::vector<float> a(a_max), b(b_max), c(c_max);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.001f * (i % 97);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.002f * (i % 89);
  const std::vector<double> ms = repeat_timed(
      [&] {
        const Clock::time_point start = Clock::now();
        for (const GemmShape& g : shapes) {
          for (int r = 0; r < g.count; ++r) {
            fedsu::tensor::gemm::sgemm(g.variant, g.m, g.n, g.k, a.data(),
                                       b.data(), c.data(),
                                       Accumulate::kOverwrite);
          }
        }
        return ms_since(start);
      },
      20, 300.0);
  return flops / (median(ms) * 1e-3) / 1e9;
}

TrainingProbe probe_training(const fedsu::fl::SimulationOptions& options,
                             const std::vector<float>& global_state) {
  auto data = std::make_shared<const fedsu::data::Dataset>(
      fedsu::data::generate_synthetic(options.dataset).train);
  fedsu::nn::ModelSpec spec = options.model;
  fedsu::nn::Model model =
      fedsu::nn::build_model(spec, fedsu::util::Rng(options.seed));
  model.load_state_vector(global_state);

  TrainingProbe probe;
  const int batch_size = options.local.batch_size;
  // BatchLoader keeps a reference to its view.
  const fedsu::data::DatasetView all = fedsu::data::DatasetView::all_of(data);
  fedsu::data::BatchLoader loader(all, batch_size,
                                  fedsu::util::Rng(options.seed));
  fedsu::tensor::Tensor batch;
  std::vector<int> labels;
  loader.next(batch, labels);
  fedsu::nn::SoftmaxCrossEntropy loss;
  std::vector<double> forward_ms, backward_ms;
  repeat_timed(
      [&] {
        model.zero_grads();
        const Clock::time_point start = Clock::now();
        const fedsu::tensor::Tensor logits = model.forward(batch, true);
        const double f = ms_since(start);
        loss.forward(logits, labels);
        const fedsu::tensor::Tensor grad = loss.backward();
        const Clock::time_point back = Clock::now();
        model.backward(grad);
        const double b = ms_since(back);
        forward_ms.push_back(f);
        backward_ms.push_back(b);
        return f + b;
      },
      30, 300.0);
  forward_ms.erase(forward_ms.begin());  // the warm-up call
  backward_ms.erase(backward_ms.begin());
  probe.forward_ms = median(forward_ms);
  probe.backward_ms = median(backward_ms);

  // One client's shard: an even slice of the training rows.
  const std::size_t shard =
      std::max<std::size_t>(batch_size, data->size() / options.num_clients);
  std::vector<std::size_t> rows(shard);
  for (std::size_t i = 0; i < shard; ++i) rows[i] = i;
  fedsu::fl::Client client(0, fedsu::data::DatasetView(data, rows), batch_size,
                           fedsu::util::Rng(options.seed));
  probe.client_train_ms = median(repeat_timed(
      [&] {
        model.load_state_vector(global_state);
        const Clock::time_point start = Clock::now();
        client.train_round(model, options.local);
        return ms_since(start);
      },
      10, 300.0));
  return probe;
}

double probe_eval_ms(const fedsu::fl::Simulation& sim) {
  return median(repeat_timed(
      [&] {
        const Clock::time_point start = Clock::now();
        sim.evaluate();
        return ms_since(start);
      },
      5, 200.0));
}

CheckpointProbe probe_checkpoint(const fedsu::fl::Simulation& sim,
                                 const std::string& dir) {
  CheckpointProbe probe;
  std::size_t bytes = 0;
  probe.ms = median(repeat_timed(
      [&] {
        const Clock::time_point start = Clock::now();
        const std::vector<std::uint8_t> payload = sim.snapshot_state();
        const std::string path = fedsu::io::save_run_checkpoint(
            dir, sim.rounds_completed(), payload);
        const double ms = ms_since(start);
        bytes = std::filesystem::file_size(path);
        return ms;
      },
      3, 0.0));
  probe.mb = static_cast<double>(bytes) / (1 << 20);
  std::filesystem::remove_all(dir);
  return probe;
}

}  // namespace steadybench
