#include "core/fedsu_state.h"

#include <cmath>
#include <stdexcept>

namespace fedsu::core {

namespace {
// v2's entry draws come from this fixed seed, so every replica (and every
// run) promotes the same parameters.
constexpr std::uint64_t kEntrySeed = 1234;
}  // namespace

FedSuState::FedSuState(FedSuOptions options)
    : options_(options), entry_rng_(kEntrySeed) {
  if (options_.t_r <= 0.0 || options_.t_s <= 0.0) {
    throw std::invalid_argument("FedSuState: thresholds must be positive");
  }
  if (options_.initial_no_check < 1) {
    throw std::invalid_argument("FedSuState: initial_no_check must be >= 1");
  }
  if (!(options_.enter_probability >= 0.0 &&
        options_.enter_probability <= 1.0)) {
    throw std::invalid_argument(
        "FedSuState: enter_probability must be in [0, 1]");
  }
}

void FedSuState::reset(std::size_t params) {
  const bool diagnosis = options_.ablation != FedSuAblation::kRandomEntry;
  osc_ = OscillationTracker(diagnosis ? params : 0,
                            {options_.ema_decay, options_.warmup});
  predictable_.assign(params, 0);
  slope_.assign(params, 0.0f);
  no_check_period_.assign(params, 0);
  no_check_remaining_.assign(params, 0);
  phase_start_round_.assign(params, 0);
  linear_rounds_.assign(params, 0);
  rounds_seen_ = 0;
  entry_rng_ = util::Rng(kEntrySeed);
}

bool FedSuState::judge(std::size_t j, float mean_err, float& value) {
  const double denom = std::fabs(static_cast<double>(slope_[j])) + 1e-8;
  const double s = std::fabs(static_cast<double>(mean_err)) / denom;
  if (s < options_.t_s) {
    // Linear pattern persists: lengthen the no-checking period by one
    // round (paper §IV-C) and keep speculating. Errors keep accumulating
    // since Eq. 3 sums from the start of the speculation phase.
    no_check_period_[j] += 1;
    no_check_remaining_[j] = no_check_period_[j];
    return false;
  }
  // Pattern broke: correct the value with the aggregated error so the
  // trajectory rejoins the true one and return to regular updating. The
  // oscillation statistics survive, so speculation can restart shortly
  // after, as in the paper's Fig. 6 trajectories.
  predictable_[j] = 0;
  no_check_period_[j] = 0;
  no_check_remaining_[j] = 0;
  value = static_cast<float>(value + mean_err);
  return true;
}

void FedSuState::release(std::size_t j) {
  predictable_[j] = 0;
  no_check_period_[j] = 0;
  no_check_remaining_[j] = 0;
  if (options_.ablation == FedSuAblation::kFixedPeriod) osc_.reset(j);
}

obs::Histogram* FedSuState::oscillation_histogram() {
  if (!obs::metrics_enabled()) return nullptr;
  obs::HistogramOptions options;
  options.scale = obs::HistogramOptions::Scale::kLog;
  options.lo = 1e-4;
  options.hi = 10.0;
  options.buckets = 20;
  return &obs::MetricsRegistry::global().histogram(
      "core.fedsu.oscillation_ratio", options);
}

double FedSuState::predictable_fraction() const {
  if (predictable_.empty()) return 0.0;
  std::size_t count = 0;
  for (auto m : predictable_) count += m;
  return static_cast<double>(count) / static_cast<double>(predictable_.size());
}

std::size_t FedSuState::join_bytes() const {
  return predictable_.size() / 8 + 1 +
         no_check_period_.size() * sizeof(std::int32_t) +
         slope_.size() * sizeof(float);
}

std::size_t FedSuState::state_bytes() const {
  return osc_.state_bytes() + predictable_.size() * sizeof(std::uint8_t) +
         slope_.size() * sizeof(float) +
         no_check_period_.size() * sizeof(std::int32_t) +
         no_check_remaining_.size() * sizeof(std::int32_t);
}

void FedSuState::serialize(io::BinaryWriter& writer) const {
  writer.write_u8(static_cast<std::uint8_t>(options_.ablation));
  writer.write_i32(rounds_seen_);
  osc_.serialize(writer);
  writer.write_vector(predictable_);
  writer.write_vector(slope_);
  writer.write_vector(no_check_period_);
  writer.write_vector(no_check_remaining_);
  writer.write_vector(linear_rounds_);
  writer.write_vector(phase_start_round_);
  for (std::uint64_t word : entry_rng_.state_words()) writer.write_u64(word);
}

void FedSuState::deserialize(io::BinaryReader& reader) {
  if (reader.read_u8() != static_cast<std::uint8_t>(options_.ablation)) {
    throw std::runtime_error("FedSuState: snapshot of another ablation");
  }
  rounds_seen_ = reader.read_i32();
  osc_.deserialize(reader);
  predictable_ = reader.read_vector<std::uint8_t>();
  slope_ = reader.read_vector<float>();
  no_check_period_ = reader.read_vector<std::int32_t>();
  no_check_remaining_ = reader.read_vector<std::int32_t>();
  linear_rounds_ = reader.read_vector<std::int32_t>();
  phase_start_round_ = reader.read_vector<std::int32_t>();
  std::array<std::uint64_t, util::Rng::kStateWords> words{};
  for (auto& word : words) word = reader.read_u64();
  entry_rng_.restore_state_words(words);
  const std::size_t p = predictable_.size();
  const bool diagnosis = options_.ablation != FedSuAblation::kRandomEntry;
  if (slope_.size() != p || no_check_period_.size() != p ||
      no_check_remaining_.size() != p || linear_rounds_.size() != p ||
      phase_start_round_.size() != p || osc_.size() != (diagnosis ? p : 0)) {
    throw std::runtime_error("FedSuState: inconsistent snapshot");
  }
}

}  // namespace fedsu::core
