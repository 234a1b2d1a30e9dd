// The per-parameter state machine of FedSU's Algorithm 1 (paper §IV), shared
// by every form of the manager: the centralized FedSuManager, the per-client
// FedSuClientManager, and the Fig. 8 ablations (FedSU-v1, FedSU-v2).
//
// Per round, Algorithm 1 is three steps over this state:
//   1. speculate: every predictable parameter moves by its frozen slope
//      (x + slope); those whose no-checking period expires are listed;
//   2. feedback: each expiring parameter gets a verdict from its aggregated
//      error e — S = |e| / |slope| (Eq. 3) below T_S extends the period by
//      one round, otherwise the parameter is demoted and corrected by e
//      (Fig. 6's red crosses);
//   3. diagnosis: every unpredictable parameter feeds its fresh update to
//      the oscillation tracker (Eq. 2) and is promoted when R < T_R, with
//      the last update frozen as its slope.
//
// The state only ever reads globally-identical quantities, so replicas on
// different clients evolve identically without mask traffic (§V). Callers
// own the error accumulators and the aggregation: they clear their error
// storage for each demotion and promotion the state reports.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/oscillation.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace fedsu::core {

// Which parts of Algorithm 1 run (paper §VI-D, Fig. 8).
enum class FedSuAblation : std::uint8_t {
  kNone = 0,  // FedSU
  // FedSU-v1: diagnosis without error feedback. A promoted parameter
  // speculates for exactly `initial_no_check` rounds, then is released
  // without correction and its oscillation statistics are wiped.
  kFixedPeriod = 1,
  // FedSU-v2: no diagnosis either. From the second round on, every
  // unpredictable parameter is promoted with probability
  // `enter_probability` (one draw each, ascending order, constant seed),
  // then released like v1.
  kRandomEntry = 2,
};

struct FedSuOptions {
  double t_r = 0.01;        // predictability threshold T_R (paper §VI-A)
  double t_s = 1.0;         // error-feedback threshold T_S (paper §VI-A)
  double ema_decay = 0.9;   // theta of Eq. 2 ("close to 1", paper §IV-A)
  int warmup = 3;           // R observations before speculation may start
  // First no-checking period in rounds; the ablations' fixed period.
  int initial_no_check = 1;
  FedSuAblation ablation = FedSuAblation::kNone;
  double enter_probability = 0.0053;  // kRandomEntry; paper Fig. 8 (CNN)
};

class FedSuState {
 public:
  // Throws std::invalid_argument on out-of-range options.
  explicit FedSuState(FedSuOptions options = {});

  // Shapes the state for `params` parameters, all unpredictable.
  void reset(std::size_t params);

  const FedSuOptions& options() const { return options_; }
  std::size_t size() const { return predictable_.size(); }
  // Whether expiring parameters are judged on their aggregated error
  // (FedSU) or released unconditionally (the fixed-period ablations).
  bool error_feedback() const {
    return options_.ablation == FedSuAblation::kNone;
  }

  // Step 1. For every predictable j: next[j] = prev[j] + slope[j], and j is
  // appended to `expiring` (ascending) when its period lapses. Calls
  // unpredictable(j) for every other j, in ascending order, so the caller
  // can fill next[j] from its aggregate in the same pass. Returns the
  // number of unpredictable parameters.
  template <typename OnUnpredictable>
  std::size_t speculate(std::span<const float> prev, std::span<float> next,
                        std::vector<std::size_t>& expiring,
                        OnUnpredictable&& unpredictable) {
    expiring.clear();
    std::size_t count = 0;
    const std::size_t p = predictable_.size();
    for (std::size_t j = 0; j < p; ++j) {
      if (!predictable_[j]) {
        ++count;
        unpredictable(j);
        continue;
      }
      next[j] = prev[j] + slope_[j];
      ++linear_rounds_[j];
      if (--no_check_remaining_[j] <= 0) expiring.push_back(j);
    }
    return count;
  }

  // Step 2, error feedback: the verdict for expiring parameter j given its
  // mean aggregated error. Extends the period, or demotes j and adds the
  // error to `value` as the correction; returns true on demotion.
  bool judge(std::size_t j, float mean_err, float& value);
  // Step 2 when no contributor's error covers j's whole phase: the check
  // cannot be evaluated, so it is re-armed for the next round.
  void rearm(std::size_t j) { no_check_remaining_[j] = 1; }
  // Step 2 of the fixed-period ablations: j returns to regular updating
  // without correction.
  void release(std::size_t j);

  // Step 3: diagnoses every unpredictable j on its update next[j] - prev[j]
  // and calls promoted(j) for each one promoted, in ascending order. Ends
  // the round.
  template <typename OnPromote>
  void diagnose(std::span<const float> prev, std::span<const float> next,
                OnPromote&& promoted) {
    const std::size_t p = predictable_.size();
    if (options_.ablation == FedSuAblation::kRandomEntry) {
      // A slope needs one observed update, so entries start in round 1.
      for (std::size_t j = 0; rounds_seen_ > 0 && j < p; ++j) {
        if (predictable_[j]) continue;
        if (entry_rng_.bernoulli(options_.enter_probability)) {
          promote(j, next[j] - prev[j]);
          promoted(j);
        }
      }
    } else {
      obs::Histogram* osc_hist = oscillation_histogram();
      for (std::size_t j = 0; j < p; ++j) {
        if (predictable_[j]) continue;
        const float g_new = next[j] - prev[j];
        const double r = osc_.observe(j, g_new);
        if (!osc_.ready(j)) continue;
        if (osc_hist) osc_hist->record(r);
        if (r < options_.t_r) {
          promote(j, g_new);
          promoted(j);
        }
      }
    }
    ++rounds_seen_;
  }

  const std::vector<std::uint8_t>& mask() const { return predictable_; }
  double predictable_fraction() const;
  // The round (rounds_seen clock) parameter j's speculation phase started.
  const std::vector<std::int32_t>& phase_starts() const {
    return phase_start_round_;
  }
  // Rounds each parameter spent in speculative mode so far.
  const std::vector<std::int32_t>& linear_rounds() const {
    return linear_rounds_;
  }
  int rounds_seen() const { return rounds_seen_; }

  // Bytes a joining or rejoining replica downloads: the mask (1 bit per
  // parameter, packed), the no-checking periods and the slopes.
  std::size_t join_bytes() const;
  // Resident bytes of the state on a device (linear_rounds, bench
  // instrumentation only, excluded).
  std::size_t state_bytes() const;

  void serialize(io::BinaryWriter& writer) const;
  // Throws std::runtime_error on a snapshot of another ablation or an
  // inconsistent shape.
  void deserialize(io::BinaryReader& reader);

 private:
  // Enters speculation with the last update frozen as the slope ("use the
  // update of the last round", §IV-B).
  void promote(std::size_t j, float slope) {
    predictable_[j] = 1;
    slope_[j] = slope;
    no_check_period_[j] = options_.initial_no_check;
    no_check_remaining_[j] = options_.initial_no_check;
    phase_start_round_[j] = rounds_seen_;
  }
  // The registry histogram of observed R values; null when metrics are off.
  static obs::Histogram* oscillation_histogram();

  FedSuOptions options_;
  // Unused (size 0) under kRandomEntry, which has no diagnosis.
  OscillationTracker osc_{0};
  std::vector<std::uint8_t> predictable_;
  std::vector<float> slope_;
  std::vector<std::int32_t> no_check_period_;
  std::vector<std::int32_t> no_check_remaining_;
  std::vector<std::int32_t> phase_start_round_;
  std::vector<std::int32_t> linear_rounds_;
  int rounds_seen_ = 0;
  util::Rng entry_rng_;  // kRandomEntry draws
};

}  // namespace fedsu::core
