#include "checks.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>

namespace steadybench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

CheckedProtocol::CheckedProtocol(
    std::unique_ptr<fedsu::compress::SyncProtocol> inner)
    : inner_(std::move(inner)),
      fedsu_(dynamic_cast<const fedsu::core::FedSuManager*>(inner_.get())) {}

fedsu::compress::SyncResult CheckedProtocol::synchronize(
    const fedsu::compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  const auto sync_start = std::chrono::steady_clock::now();
  fedsu::compress::SyncResult result = inner_->synchronize(ctx, client_states);
  audit_ = Audit{};
  ++syncs_;
  audit_.sync_s = seconds_since(sync_start);

  const auto check_start = std::chrono::steady_clock::now();
  std::ostringstream error;
  const std::size_t n = client_states.size();
  const std::size_t p = result.new_global.size();
  const std::size_t dense = p * sizeof(float);
  for (std::size_t i = 0; i < result.bytes_up.size(); ++i) {
    if (result.bytes_up[i] > dense) {
      error << "round " << ctx.round << ": participant " << i << " uploads "
            << result.bytes_up[i] << " bytes, more than the dense " << dense;
      break;
    }
    if (ctx.round == 0 && result.bytes_up[i] != dense) {
      error << "round 0: upload of "
            << result.bytes_up[i] << " bytes is not the dense " << dense;
      break;
    }
  }

  if (n > 0) {
    sum_.assign(p, 0.0);
    abs_sum_.assign(p, 0.0);
    for (const auto& state : client_states) {
      for (std::size_t j = 0; j < p; ++j) {
        sum_[j] += static_cast<double>(state[j]);
        abs_sum_[j] += std::fabs(static_cast<double>(state[j]));
      }
    }
    // Float rounding of an n-term mean is well inside 1e-5 of the mean
    // magnitude; a speculative step or an error correction is not.
    const double inv_n = 1.0 / static_cast<double>(n);
    std::size_t deviating = 0;
    for (std::size_t j = 0; j < p; ++j) {
      const double mean = sum_[j] * inv_n;
      const double tol = 1e-5 * abs_sum_[j] * inv_n + 1e-30;
      if (std::fabs(static_cast<double>(result.new_global[j]) - mean) > tol) {
        ++deviating;
      }
    }
    // Predictable parameters plus this round's demotions (corrected with
    // the aggregated error); FedAvg is allowed none.
    std::size_t allowed = 0;
    if (fedsu_ != nullptr) {
      for (std::uint8_t bit : fedsu_->predictable_mask()) allowed += bit != 0;
      allowed += fedsu_->last_round_diagnostics().demotions;
    }
    if (deviating > allowed && error.str().empty()) {
      error << "round " << ctx.round << ": " << deviating
            << " coordinates differ from the independent mean, more than the "
            << allowed << " predictable or corrected ones";
    }
  }
  audit_.error = error.str();
  audit_.check_s = seconds_since(check_start);
  return result;
}

std::uint64_t state_checksum(const std::vector<float>& state) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (float value : state) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::string RunAuditor::observe(const fedsu::fl::Simulation& sim,
                                const fedsu::fl::RoundRecord& record) {
  std::ostringstream error;
  round_time_sum_ += record.round_time_s;
  const double elapsed = sim.elapsed_time_s();
  if (record.elapsed_time_s != elapsed ||
      std::fabs(elapsed - round_time_sum_) >
          1e-9 * std::max(1.0, std::fabs(elapsed))) {
    error << "round " << record.round << ": simulated clock " << elapsed
          << " s is not the sum of round times " << round_time_sum_ << " s";
    return error.str();
  }
  if (!record.faults) return {};
  const auto& f = *record.faults;
  selected_ += f.selected;
  accounted_ += record.num_participants + record.uploads_lost + f.corrupt +
                f.deadline_missed;
  if (record.async) {
    // Async: a cycle may consume uploads dispatched cycles earlier, so the
    // invariant holds cumulatively, with the legs still in flight.
    if (selected_ != accounted_ + record.async->inflight) {
      error << "cycle " << record.round << ": " << selected_
            << " selected uploads, but " << accounted_
            << " aggregated/lost/corrupt/late plus "
            << record.async->inflight << " in flight";
    }
  } else {
    accounted_ += f.unused;
    if (selected_ != accounted_) {
      error << "round " << record.round << ": " << selected_
            << " selected uploads, but " << accounted_ << " accounted for";
    }
  }
  return error.str();
}

}  // namespace steadybench
