#include "core/distributed.h"

#include <stdexcept>

#include "util/reduce.h"
#include "util/thread_pool.h"

namespace fedsu::core {

FedSuDownload FedSuServer::aggregate(
    const std::vector<FedSuUpload>& uploads) const {
  if (uploads.empty()) {
    throw std::invalid_argument("FedSuServer::aggregate: no uploads");
  }
  const std::size_t values = uploads.front().unpredictable_values.size();
  const std::size_t errors = uploads.front().expiring_errors.size();
  for (const auto& upload : uploads) {
    if (upload.unpredictable_values.size() != values ||
        upload.expiring_errors.size() != errors) {
      throw std::invalid_argument(
          "FedSuServer::aggregate: payload shape mismatch (client masks "
          "diverged)");
    }
  }
  // Positional means in the fixed block shape (util/reduce.h): thread-count
  // invariant, and bit-identical to the centralized FedSuManager passes —
  // both fold the same N rows through the same tree.
  FedSuDownload download;
  download.aggregated_values.resize(values);
  download.aggregated_errors.resize(errors);
  util::ThreadPool* pool = &util::ThreadPool::global();
  std::vector<std::span<const float>> rows;
  rows.reserve(uploads.size());
  for (const auto& upload : uploads) {
    rows.emplace_back(upload.unpredictable_values);
  }
  util::column_means(rows, download.aggregated_values, pool);
  rows.clear();
  for (const auto& upload : uploads) rows.emplace_back(upload.expiring_errors);
  util::column_means(rows, download.aggregated_errors, pool);
  return download;
}

FedSuClientManager::FedSuClientManager(std::size_t state_size,
                                       FedSuOptions options)
    : state_(options) {
  global_.assign(state_size, 0.0f);
  state_.reset(state_size);
  if (state_.error_feedback()) local_err_.assign(state_size, 0.0f);
}

void FedSuClientManager::initialize(std::span<const float> global_state) {
  if (global_state.size() != global_.size()) {
    throw std::invalid_argument("FedSuClientManager::initialize: bad size");
  }
  global_.assign(global_state.begin(), global_state.end());
}

FedSuUpload FedSuClientManager::begin_sync(std::span<const float> local_state) {
  if (sync_in_flight_) {
    throw std::logic_error("FedSuClientManager: begin_sync called twice");
  }
  if (local_state.size() != global_.size()) {
    throw std::invalid_argument("FedSuClientManager::begin_sync: bad size");
  }
  FedSuUpload upload;
  // Algorithm 1 line 2: masked-select the non-linear parameters; the
  // predictable ones take their speculative value x_spec = x + slope.
  pending_next_ = global_;
  pending_values_ = state_.speculate(
      global_, pending_next_, pending_expiring_, [&](std::size_t j) {
        upload.unpredictable_values.push_back(local_state[j]);
      });
  if (state_.error_feedback()) {
    // Accumulate the local prediction error e += x - x_spec (line 5) and
    // upload it for the parameters whose period expires.
    const std::vector<std::uint8_t>& predictable = state_.mask();
    for (std::size_t j = 0; j < global_.size(); ++j) {
      if (predictable[j]) local_err_[j] += local_state[j] - pending_next_[j];
    }
    for (const std::size_t j : pending_expiring_) {
      upload.expiring_errors.push_back(local_err_[j]);
    }
  }
  sync_in_flight_ = true;
  return upload;
}

std::vector<float> FedSuClientManager::finish_sync(
    const FedSuDownload& download) {
  if (!sync_in_flight_) {
    throw std::logic_error("FedSuClientManager: finish_sync without begin");
  }
  sync_in_flight_ = false;
  const bool feedback = state_.error_feedback();
  if (download.aggregated_errors.size() !=
      (feedback ? pending_expiring_.size() : 0)) {
    throw std::invalid_argument(
        "FedSuClientManager::finish_sync: error payload mismatch");
  }
  if (download.aggregated_values.size() != pending_values_) {
    throw std::invalid_argument(
        "FedSuClientManager::finish_sync: value payload mismatch");
  }

  // Restore the aggregated unpredictable values (line 4); the predictable
  // ones already hold their speculative update (line 8).
  std::vector<float>& next = pending_next_;
  const std::vector<std::uint8_t>& predictable = state_.mask();
  std::size_t cursor = 0;
  for (std::size_t j = 0; j < next.size(); ++j) {
    if (!predictable[j]) next[j] = download.aggregated_values[cursor++];
  }

  // Error feedback (line 9): extend or terminate the expiring speculations.
  for (std::size_t k = 0; k < pending_expiring_.size(); ++k) {
    const std::size_t j = pending_expiring_[k];
    if (!feedback) {
      state_.release(j);
    } else if (state_.judge(j, download.aggregated_errors[k], next[j])) {
      local_err_[j] = 0.0f;
    }
  }

  // Linearity diagnosis for the normally-synchronized parameters (line 10).
  state_.diagnose(global_, next, [&](std::size_t j) {
    if (feedback) local_err_[j] = 0.0f;
  });
  global_.swap(next);
  return global_;
}

}  // namespace fedsu::core
