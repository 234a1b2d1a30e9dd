// Independent output checks, applied to every round of every workload.
//
// CheckedProtocol wraps the protocol under test and, after each
// synchronize(), recomputes the participants' mean in double precision on
// its own. Coordinates of the new global state that differ from that mean
// beyond float rounding may number no more than FedSU's predictable
// parameters plus the round's fallback syncs (none at all for FedAvg). It
// also bounds every upload by the dense model and requires round 0's
// uploads, before any speculation, to be exactly the dense model.
// The wrapper times the inner synchronize() separately from its own check,
// so the harness can take the check's cost back out of the round time.
//
// RunAuditor reconciles the simulated clock and the fault counters over the
// records of one run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/protocol.h"
#include "core/fedsu_manager.h"
#include "fl/simulation.h"

namespace steadybench {

class CheckedProtocol : public fedsu::compress::SyncProtocol {
 public:
  explicit CheckedProtocol(
      std::unique_ptr<fedsu::compress::SyncProtocol> inner);

  std::string name() const override { return inner_->name(); }
  fedsu::compress::SyncResult synchronize(
      const fedsu::compress::RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;
  void initialize(std::span<const float> global_state) override {
    inner_->initialize(global_state);
  }
  void on_client_join(int client_id) override {
    inner_->on_client_join(client_id);
  }
  std::size_t join_state_bytes() const override {
    return inner_->join_state_bytes();
  }
  std::size_t on_client_rejoin(int client_id) override {
    return inner_->on_client_rejoin(client_id);
  }
  std::size_t state_bytes() const override { return inner_->state_bytes(); }
  std::vector<std::uint8_t> snapshot() const override {
    return inner_->snapshot();
  }
  void restore(const std::vector<std::uint8_t>& bytes) override {
    inner_->restore(bytes);
  }
  double last_sparsification_ratio() const override {
    return inner_->last_sparsification_ratio();
  }
  Telemetry last_round_telemetry() const override {
    return inner_->last_round_telemetry();
  }

  // Outcome of the latest synchronize().
  struct Audit {
    std::string error;     // empty when every check held
    double sync_s = 0.0;   // inner synchronize(), host seconds
    double check_s = 0.0;  // this wrapper's own checking, host seconds
  };
  const Audit& last_audit() const { return audit_; }
  // synchronize() calls so far (a stalled round makes none).
  long long syncs() const { return syncs_; }

  // The FedSU manager under test, or null for another protocol.
  const fedsu::core::FedSuManager* fedsu() const { return fedsu_; }

 private:
  std::unique_ptr<fedsu::compress::SyncProtocol> inner_;
  const fedsu::core::FedSuManager* fedsu_ = nullptr;
  long long syncs_ = 0;
  Audit audit_;
  std::vector<double> sum_;
  std::vector<double> abs_sum_;
};

// FNV-1a over the bytes of a model state.
std::uint64_t state_checksum(const std::vector<float>& state);

// Round-by-round reconciliation of one simulation's records.
class RunAuditor {
 public:
  // Checks `record` (just returned by sim.step()) against the running
  // totals; returns an empty string when it reconciles, else a diagnostic.
  std::string observe(const fedsu::fl::Simulation& sim,
                      const fedsu::fl::RoundRecord& record);

 private:
  double round_time_sum_ = 0.0;
  long long selected_ = 0;
  long long accounted_ = 0;
};

}  // namespace steadybench
