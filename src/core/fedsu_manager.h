// FedSU — Federated Learning with Speculative Updating (paper Algorithm 1),
// centralized-simulation form: one object sees every participant's state.
//
// Per round the manager partitions the model's scalars into:
//   * unpredictable parameters: synchronized normally (mean of client
//     values), then diagnosed for promotion into speculative mode;
//   * predictable parameters: NOT synchronized. Every client applies the
//     speculative value x + slope and accumulates its local prediction
//     error. When a parameter's no-checking period expires, the errors are
//     aggregated and the feedback signal S (Eq. 3) extends the period or
//     ends speculation with a correction (Fig. 6's red crosses).
//
// The per-parameter state machine is core::FedSuState (core/fedsu_state.h);
// this class adds what only the server has: the sparse per-client error
// store, rejoin stamps, the async dispatch-version fence, and the blocked
// parallel aggregation. FedSuOptions::ablation turns it into the Fig. 8
// ablations FedSU-v1 / FedSU-v2, which never touch the error store.
//
// Masks and periods are derived purely from globally-identical quantities,
// so every client can maintain its own replica without extra communication
// (paper §V); a late joiner only downloads mask + periods + slopes once
// (join_state_bytes()).
#pragma once

#include <functional>
#include <string>

#include "compress/protocol.h"
#include "core/error_store.h"
#include "core/fedsu_state.h"

namespace fedsu::core {

// Emitted when a parameter enters/leaves speculative mode (Fig. 6 markers).
struct SpecEvent {
  int round = 0;
  std::size_t param = 0;
  bool start = false;  // true: speculation begins; false: it ends
};

class FedSuManager : public compress::SyncProtocol {
 public:
  // `num_clients` is the total population (error accumulators are kept per
  // client id; participants vary per round).
  FedSuManager(int num_clients, FedSuOptions options = {});

  // "FedSU", "FedSU-v1" or "FedSU-v2" by options.ablation.
  std::string name() const override;

  void initialize(std::span<const float> global_state) override;

  void on_client_join(int client_id) override;

  // Crash/rejoin reconciliation (DESIGN.md §10): wipes the client's error
  // accumulator and stamps it so speculation phases that started while it
  // was away never read its partial sums — Eq. 3 sums from the phase start,
  // which an absent client did not observe. The rejoiner re-downloads
  // mask + periods + slopes (join_state_bytes()), so it also never applies
  // a speculative update from a stale slope.
  std::size_t on_client_rejoin(int client_id) override;

  // Accepts the optional RoundContext::dispatch_rounds version stamps from
  // buffered-async callers (DESIGN.md §11): a participant whose dispatch
  // version predates a parameter's speculation-phase start is fenced out of
  // that parameter's error accumulation — the async analogue of the rejoin
  // stamp, keyed by model version so stale feedback can't corrupt Eq. 3
  // corrections. An empty dispatch_rounds (every synchronous caller) keeps
  // the historical behaviour bit-for-bit.
  compress::SyncResult synchronize(
      const compress::RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;

  std::size_t join_state_bytes() const override;
  std::size_t state_bytes() const override;
  std::vector<std::uint8_t> snapshot() const override;
  void restore(const std::vector<std::uint8_t>& bytes) override;
  double last_sparsification_ratio() const override { return last_ratio_; }
  // Demotions are fallback syncs: speculation ended and the parameter
  // rejoined regular updating (corrected by the aggregated error under
  // FedSU, released uncorrected under the fixed-period ablations).
  Telemetry last_round_telemetry() const override {
    return {predictable_fraction(), diag_.demotions};
  }

  // Per-round accounting exposed for diagnosis and the bench harness.
  struct RoundDiagnostics {
    std::size_t unpredictable = 0;  // scalars synchronized normally
    std::size_t expiring = 0;       // error scalars aggregated this round
    std::size_t promotions = 0;
    std::size_t demotions = 0;
  };

  // --- introspection (tests, Fig. 6 / Fig. 7 benches) ---
  const RoundDiagnostics& last_round_diagnostics() const { return diag_; }
  const std::vector<std::uint8_t>& predictable_mask() const {
    return state_.mask();
  }
  double predictable_fraction() const { return state_.predictable_fraction(); }
  // Rounds each parameter spent in speculative mode so far.
  const std::vector<std::int32_t>& linear_rounds() const {
    return state_.linear_rounds();
  }
  int rounds_seen() const { return state_.rounds_seen(); }
  // The sparse per-client error-feedback store (slab residency is what
  // bench_scale contrasts with the dense num_clients x params matrix).
  const SparseErrorStore& error_store() const { return client_err_; }

  void set_event_hook(std::function<void(const SpecEvent&)> hook) {
    event_hook_ = std::move(hook);
  }

 private:
  void emit(const SpecEvent& event) {
    if (event_hook_) event_hook_(event);
  }

  FedSuState state_;
  int num_clients_;
  std::vector<float> global_;
  // Accumulated local prediction error per (client, parameter). Sparse:
  // slabs materialize on first nonzero accumulation and are released on
  // rejoin, with reads of absent slabs yielding exact 0.0f — bit-identical
  // to the dense matrix this replaced (see core/error_store.h).
  SparseErrorStore client_err_;
  // First round (rounds_seen clock) from which client i's error
  // accumulation is complete again (0 = always was; bumped by
  // on_client_rejoin). A client whose stamp is later than a parameter's
  // phase start missed part of that phase (see the feedback pass).
  std::vector<std::int32_t> rejoin_stamp_;
  RoundDiagnostics diag_;
  double last_ratio_ = 0.0;
  std::function<void(const SpecEvent&)> event_hook_;
};

}  // namespace fedsu::core
