#include "core/fedsu_manager.h"

#include <stdexcept>

#include "compress/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/reduce.h"
#include "util/thread_pool.h"

namespace fedsu::core {

FedSuManager::FedSuManager(int num_clients, FedSuOptions options)
    : state_(options), num_clients_(num_clients) {
  if (num_clients <= 0) {
    throw std::invalid_argument("FedSuManager: num_clients <= 0");
  }
}

std::string FedSuManager::name() const {
  switch (state_.options().ablation) {
    case FedSuAblation::kFixedPeriod:
      return "FedSU-v1";
    case FedSuAblation::kRandomEntry:
      return "FedSU-v2";
    case FedSuAblation::kNone:
      break;
  }
  return "FedSU";
}

void FedSuManager::initialize(std::span<const float> global_state) {
  global_.assign(global_state.begin(), global_state.end());
  const std::size_t p = global_.size();
  state_.reset(p);
  client_err_.reset(num_clients_, p);
  rejoin_stamp_.assign(static_cast<std::size_t>(num_clients_), 0);
  last_ratio_ = 0.0;
}

void FedSuManager::on_client_join(int client_id) {
  if (client_id != num_clients_) {
    throw std::invalid_argument("FedSuManager: client ids must be contiguous");
  }
  ++num_clients_;
  // The joiner downloads the masks/periods/slopes (join_state_bytes()) and
  // starts with a clean local error accumulator (no slab until it accrues).
  client_err_.add_client();
  rejoin_stamp_.push_back(0);
}

std::size_t FedSuManager::on_client_rejoin(int client_id) {
  if (client_id < 0 || client_id >= num_clients_) {
    throw std::out_of_range("FedSuManager: rejoining client id out of range");
  }
  // Rejoin-stamp reset reclaims the slab outright: the accumulator is
  // semantically all-zero, and reading an absent slab yields exact zeros.
  client_err_.release(client_id);
  rejoin_stamp_[static_cast<std::size_t>(client_id)] = state_.rounds_seen();
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::global().counter("core.fedsu.rejoins").add(1);
  }
  // The forced re-download is the same payload a fresh joiner pulls.
  return join_state_bytes();
}

compress::SyncResult FedSuManager::synchronize(
    const compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  OBS_SPAN("core.fedsu.sync");
  const std::size_t p = global_.size();
  const std::size_t n = client_states.size();
  if (n != ctx.participants.size() || n == 0) {
    throw std::invalid_argument("FedSuManager: participants/state mismatch");
  }
  for (const auto& s : client_states) {
    if (s.size() != p) {
      throw std::invalid_argument("FedSuManager: state size mismatch");
    }
  }
  for (int id : ctx.participants) {
    if (id < 0 || id >= num_clients_) {
      throw std::out_of_range("FedSuManager: participant id out of range");
    }
  }
  // Buffered-async callers stamp each participant with the model version it
  // was dispatched at (DESIGN.md §11). The synchronous path leaves the
  // vector empty, and every versioned code path below degenerates to the
  // historical behaviour bit-for-bit in that case.
  const bool versioned = !ctx.dispatch_rounds.empty();
  if (versioned && ctx.dispatch_rounds.size() != n) {
    throw std::invalid_argument("FedSuManager: dispatch_rounds size mismatch");
  }

  std::vector<float> new_global = global_;
  const double inv_n = 1.0 / static_cast<double>(n);
  const bool feedback = state_.error_feedback();
  diag_ = RoundDiagnostics{};

  // Client 0's wire upload: unpredictable values (speculate pass) followed
  // by expiring error scalars (feedback pass). The byte accounting below is
  // measure_dense over those counts; the payload itself is only
  // materialized under payload audit to cross-check the measured size.
  const bool audit = compress::wire::payload_audit();
  std::vector<float> up_payload;

  // Speculate: synchronize unpredictable parameters; speculatively update
  // the predictable ones and accumulate prediction errors. The aggregation
  // and the error scatter are chunked over the global pool with fixed
  // shapes (util/reduce.h block tree; one scatter task per participant), so
  // the bits are identical for every --threads value (§5b).
  util::ThreadPool* pool = &util::ThreadPool::global();
  std::vector<std::size_t> expiring;  // ascending j, filled as periods lapse
  {
  OBS_SPAN("core.fedsu.speculate");
  // Positional sums of every column in the fixed block shape. For cohorts
  // up to util::kReduceClientBlock this is the historical per-column serial
  // chain bit-for-bit; beyond it the deterministic two-level tree applies
  // (documented §5b extension). Predictable columns are summed too — the
  // row-major traversal vectorizes, and it keeps the reduction shape a
  // function of (n, p) alone.
  std::vector<double> column_sums(p, 0.0);
  util::column_sums(client_states, column_sums, pool);
  diag_.unpredictable =
      state_.speculate(global_, new_global, expiring, [&](std::size_t j) {
        if (audit) up_payload.push_back(client_states[0][j]);
        new_global[j] = static_cast<float>(column_sums[j] * inv_n);
      });
  // Each participating client logs its local prediction error
  // e = (local update) - slope = x_local - x_spec, where x_spec is the
  // speculative new_global written above. A stale participant whose model
  // version predates this parameter's speculation phase never observed the
  // phase's trajectory, so its error term is meaningless for Eq. 3 — the
  // version fence keeps it out of the accumulator, the same invariant the
  // rejoin stamps enforce for crash churn, keyed by dispatch version
  // instead of rejoin round. Participants are distinct clients, so each
  // scatter task owns its slab exclusively; a slab materializes on the
  // first nonzero delta (absent == exact zeros, core/error_store.h). The
  // fixed-period ablations have no error feedback and skip this entirely.
  if (feedback && diag_.unpredictable < p) {
    const std::vector<std::uint8_t>& predictable = state_.mask();
    const std::vector<std::int32_t>& phase_start = state_.phase_starts();
    auto scatter = [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        const int client = ctx.participants[i];
        const std::span<const float>& local = client_states[i];
        float* slab = client_err_.slab(client);
        for (std::size_t j = 0; j < p; ++j) {
          if (!predictable[j]) continue;
          if (versioned && ctx.dispatch_rounds[i] < phase_start[j]) continue;
          const float delta = local[j] - new_global[j];
          if (slab == nullptr) {
            if (delta == 0.0f) continue;  // dense would add +/-0 to 0: 0
            slab = client_err_.ensure(client);
          }
          slab[j] += delta;
        }
      }
    };
    if (pool->worth_parallelizing() && n > 1) {
      pool->parallel_for(0, n, scatter);
    } else {
      scatter(0, n);
    }
  }
  }  // OBS_SPAN core.fedsu.speculate

  // Feedback for parameters whose no-checking period expired. Stage 2a
  // computes every expiring parameter's aggregate concurrently (disjoint
  // outputs per expiring index); stage 2b applies the verdicts serially in
  // ascending parameter order, so payload layout, event order and
  // diagnostics are exactly the historical ones.
  {
  OBS_SPAN("core.fedsu.feedback");
  if (!feedback) {
    // Fixed-period ablations: released without correction, no traffic.
    for (const std::size_t j : expiring) {
      state_.release(j);
      ++diag_.demotions;
      emit(SpecEvent{ctx.round, j, /*start=*/false});
    }
  } else {
    diag_.expiring = expiring.size();
    // Stage 2a: filtered sums. Aggregate only accumulators that cover the
    // whole speculation phase: a client that rejoined after the phase
    // started (rejoin stamp > phase start) missed earlier error terms, and
    // Eq. 3 sums from the phase start. Without churn every participant is
    // valid and the mean is bit-identical to the unfiltered one. The
    // filtered column is folded with the same fixed block shape as every
    // other aggregation (util::blocked_sum), keeping the centralized and
    // distributed decompositions bit-identical at any cohort size.
    const std::vector<std::int32_t>& phase_start = state_.phase_starts();
    std::vector<double> err_sums(expiring.size(), 0.0);
    std::vector<std::size_t> err_valid(expiring.size(), 0);
    if (!expiring.empty()) {
      auto reduce_errors = [&](std::size_t k0, std::size_t k1) {
        std::vector<float> column;
        column.reserve(n);
        for (std::size_t k = k0; k < k1; ++k) {
          const std::size_t j = expiring[k];
          column.clear();
          for (std::size_t i = 0; i < n; ++i) {
            const auto id = static_cast<std::size_t>(ctx.participants[i]);
            if (rejoin_stamp_[id] > phase_start[j]) continue;
            column.push_back(client_err_.value(ctx.participants[i], j));
          }
          err_sums[k] = util::blocked_sum(column);
          err_valid[k] = column.size();
        }
      };
      if (pool->worth_parallelizing() && expiring.size() > 1) {
        pool->parallel_for(0, expiring.size(), reduce_errors);
      } else {
        reduce_errors(0, expiring.size());
      }
    }
    // Stage 2b: verdicts, in ascending parameter order.
    for (std::size_t k = 0; k < expiring.size(); ++k) {
      const std::size_t j = expiring[k];
      // The client uploads its accumulated local error for this parameter.
      if (audit) {
        up_payload.push_back(client_err_.value(ctx.participants[0], j));
      }
      if (err_valid[k] == 0) {
        // Every participant's view of this phase is partial (all rejoined
        // mid-phase).
        state_.rearm(j);
        continue;
      }
      // The aggregate crosses the wire as float32 (matching the distributed
      // decomposition in core/distributed.h bit-for-bit).
      const float mean_err = static_cast<float>(
          err_sums[k] * (1.0 / static_cast<double>(err_valid[k])));
      if (state_.judge(j, mean_err, new_global[j])) {
        client_err_.clear_param(j);
        ++diag_.demotions;
        emit(SpecEvent{ctx.round, j, /*start=*/false});
      }
    }
  }
  }  // OBS_SPAN core.fedsu.feedback

  // Diagnosis of the parameters synchronized normally this round, possibly
  // promoting them into speculative mode.
  {
  OBS_SPAN("core.fedsu.diagnosis");
  state_.diagnose(global_, new_global, [&](std::size_t j) {
    if (feedback) client_err_.clear_param(j);
    ++diag_.promotions;
    emit(SpecEvent{ctx.round, j, /*start=*/true});
  });
  }  // OBS_SPAN core.fedsu.diagnosis

  global_ = new_global;

  compress::SyncResult result;
  result.new_global = std::move(new_global);
  // Wire accounting: unpredictable values travel both ways; expiring
  // parameters add one error scalar per direction (upload local error,
  // download the aggregated verdict/correction). Masks and periods are
  // derived locally on every client and cost nothing (§V).
  const std::size_t per_client_scalars = diag_.unpredictable + diag_.expiring;
  // One f32 per unpredictable value plus one per expiring error scalar,
  // sized without encoding (DESIGN.md §15).
  const std::size_t bytes = compress::wire::measure_dense(per_client_scalars);
  if (audit) {
    compress::wire::audit_bytes(
        "fedsu up", bytes, compress::wire::encode_dense(up_payload).size());
  }
  result.bytes_up.assign(n, bytes);
  result.bytes_down.assign(n, bytes);
  result.scalars_up = per_client_scalars * n;
  result.scalars_down = per_client_scalars * n;
  last_ratio_ = p == 0 ? 0.0
                       : 1.0 - static_cast<double>(per_client_scalars) /
                                   static_cast<double>(p);
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("core.fedsu.promotions").add(diag_.promotions);
    reg.counter("core.fedsu.demotions").add(diag_.demotions);
    reg.gauge("core.fedsu.predictable_fraction").set(predictable_fraction());
    compress::wire::record_round_bytes("fedsu", bytes * n, bytes * n);
  }
  return result;
}

std::size_t FedSuManager::join_state_bytes() const {
  return state_.join_bytes();
}

std::size_t FedSuManager::state_bytes() const {
  // Extra resident memory FedSU adds on a device. Excluded: `global_` (the
  // client's own model copy, present with or without FedSU) and the churn
  // reconciliation stamps (server-side bookkeeping, not device-resident) —
  // keeping the Table II accounting identical with the fault layer off.
  // With error feedback a device also stores its own error accumulator
  // (dense — the device always observes its own errors; sparsity is a
  // server-side phenomenon driven by never-selected and churned clients).
  return state_.state_bytes() +
         (state_.error_feedback() ? global_.size() * sizeof(float) : 0);
}

namespace {
// 0xFED50002 added the churn-reconciliation bookkeeping (phase start
// rounds + rejoin stamps). 0xFED50003 switched the per-client error
// matrix to the sparse slab encoding (core/error_store.h): only allocated
// slabs are written, as (client id, slab) pairs. 0xFED50004 moved the
// per-parameter state into one FedSuState block (ablation tag first,
// random-entry RNG words last). Older snapshots are not readable.
constexpr std::uint32_t kFedSuSnapshotMagic = 0xFED50004;
}  // namespace

std::vector<std::uint8_t> FedSuManager::snapshot() const {
  io::BinaryWriter writer;
  writer.write_magic(kFedSuSnapshotMagic);
  writer.write_i32(num_clients_);
  writer.write_f64(last_ratio_);
  writer.write_vector(global_);
  state_.serialize(writer);
  writer.write_vector(rejoin_stamp_);
  client_err_.serialize(writer);
  return writer.take();
}

void FedSuManager::restore(const std::vector<std::uint8_t>& bytes) {
  io::BinaryReader reader(bytes);
  reader.expect_magic(kFedSuSnapshotMagic, "FedSuManager snapshot");
  num_clients_ = reader.read_i32();
  last_ratio_ = reader.read_f64();
  global_ = reader.read_vector<float>();
  state_.deserialize(reader);
  rejoin_stamp_ = reader.read_vector<std::int32_t>();
  const std::size_t p = global_.size();
  client_err_.deserialize(reader, num_clients_, p);
  if (state_.size() != p ||
      rejoin_stamp_.size() != static_cast<std::size_t>(num_clients_)) {
    throw std::runtime_error("FedSuManager: inconsistent snapshot");
  }
}

}  // namespace fedsu::core
