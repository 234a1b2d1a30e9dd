// Equivalence of the distributed Algorithm 1 decomposition (per-client
// FedSuClientManager + FedSuServer) with the centralized FedSuManager, plus
// unit behaviour of payload shaping and divergence detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/distributed.h"
#include "core/fedsu_manager.h"
#include "util/rng.h"

namespace fedsu::core {
namespace {

FedSuOptions test_options() {
  FedSuOptions options;
  options.warmup = 3;
  options.t_r = 0.05;
  options.t_s = 2.0;
  options.initial_no_check = 2;
  return options;
}

TEST(FedSuServer, PositionalAveraging) {
  FedSuServer server;
  FedSuUpload a, b;
  a.unpredictable_values = {1.0f, 3.0f};
  b.unpredictable_values = {3.0f, 5.0f};
  a.expiring_errors = {0.2f};
  b.expiring_errors = {0.4f};
  const FedSuDownload down = server.aggregate({a, b});
  EXPECT_FLOAT_EQ(down.aggregated_values[0], 2.0f);
  EXPECT_FLOAT_EQ(down.aggregated_values[1], 4.0f);
  EXPECT_NEAR(down.aggregated_errors[0], 0.3f, 1e-7);
}

TEST(FedSuServer, RejectsDivergedMasks) {
  FedSuServer server;
  FedSuUpload a, b;
  a.unpredictable_values = {1.0f, 2.0f};
  b.unpredictable_values = {1.0f};  // a client with a different mask
  EXPECT_THROW(server.aggregate({a, b}), std::invalid_argument);
  EXPECT_THROW(server.aggregate({}), std::invalid_argument);
}

TEST(FedSuClientManager, SyncHandshakeEnforced) {
  FedSuClientManager manager(2, test_options());
  std::vector<float> state{0.1f, 0.2f};
  manager.initialize(std::vector<float>{0.0f, 0.0f});
  (void)manager.begin_sync(state);
  EXPECT_THROW(manager.begin_sync(state), std::logic_error);
  FedSuDownload down;
  down.aggregated_values = {0.1f, 0.2f};
  (void)manager.finish_sync(down);
  EXPECT_THROW(manager.finish_sync(down), std::logic_error);
}

TEST(FedSuClientManager, UploadShapeTracksMask) {
  FedSuClientManager manager(3, test_options());
  manager.initialize(std::vector<float>{0.0f, 0.0f, 0.0f});
  std::vector<float> state{0.1f, 0.2f, 0.3f};
  const FedSuUpload upload = manager.begin_sync(state);
  // No parameters predictable yet: full upload, no errors.
  EXPECT_EQ(upload.unpredictable_values.size(), 3u);
  EXPECT_TRUE(upload.expiring_errors.empty());
  EXPECT_EQ(upload.wire_bytes(), 12u);
}

TEST(FedSuClientManager, RejectsMismatchedDownload) {
  FedSuClientManager manager(2, test_options());
  manager.initialize(std::vector<float>{0.0f, 0.0f});
  std::vector<float> state{0.1f, 0.2f};
  (void)manager.begin_sync(state);
  FedSuDownload down;
  down.aggregated_values = {0.1f};  // too short
  EXPECT_THROW(manager.finish_sync(down), std::invalid_argument);
}

// The heart of §V: N client managers + positional server == centralized
// manager, bit for bit, under full participation. Reports the centralized
// manager's final and peak predictable fractions.
void run_against_centralized(const FedSuOptions& options, double& fraction,
                             double& peak) {
  const std::size_t p = 12;
  const int clients = 3;

  FedSuManager centralized(clients, options);
  std::vector<float> global(p, 0.0f);
  centralized.initialize(global);

  FedSuServer server;
  std::vector<FedSuClientManager> managers;
  for (int i = 0; i < clients; ++i) {
    managers.emplace_back(p, options);
    managers.back().initialize(global);
  }

  util::Rng rng(33);
  std::vector<float> central_state = global;
  // Mixed per-parameter behaviours: linear, stagnating, random, and a
  // regime switch halfway.
  for (int round = 0; round < 50; ++round) {
    std::vector<std::vector<float>> locals(clients);
    for (int i = 0; i < clients; ++i) {
      locals[i].resize(p);
      for (std::size_t j = 0; j < p; ++j) {
        float drift;
        switch (j % 4) {
          case 0:
            drift = 0.125f;
            break;
          case 1:
            drift = 0.0f;
            break;
          case 2:
            drift = static_cast<float>(0.2 * rng.normal());
            break;
          default:
            drift = (round < 25) ? 0.0625f : -0.0625f;
            break;
        }
        // Same local value for all clients relative to the shared global:
        // client-level noise identical across managers vs centralized run.
        locals[i][j] = central_state[j] + drift +
                       static_cast<float>(0.01 * ((i + 1) % clients));
      }
    }

    // Centralized step.
    compress::RoundContext ctx;
    ctx.round = round;
    std::vector<std::span<const float>> views;
    for (int i = 0; i < clients; ++i) {
      ctx.participants.push_back(i);
      views.emplace_back(locals[static_cast<std::size_t>(i)]);
    }
    const auto central_result = centralized.synchronize(ctx, views);

    // Distributed step.
    std::vector<FedSuUpload> uploads;
    for (int i = 0; i < clients; ++i) {
      uploads.push_back(
          managers[static_cast<std::size_t>(i)].begin_sync(
              locals[static_cast<std::size_t>(i)]));
    }
    // All clients must have produced identically-shaped payloads and the
    // centralized byte accounting must match the distributed wire size.
    ASSERT_EQ(uploads[0].wire_bytes(), central_result.bytes_up[0])
        << "round " << round;
    const FedSuDownload download = server.aggregate(uploads);
    std::vector<std::vector<float>> next_states;
    for (int i = 0; i < clients; ++i) {
      next_states.push_back(
          managers[static_cast<std::size_t>(i)].finish_sync(download));
    }

    // Every client computed the same next state, equal to the centralized
    // one; masks agree too.
    for (int i = 0; i < clients; ++i) {
      ASSERT_EQ(next_states[static_cast<std::size_t>(i)],
                central_result.new_global)
          << "client " << i << " round " << round;
      ASSERT_EQ(managers[static_cast<std::size_t>(i)].predictable_mask(),
                centralized.predictable_mask())
          << "client " << i << " round " << round;
    }
    central_state = central_result.new_global;
    peak = std::max(peak, centralized.predictable_fraction());
  }
  fraction = centralized.predictable_fraction();
}

TEST(Distributed, MatchesCentralizedBitForBit) {
  double fraction = 0.0, peak = 0.0;
  run_against_centralized(test_options(), fraction, peak);
  // The run must have actually exercised speculation.
  EXPECT_GT(fraction, 0.2);
}

// The Fig. 8 ablations run the same state machine on both sides.
TEST(Distributed, AblationsMatchCentralizedBitForBit) {
  FedSuOptions v1 = test_options();
  v1.ablation = FedSuAblation::kFixedPeriod;
  v1.initial_no_check = 4;
  double fraction = 0.0, peak = 0.0;
  run_against_centralized(v1, fraction, peak);
  EXPECT_GT(peak, fraction);  // promoted, then released
  peak = 0.0;
  FedSuOptions v2 = test_options();
  v2.ablation = FedSuAblation::kRandomEntry;
  v2.enter_probability = 0.2;
  run_against_centralized(v2, fraction, peak);
  EXPECT_GT(peak, 0.0);
}

TEST(Distributed, SpeculationReducesWireBytes) {
  const std::size_t p = 10;
  const FedSuOptions options = test_options();
  FedSuServer server;
  FedSuClientManager manager(p, options);
  manager.initialize(std::vector<float>(p, 0.0f));
  std::vector<float> state(p, 0.0f);
  std::size_t first_bytes = 0, last_bytes = 0;
  for (int round = 0; round < 30; ++round) {
    for (auto& v : state) v += 0.125f;  // perfectly linear everywhere
    const FedSuUpload upload = manager.begin_sync(state);
    if (round == 0) first_bytes = upload.wire_bytes();
    last_bytes = upload.wire_bytes();
    const FedSuDownload download = server.aggregate({upload});
    state = manager.finish_sync(download);
  }
  EXPECT_EQ(first_bytes, p * sizeof(float));
  EXPECT_LT(last_bytes, first_bytes / 2);
}

}  // namespace
}  // namespace fedsu::core
