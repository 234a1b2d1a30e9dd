#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/fedsu_manager.h"
#include "util/rng.h"

namespace fedsu::core {
namespace {

using compress::RoundContext;
using compress::SyncResult;

std::vector<std::span<const float>> views(
    const std::vector<std::vector<float>>& states) {
  std::vector<std::span<const float>> v;
  v.reserve(states.size());
  for (const auto& s : states) v.emplace_back(s);
  return v;
}

RoundContext ctx_of(int round, int n) {
  RoundContext ctx;
  ctx.round = round;
  for (int i = 0; i < n; ++i) ctx.participants.push_back(i);
  return ctx;
}

// Drives a protocol with synthetic client behaviour: each round, client i's
// local state is global + true_slope + per-client zero-mean noise.
class TrajectoryDriver {
 public:
  TrajectoryDriver(compress::SyncProtocol& proto, std::vector<float> global,
                   int num_clients, double noise = 0.0,
                   std::uint64_t seed = 19)
      : proto_(proto),
        global_(std::move(global)),
        num_clients_(num_clients),
        noise_(noise),
        rng_(seed) {
    proto_.initialize(global_);
  }

  // Runs one round with the given per-parameter true slopes.
  SyncResult step(const std::vector<float>& slopes) {
    std::vector<std::vector<float>> states(
        static_cast<std::size_t>(num_clients_));
    for (int i = 0; i < num_clients_; ++i) {
      auto& s = states[static_cast<std::size_t>(i)];
      s.resize(global_.size());
      for (std::size_t j = 0; j < global_.size(); ++j) {
        // Noise is zero-mean ACROSS clients so the global mean follows the
        // slope exactly when noise_ == 0 and approximately otherwise.
        s[j] = global_[j] + slopes[j] +
               static_cast<float>(noise_ * rng_.normal());
      }
    }
    SyncResult result = proto_.synchronize(ctx_of(round_++, num_clients_),
                                           views(states));
    global_ = result.new_global;
    return result;
  }

  const std::vector<float>& global() const { return global_; }
  int round() const { return round_; }

 private:
  compress::SyncProtocol& proto_;
  std::vector<float> global_;
  int num_clients_;
  double noise_;
  util::Rng rng_;
  int round_ = 0;
};

FedSuOptions fast_options() {
  FedSuOptions options;
  options.warmup = 3;
  return options;
}

TEST(FedSuManager, LinearParameterBecomesPredictable) {
  FedSuManager manager(2, fast_options());
  TrajectoryDriver driver(manager, {0.0f, 0.0f}, 2);
  const std::vector<float> slopes{0.125f, 0.125f};
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  EXPECT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);
}

TEST(FedSuManager, SpeculativeRoundsShipNoModelBytes) {
  FedSuManager manager(2, fast_options());
  TrajectoryDriver driver(manager, {0.0f}, 2);
  const std::vector<float> slopes{0.25f};
  // Warm up into speculation.
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  ASSERT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);
  // The very next round is inside the no-checking period... but with
  // initial period 1 it expires immediately, costing 1 error scalar. Track
  // a few rounds: bytes must be far below full sync (4 bytes/param/round).
  std::size_t total_up = 0;
  const int horizon = 10;
  for (int r = 0; r < horizon; ++r) total_up += driver.step(slopes).bytes_up[0];
  EXPECT_LT(total_up, static_cast<std::size_t>(horizon) * 4);
}

TEST(FedSuManager, SpeculativeValueFollowsSlope) {
  FedSuManager manager(1, fast_options());
  TrajectoryDriver driver(manager, {1.0f}, 1);
  const std::vector<float> slopes{0.5f};
  float before = 0.0f, after = 0.0f;
  for (int r = 0; r < 8; ++r) {
    before = driver.global()[0];
    driver.step(slopes);
    after = driver.global()[0];
  }
  ASSERT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);
  EXPECT_NEAR(after - before, 0.5f, 1e-5);
}

TEST(FedSuManager, NoCheckPeriodGrowsWhilePatternHolds) {
  FedSuManager manager(1, fast_options());
  TrajectoryDriver driver(manager, {0.0f}, 1);
  const std::vector<float> slopes{0.125f};
  // Run long enough for several successful checks; count rounds that carry
  // error traffic. Periods 1, 2, 3, ... mean check rounds thin out over
  // time: across R rounds, roughly sqrt(2R) checks.
  int check_rounds = 0;
  int spec_rounds = 0;
  for (int r = 0; r < 40; ++r) {
    const auto result = driver.step(slopes);
    if (manager.predictable_fraction() == 1.0) {
      ++spec_rounds;
      if (result.bytes_up[0] > 0) ++check_rounds;
    }
  }
  EXPECT_GT(spec_rounds, 30);
  EXPECT_LT(check_rounds, 12);
  EXPECT_GT(check_rounds, 2);
}

TEST(FedSuManager, BrokenPatternDemotesAndCorrects) {
  FedSuOptions options = fast_options();
  options.t_s = 1.0;
  FedSuManager manager(1, options);
  TrajectoryDriver driver(manager, {0.0f}, 1);
  std::vector<float> slopes{0.125f};
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  ASSERT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);

  bool demoted = false;
  std::vector<SpecEvent> events;
  manager.set_event_hook([&](const SpecEvent& e) { events.push_back(e); });
  // Reverse the trajectory: prediction error per round = -0.4; S after one
  // round = 0.4/0.1 = 4 > T_S at the next check.
  slopes[0] = -0.375f;
  for (int r = 0; r < 6 && !demoted; ++r) {
    driver.step(slopes);
    demoted = manager.predictable_fraction() == 0.0;
  }
  EXPECT_TRUE(demoted);
  ASSERT_FALSE(events.empty());
  EXPECT_FALSE(events.back().start);
  // Correction: after demotion the global must track the true trajectory
  // again within a couple of synced rounds.
  driver.step(slopes);
  const float global_now = driver.global()[0];
  driver.step(slopes);
  EXPECT_NEAR(driver.global()[0] - global_now, -0.375f, 1e-4);
}

TEST(FedSuManager, ByteAccountingMatchesUnpredictableCount) {
  FedSuManager manager(3, fast_options());
  // Two params: one will go linear, one random.
  util::Rng rng(5);
  TrajectoryDriver driver(manager, {0.0f, 0.0f}, 3);
  for (int r = 0; r < 6; ++r) {
    driver.step({0.125f, static_cast<float>(rng.normal())});
  }
  // Param 0 predictable, param 1 not.
  EXPECT_DOUBLE_EQ(manager.predictable_fraction(), 0.5);
  const auto result = driver.step({0.125f, static_cast<float>(rng.normal())});
  // Upload = 1 unpredictable scalar (+1 if the error check expired).
  EXPECT_GE(result.bytes_up[0], 4u);
  EXPECT_LE(result.bytes_up[0], 8u);
  EXPECT_EQ(result.bytes_up.size(), 3u);
  EXPECT_GT(result.scalars_up, 0u);
}

TEST(FedSuManager, SparsificationRatioReflectsMask) {
  FedSuManager manager(1, fast_options());
  std::vector<float> global(10, 0.0f);
  TrajectoryDriver driver(manager, global, 1);
  std::vector<float> slopes(10, 0.0625f);
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  ASSERT_DOUBLE_EQ(manager.predictable_fraction(), 1.0);
  double max_ratio = 0.0;
  for (int r = 0; r < 6; ++r) {
    driver.step(slopes);
    max_ratio = std::max(max_ratio, manager.last_sparsification_ratio());
  }
  EXPECT_GT(max_ratio, 0.85);
}

TEST(FedSuManager, ReplicasStayIdentical) {
  // The correctness precondition of client-side mask maintenance (§V):
  // two managers fed identical global inputs produce identical masks.
  FedSuManager a(2, fast_options());
  FedSuManager b(2, fast_options());
  util::Rng rng(17);
  TrajectoryDriver da(a, {0.0f, 0.0f, 0.0f}, 2, 0.0, 19);
  TrajectoryDriver db(b, {0.0f, 0.0f, 0.0f}, 2, 0.0, 19);
  for (int r = 0; r < 25; ++r) {
    const float wander = static_cast<float>(rng.normal());
    const std::vector<float> slopes{0.125f, wander, (r < 12) ? 0.25f : -0.25f};
    da.step(slopes);
    db.step(slopes);
    ASSERT_EQ(a.predictable_mask(), b.predictable_mask()) << "round " << r;
    ASSERT_EQ(da.global(), db.global()) << "round " << r;
  }
}

TEST(FedSuManager, ClientJoinExtendsAccumulators) {
  FedSuManager manager(2, fast_options());
  std::vector<float> global{0.0f};
  manager.initialize(global);
  EXPECT_THROW(manager.on_client_join(5), std::invalid_argument);
  manager.on_client_join(2);
  // A round with the new client participating must be accepted.
  std::vector<std::vector<float>> states{{0.1f}, {0.1f}, {0.1f}};
  RoundContext ctx;
  ctx.round = 0;
  ctx.participants = {0, 1, 2};
  EXPECT_NO_THROW(manager.synchronize(ctx, views(states)));
}

TEST(FedSuManager, JoinStateBytesCoverMaskAndPeriods) {
  FedSuManager manager(2, fast_options());
  std::vector<float> global(100, 0.0f);
  manager.initialize(global);
  // 100 params: mask ~13 bytes, periods 400, slopes 400.
  EXPECT_GT(manager.join_state_bytes(), 800u);
  EXPECT_LT(manager.join_state_bytes(), 1000u);
}

TEST(FedSuManager, StateBytesScaleLinearly) {
  FedSuManager small(2, fast_options());
  FedSuManager large(2, fast_options());
  std::vector<float> g_small(10, 0.0f), g_large(1000, 0.0f);
  small.initialize(g_small);
  large.initialize(g_large);
  EXPECT_NEAR(static_cast<double>(large.state_bytes()) / small.state_bytes(),
              100.0, 5.0);
}

TEST(FedSuManager, RejectsBadInputs) {
  EXPECT_THROW(FedSuManager(0), std::invalid_argument);
  FedSuOptions bad;
  bad.t_r = 0.0;
  EXPECT_THROW(FedSuManager(1, bad), std::invalid_argument);
  FedSuManager manager(2, fast_options());
  std::vector<float> global{0.0f};
  manager.initialize(global);
  std::vector<std::vector<float>> states{{0.1f, 0.2f}};  // wrong width
  RoundContext ctx = ctx_of(0, 1);
  EXPECT_THROW(manager.synchronize(ctx, views(states)), std::invalid_argument);
  RoundContext bad_ctx = ctx_of(0, 2);
  std::vector<std::vector<float>> one{{0.1f}};
  EXPECT_THROW(manager.synchronize(bad_ctx, views(one)), std::invalid_argument);
  RoundContext oob = ctx_of(0, 1);
  oob.participants[0] = 7;
  EXPECT_THROW(manager.synchronize(oob, views(one)), std::out_of_range);
}

TEST(FedSuManager, EventHookSeesStartAndEnd) {
  FedSuManager manager(1, fast_options());
  std::vector<SpecEvent> events;
  manager.set_event_hook([&](const SpecEvent& e) { events.push_back(e); });
  TrajectoryDriver driver(manager, {0.0f}, 1);
  for (int r = 0; r < 6; ++r) driver.step({0.125f});
  for (int r = 0; r < 6; ++r) driver.step({-0.5f});
  ASSERT_GE(events.size(), 2u);
  EXPECT_TRUE(events.front().start);
  bool saw_end = false;
  for (const auto& e : events) saw_end |= !e.start;
  EXPECT_TRUE(saw_end);
}

TEST(FedSuManager, LinearRoundsCounterTracksSpeculation) {
  FedSuManager manager(1, fast_options());
  TrajectoryDriver driver(manager, {0.0f, 0.0f}, 1);
  util::Rng rng(23);
  for (int r = 0; r < 20; ++r) {
    driver.step({0.125f, static_cast<float>(rng.normal())});
  }
  EXPECT_GT(manager.linear_rounds()[0], 8);
  // A random walk can dip under T_R by chance for a round or two before the
  // error feedback ejects it; it must stay far below the linear parameter.
  EXPECT_LE(manager.linear_rounds()[1], 3);
  EXPECT_EQ(manager.rounds_seen(), 20);
}

// FedSU-v1: diagnosis without error feedback, fixed speculation period.
FedSuOptions v1_options(int fixed_period) {
  FedSuOptions options;
  options.ablation = FedSuAblation::kFixedPeriod;
  options.ema_decay = 0.98;
  options.initial_no_check = fixed_period;
  return options;
}

// FedSU-v2: random entry, fixed speculation period.
FedSuOptions v2_options(double enter_probability, int fixed_period) {
  FedSuOptions options;
  options.ablation = FedSuAblation::kRandomEntry;
  options.enter_probability = enter_probability;
  options.initial_no_check = fixed_period;
  return options;
}

TEST(FedSuV1, FixedPeriodExpiresWithoutErrorTraffic) {
  FedSuManager proto(1, v1_options(5));
  EXPECT_EQ(proto.name(), "FedSU-v1");
  TrajectoryDriver driver(proto, {0.0f}, 1);
  const std::vector<float> slopes{0.125f};
  // Promote.
  int promote_round = -1;
  for (int r = 0; r < 10 && promote_round < 0; ++r) {
    driver.step(slopes);
    if (proto.predictable_fraction() == 1.0) promote_round = r;
  }
  ASSERT_GE(promote_round, 0);
  // During speculation: exactly zero bytes (no error aggregation in v1).
  int zero_byte_rounds = 0;
  for (int r = 0; r < 5; ++r) {
    const auto result = driver.step(slopes);
    if (result.bytes_up[0] == 0) ++zero_byte_rounds;
  }
  EXPECT_GE(zero_byte_rounds, 4);  // period 5, expiry round syncs again
  // After expiry the parameter returns to regular updating, and the error
  // store was never touched.
  EXPECT_DOUBLE_EQ(proto.predictable_fraction(), 0.0);
  EXPECT_EQ(proto.error_store().allocated_slabs(), 0u);
}

TEST(FedSuV1, NoCorrectionMeansDriftWhenPatternBreaks) {
  FedSuManager proto(1, v1_options(8));
  TrajectoryDriver driver(proto, {0.0f}, 1);
  std::vector<float> slopes{0.125f};
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  ASSERT_DOUBLE_EQ(proto.predictable_fraction(), 1.0);
  // Trajectory reverses; v1 keeps applying +0.1 for the full period.
  slopes[0] = -0.125f;
  float drift_peak = 0.0f;
  float true_value = driver.global()[0];
  for (int r = 0; r < 8; ++r) {
    driver.step(slopes);
    true_value += slopes[0];
    drift_peak = std::max(drift_peak,
                          std::fabs(driver.global()[0] - true_value));
  }
  EXPECT_GT(drift_peak, 0.5f);  // ~0.2 drift per round, uncorrected
}

TEST(FedSuV2, EntryRateMatchesProbability) {
  // Period 1000: effectively never released.
  FedSuManager proto(1, v2_options(0.3, 1000));
  EXPECT_EQ(proto.name(), "FedSU-v2");
  std::vector<float> global(2000, 0.0f);
  TrajectoryDriver driver(proto, global, 1);
  std::vector<float> slopes(2000, 0.1f);
  driver.step(slopes);  // primes prev update; no entries yet
  driver.step(slopes);  // ~30% enter here
  EXPECT_NEAR(proto.predictable_fraction(), 0.3, 0.05);
}

TEST(FedSuV2, ZeroProbabilityNeverSpeculates) {
  FedSuManager proto(1, v2_options(0.0, 43));
  TrajectoryDriver driver(proto, {0.0f, 0.0f}, 1);
  for (int r = 0; r < 10; ++r) driver.step({0.1f, 0.1f});
  EXPECT_DOUBLE_EQ(proto.predictable_fraction(), 0.0);
}

TEST(FedSuVariants, RejectBadOptions) {
  EXPECT_THROW(FedSuManager(1, v1_options(0)), std::invalid_argument);
  EXPECT_THROW(FedSuManager(1, v2_options(2.0, 43)), std::invalid_argument);
  EXPECT_THROW(FedSuManager(1, v2_options(-0.1, 43)), std::invalid_argument);
}

// Characterization of the ablations: a noisy 16-parameter run long enough
// for v1 promotions and expiries and for many v2 draws. The checksum of the
// final model and the summed upload bytes were recorded from the separate
// v1/v2 classes that preceded the shared FedSuState, and must not move.
std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t k = 0; k < values.size() * sizeof(float); ++k) {
    hash ^= bytes[k];
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct AblationRun {
  std::uint64_t checksum = 0;
  std::size_t bytes_up = 0;
  double peak_fraction = 0.0;
  double final_fraction = 0.0;
};

AblationRun run_ablation(const FedSuOptions& options) {
  const std::size_t p = 16;
  FedSuManager proto(4, options);
  TrajectoryDriver driver(proto, std::vector<float>(p, 0.0f), 4, 0.01);
  util::Rng walk(7);
  AblationRun run;
  for (int round = 0; round < 48; ++round) {
    std::vector<float> slopes(p);
    for (std::size_t j = 0; j < p; ++j) {
      switch (j % 4) {
        case 0:
          slopes[j] = 0.125f;
          break;
        case 1:
          slopes[j] = 0.0f;
          break;
        case 2:
          slopes[j] = static_cast<float>(0.2 * walk.normal());
          break;
        default:
          slopes[j] = round < 24 ? 0.0625f : -0.0625f;
          break;
      }
    }
    for (std::size_t bytes : driver.step(slopes).bytes_up) {
      run.bytes_up += bytes;
    }
    run.peak_fraction =
        std::max(run.peak_fraction, proto.predictable_fraction());
  }
  run.checksum = fnv1a(driver.global());
  run.final_fraction = proto.predictable_fraction();
  return run;
}

TEST(FedSuVariants, AblationBitsArePinned) {
  FedSuOptions v1 = v1_options(5);
  v1.t_r = 0.05;
  const AblationRun a = run_ablation(v1);
  EXPECT_GT(a.peak_fraction, a.final_fraction);  // promoted, then expired
  EXPECT_EQ(a.checksum, 0xd70ddbe438a3ceceULL);
  EXPECT_EQ(a.bytes_up, 8368u);

  const AblationRun b = run_ablation(v2_options(0.2, 3));
  EXPECT_GT(b.peak_fraction, 0.0);
  EXPECT_EQ(b.checksum, 0x57e7bcd416b3e2baULL);
  EXPECT_EQ(b.bytes_up, 7856u);
}

// Property sweep over T_S: tighter thresholds demote earlier (or equally)
// when the pattern breaks.
class FedSuTsSweep : public ::testing::TestWithParam<double> {};

TEST_P(FedSuTsSweep, TighterThresholdDemotesSooner) {
  FedSuOptions options = fast_options();
  options.t_s = GetParam();
  FedSuManager manager(1, options);
  TrajectoryDriver driver(manager, {0.0f}, 1);
  std::vector<float> slopes{0.125f};
  for (int r = 0; r < 6; ++r) driver.step(slopes);
  if (manager.predictable_fraction() < 1.0) GTEST_SKIP();
  slopes[0] = 0.0f;  // pattern becomes stagnation: error 0.1/round
  int rounds_to_demote = 0;
  for (int r = 0; r < 60 && manager.predictable_fraction() > 0.0; ++r) {
    driver.step(slopes);
    ++rounds_to_demote;
  }
  if (GetParam() <= 1.0) {
    EXPECT_LE(rounds_to_demote, 5);
  } else {
    EXPECT_GT(rounds_to_demote, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FedSuTsSweep,
                         ::testing::Values(0.1, 1.0, 10.0));

}  // namespace
}  // namespace fedsu::core
