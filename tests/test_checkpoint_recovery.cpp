// Server-crash recovery (docs/RECOVERY.md): the run-checkpoint file frame
// (magic / version / CRC-32 footer, atomic write, latest discovery), the
// corruption triad (truncation, flipped bit, wrong magic — fail loudly,
// never load partially), and the bitwise-resume contract: kill a run at
// round k, restore the checkpoint into a fresh process, and the final model
// is byte-identical to the uninterrupted run — sync and async, across
// thread counts, with churn + straggler fault plans active (§5b extended
// across a server crash).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "compress/wire.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "io/checkpoint.h"
#include "io/serialize.h"
#include "obs/health.h"

namespace fedsu::fl {
namespace {

SimulationOptions tiny_options(int threads = 1) {
  SimulationOptions options;
  options.model.arch = "mlp";
  options.model.image_size = 10;
  options.model.hidden = 16;
  options.dataset.image_size = 10;
  options.dataset.train_count = 400;
  options.dataset.test_count = 120;
  options.num_clients = 6;
  options.local.iterations = 4;
  options.local.batch_size = 8;
  options.local.learning_rate = 0.05f;
  options.eval_every = 3;
  options.threads = threads;
  return options;
}

// The churn + straggler plan the acceptance bar requires active while a
// checkpoint is taken and restored.
FaultOptions churn_and_stragglers() {
  FaultOptions faults;
  faults.crash_probability = 0.15;
  faults.crash_rounds_max = 2;
  faults.straggler_probability = 0.25;
  faults.straggler_compute_factor = 3.0;
  faults.straggler_comm_factor = 3.0;
  return faults;
}

Simulation make_sim(const SimulationOptions& options,
                    const std::string& scheme = "fedsu") {
  ProtocolConfig config;
  config.name = scheme;
  config.num_clients = options.num_clients;
  if (scheme == "fedsu-v1" || scheme == "fedsu-v2") {
    // Both ablations promote within the first rounds and release on a
    // short fixed period, so a kill at round 5 lands mid-speculation.
    config.fedsu.initial_no_check = 3;
    config.fedsu.enter_probability = 0.2;
  }
  return Simulation(options, make_protocol(config));
}

// A per-test scratch directory under the gtest temp root, emptied up front
// so reruns never see stale checkpoints.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_bitwise(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// Kill at round `kill_at`, restore through the file layer into a fresh
// simulation, finish, and compare against the uninterrupted run bitwise.
void expect_bitwise_resume(const SimulationOptions& options, int total_rounds,
                           int kill_at, const std::string& label,
                           const std::string& scheme = "fedsu") {
  Simulation reference = make_sim(options, scheme);
  for (int r = 0; r < total_rounds; ++r) reference.step();

  const std::string dir = fresh_dir("run_ckpt_" + label);
  std::string path;
  {
    Simulation first = make_sim(options, scheme);
    for (int r = 0; r < kill_at; ++r) first.step();
    path = io::save_run_checkpoint(dir, kill_at, first.snapshot_state());
  }  // the first process is dead; only the file survives

  Simulation resumed = make_sim(options, scheme);
  resumed.restore_state(io::load_run_checkpoint(path));
  EXPECT_EQ(resumed.rounds_completed(), kill_at) << label;
  for (int r = kill_at; r < total_rounds; ++r) resumed.step();

  SCOPED_TRACE(label);
  expect_bitwise(reference.global_state(), resumed.global_state());
}

// --- file frame ------------------------------------------------------------

TEST(RunCheckpointFile, RoundTripsThePayloadAndPicksTheLatest) {
  const std::string dir = fresh_dir("frame_roundtrip");
  const std::vector<std::uint8_t> payload = {0x01, 0xFE, 0x00, 0x42, 0x99};
  const std::string p2 = io::save_run_checkpoint(dir, 2, payload);
  io::save_run_checkpoint(dir, 10, payload);
  const std::string p4 = io::save_run_checkpoint(dir, 4, {0xAB});
  EXPECT_EQ(io::load_run_checkpoint(p2), payload);
  EXPECT_EQ(io::load_run_checkpoint(p4), std::vector<std::uint8_t>{0xAB});
  // Highest round wins — numerically, not lexically — and strays and tmp
  // leftovers are ignored.
  std::ofstream(dir + "/ckpt-00000099.fedsu.tmp") << "torn write";
  std::ofstream(dir + "/notes.txt") << "not a checkpoint";
  const std::string latest = io::find_latest_run_checkpoint(dir);
  EXPECT_NE(latest.find("ckpt-00000010.fedsu"), std::string::npos);
  // Missing or empty directories report "no checkpoint", not an error.
  EXPECT_EQ(io::find_latest_run_checkpoint(dir + "/nope"), "");
}

TEST(RunCheckpointRetention, PrunesOldestBeyondKeepAndKeepsAllByDefault) {
  const std::string dir = fresh_dir("retention");
  const std::vector<std::uint8_t> payload = {0x11, 0x22};
  for (const int round : {0, 3, 5, 8, 12, 20}) {
    io::save_run_checkpoint(dir, round, payload);
  }
  // keep <= 0 = keep everything (the default policy).
  EXPECT_EQ(io::prune_run_checkpoints(dir, 0), 0u);
  EXPECT_EQ(io::prune_run_checkpoints(dir, -3), 0u);

  // Non-checkpoint files never count against the budget or get removed.
  std::ofstream(dir + "/notes.txt") << "not a checkpoint";
  EXPECT_EQ(io::prune_run_checkpoints(dir, 2), 4u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/ckpt-00000012.fedsu"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/ckpt-00000020.fedsu"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt-00000008.fedsu"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
  // Already within budget: nothing to do. Latest discovery still works.
  EXPECT_EQ(io::prune_run_checkpoints(dir, 2), 0u);
  EXPECT_NE(io::find_latest_run_checkpoint(dir).find("ckpt-00000020.fedsu"),
            std::string::npos);
  // A missing directory is a no-op, not an error.
  EXPECT_EQ(io::prune_run_checkpoints(dir + "/nope", 1), 0u);
}

TEST(RunCheckpointRetention, SimulationKeepsOnlyTheNewestN) {
  const std::string dir = fresh_dir("retention_sim");
  SimulationOptions options = tiny_options();
  options.checkpoint.every = 2;
  options.checkpoint.dir = dir;
  options.checkpoint.keep = 2;
  Simulation sim = make_sim(options);
  for (int r = 1; r <= 8; ++r) sim.step();
  // Rounds 2, 4, 6, 8 were written; retention keeps only {6, 8}.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".fedsu") ++files;
  }
  EXPECT_EQ(files, 2);
  EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt-00000004.fedsu"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/ckpt-00000006.fedsu"));
  EXPECT_NE(io::find_latest_run_checkpoint(dir).find("ckpt-00000008.fedsu"),
            std::string::npos);
}

TEST(RunCheckpointFile, TruncationFailsLoudly) {
  const std::string dir = fresh_dir("frame_truncated");
  const std::vector<std::uint8_t> payload(256, 0x5A);
  const std::string path = io::save_run_checkpoint(dir, 1, payload);
  const auto full_size = std::filesystem::file_size(path);

  // Cut mid-payload: the CRC footer no longer matches the bytes on disk.
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_THROW(io::load_run_checkpoint(path), std::runtime_error);

  // Cut below the frame header: a distinct, named failure.
  std::filesystem::resize_file(path, 8);
  try {
    io::load_run_checkpoint(path);
    FAIL() << "8-byte file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(RunCheckpointFile, AFlippedBitFailsTheCrcBeforeAnyParsing) {
  const std::string dir = fresh_dir("frame_bitflip");
  const std::vector<std::uint8_t> payload(128, 0x33);
  const std::string path = io::save_run_checkpoint(dir, 1, payload);

  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(20);  // mid-payload
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(20);
  file.write(&byte, 1);
  file.close();

  try {
    io::load_run_checkpoint(path);
    FAIL() << "bit-flipped checkpoint loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(RunCheckpointFile, StreamedFrameMatchesBufferedFramingByteForByte) {
  // save_run_checkpoint streams header, payload and CRC footer to the file
  // without building the frame in memory. The file must hold exactly the
  // bytes that framing the payload in one BinaryWriter buffer gives.
  Simulation sim = make_sim(tiny_options());
  sim.step();
  const std::vector<std::uint8_t> payload = sim.snapshot_state();
  io::BinaryWriter framed;
  framed.write_magic(io::kRunCheckpointMagic);
  framed.write_u32(io::kRunCheckpointVersion);
  framed.write_vector(payload);
  framed.write_u32(compress::wire::crc32(framed.buffer()));

  // The running CRC continues a checksum across a split at any point.
  const std::span<const std::uint8_t> all(framed.buffer());
  EXPECT_EQ(compress::wire::crc32(all.subspan(7),
                                  compress::wire::crc32(all.first(7))),
            compress::wire::crc32(all));

  const std::string dir = fresh_dir("frame_streamed");
  const std::string path = io::save_run_checkpoint(dir, 1, payload);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::vector<std::uint8_t> written;
  {
    std::ifstream in(path, std::ios::binary);
    written.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(written, framed.buffer());
  EXPECT_EQ(io::load_run_checkpoint(path), payload);

  // One flipped payload bit still fails the footer.
  written[16 + payload.size() / 2] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(written.data()),
             static_cast<std::streamsize>(written.size()));
  EXPECT_THROW(io::load_run_checkpoint(path), std::runtime_error);
}

TEST(RunCheckpointFile, WrongMagicIsRejectedEvenWithAValidCrc) {
  const std::string dir = fresh_dir("frame_magic");
  std::filesystem::create_directories(dir);
  // A well-formed frame of some other format: valid CRC, wrong magic.
  io::BinaryWriter writer;
  writer.write_magic(0xC4EC'B01F);  // the legacy model-checkpoint magic
  writer.write_u32(1);
  writer.write_vector(std::vector<std::uint8_t>{1, 2, 3});
  writer.write_u32(compress::wire::crc32(writer.buffer()));
  const std::string path = dir + "/ckpt-00000001.fedsu";
  writer.save_to_file(path);

  try {
    io::load_run_checkpoint(path);
    FAIL() << "foreign frame loaded as a run checkpoint";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

// --- periodic checkpointing in the round loop ------------------------------

TEST(RunCheckpointCadence, RecordsAndFilesFollowTheCadence) {
  const std::string dir = fresh_dir("cadence");
  SimulationOptions options = tiny_options();
  options.checkpoint.every = 2;
  options.checkpoint.dir = dir;
  Simulation sim = make_sim(options);
  for (int r = 1; r <= 7; ++r) {
    const RoundRecord record = sim.step();
    if (r % 2 == 0) {
      ASSERT_TRUE(record.checkpoint) << "round " << r;
      EXPECT_TRUE(record.checkpoint->ok);
      EXPECT_EQ(record.checkpoint->round, r);
      EXPECT_GT(record.checkpoint->bytes, 0u);
      EXPECT_TRUE(std::filesystem::exists(record.checkpoint->path));
    } else {
      EXPECT_FALSE(record.checkpoint) << "round " << r;
    }
  }
  EXPECT_NE(io::find_latest_run_checkpoint(dir).find("ckpt-00000006.fedsu"),
            std::string::npos);
}

TEST(RunCheckpointCadence, CheckpointingNeverPerturbsTheRun) {
  // §5b: a checkpointing run is bitwise identical to a plain one.
  SimulationOptions plain = tiny_options();
  plain.faults = churn_and_stragglers();
  Simulation reference = make_sim(plain);
  for (int r = 0; r < 8; ++r) reference.step();

  SimulationOptions checkpointed = plain;
  checkpointed.checkpoint.every = 2;
  checkpointed.checkpoint.dir = fresh_dir("no_perturb");
  Simulation observed = make_sim(checkpointed);
  for (int r = 0; r < 8; ++r) observed.step();

  expect_bitwise(reference.global_state(), observed.global_state());
}

// --- the bitwise-resume contract -------------------------------------------

TEST(RunCheckpointResume, SyncBitwiseAcrossThreadCountsUnderFaults) {
  for (const std::string scheme : {"fedsu", "fedsu-v1", "fedsu-v2"}) {
    for (const int threads : {1, 4, 8}) {
      SimulationOptions options = tiny_options(threads);
      options.faults = churn_and_stragglers();
      expect_bitwise_resume(options, 10, 5,
                            scheme + "_sync_t" + std::to_string(threads),
                            scheme);
    }
  }
}

TEST(RunCheckpointResume, AsyncBitwiseAcrossThreadCountsUnderFaults) {
  for (const int threads : {1, 4, 8}) {
    SimulationOptions options = tiny_options(threads);
    options.faults = churn_and_stragglers();
    options.async.enabled = true;
    options.async.buffer_k = 3;
    expect_bitwise_resume(options, 10, 5,
                          "async_t" + std::to_string(threads));
  }
}

TEST(RunCheckpointResume, ThreadCountIsOutsideTheResumeFrontier) {
  // §5b makes `threads` a pure wall-clock knob, so a snapshot taken at one
  // worker count restores into any other and still matches the reference.
  SimulationOptions at_one = tiny_options(1);
  at_one.faults = churn_and_stragglers();
  const std::string dir = fresh_dir("cross_threads");
  std::string path;
  {
    Simulation first = make_sim(at_one);
    for (int r = 0; r < 5; ++r) first.step();
    path = io::save_run_checkpoint(dir, 5, first.snapshot_state());
  }

  SimulationOptions at_eight = tiny_options(8);
  at_eight.faults = churn_and_stragglers();
  Simulation resumed = make_sim(at_eight);
  resumed.restore_state(io::load_run_checkpoint(path));
  for (int r = 5; r < 10; ++r) resumed.step();

  SimulationOptions at_four = tiny_options(4);
  at_four.faults = churn_and_stragglers();
  Simulation reference = make_sim(at_four);
  for (int r = 0; r < 10; ++r) reference.step();

  expect_bitwise(reference.global_state(), resumed.global_state());
}

TEST(RunCheckpointResume, ServerCrashThenAutoResumeMatchesUninterrupted) {
  // The full tentpole scenario in-process: a scheduled server crash kills
  // the run mid-flight, the latest periodic checkpoint restores it, and the
  // finished run is byte-identical to one that never crashed.
  const std::string dir = fresh_dir("crash_resume");
  SimulationOptions options = tiny_options(2);
  options.faults = churn_and_stragglers();
  options.checkpoint.every = 2;
  options.checkpoint.dir = dir;

  SimulationOptions doomed_options = options;
  doomed_options.faults.server_crash_at = 5;
  Simulation doomed = make_sim(doomed_options);
  int completed = 0;
  try {
    for (int r = 0; r < 10; ++r) {
      doomed.step();
      ++completed;
    }
    FAIL() << "the scheduled server crash never fired";
  } catch (const ServerCrashed& crash) {
    EXPECT_EQ(crash.round(), 5);
  }
  EXPECT_EQ(completed, 5);

  // A resumed process is a new server: no crash plan (FAULT_MODEL.md §7).
  const std::string latest = io::find_latest_run_checkpoint(dir);
  ASSERT_NE(latest.find("ckpt-00000004.fedsu"), std::string::npos);
  Simulation resumed = make_sim(options);
  resumed.restore_state(io::load_run_checkpoint(latest));
  for (int r = resumed.rounds_completed(); r < 10; ++r) resumed.step();

  SimulationOptions ref_options = tiny_options(2);
  ref_options.faults = churn_and_stragglers();
  Simulation reference = make_sim(ref_options);
  for (int r = 0; r < 10; ++r) reference.step();

  expect_bitwise(reference.global_state(), resumed.global_state());
}

// --- restore validation ----------------------------------------------------

TEST(RunCheckpointRestore, RejectsAMismatchedRunIdentity) {
  SimulationOptions options = tiny_options();
  std::vector<std::uint8_t> snapshot;
  {
    Simulation sim = make_sim(options);
    for (int r = 0; r < 3; ++r) sim.step();
    snapshot = sim.snapshot_state();
  }

  SimulationOptions reseeded = options;
  reseeded.seed ^= 0x1234;
  Simulation wrong_seed = make_sim(reseeded);
  EXPECT_THROW(wrong_seed.restore_state(snapshot), std::runtime_error);

  Simulation wrong_protocol = make_sim(options, "fedavg");
  EXPECT_THROW(wrong_protocol.restore_state(snapshot), std::runtime_error);

  SimulationOptions smaller = options;
  smaller.num_clients = 4;
  Simulation wrong_cohort = make_sim(smaller);
  EXPECT_THROW(wrong_cohort.restore_state(snapshot), std::runtime_error);

  SimulationOptions async_options = options;
  async_options.async.enabled = true;
  async_options.async.buffer_k = 3;
  Simulation wrong_mode = make_sim(async_options);
  EXPECT_THROW(wrong_mode.restore_state(snapshot), std::runtime_error);

  // And after every rejection, the matching simulation still restores.
  Simulation right = make_sim(options);
  EXPECT_NO_THROW(right.restore_state(snapshot));
  EXPECT_EQ(right.rounds_completed(), 3);
}

// --- checkpoint-write failure ----------------------------------------------

TEST(RunCheckpointHealth, WriteFailureRaisesCriticalAndTheRunContinues) {
  // Block directory creation by planting a regular file where the
  // checkpoint directory's parent should be.
  const std::string blocker = fresh_dir("ckpt_blocker");
  std::ofstream(blocker) << "in the way";

  SimulationOptions options = tiny_options();
  options.checkpoint.every = 1;
  options.checkpoint.dir = blocker + "/nested";
  Simulation sim = make_sim(options);

  const RoundRecord record = sim.step();
  ASSERT_TRUE(record.checkpoint);
  EXPECT_FALSE(record.checkpoint->ok);
  EXPECT_FALSE(record.checkpoint->error.empty());

  obs::HealthMonitor monitor;
  monitor.begin_run("fedsu", sim.model_state_size());
  monitor.observe_round(record);
  EXPECT_FALSE(monitor.healthy());
  EXPECT_EQ(monitor.raised_count(obs::AlertSeverity::kCritical), 1);
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].rule, "checkpoint_failure");

  // A failed write must never kill the run — the next round still steps.
  EXPECT_NO_THROW(sim.step());
}

}  // namespace
}  // namespace fedsu::fl
