#include "io/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "compress/wire.h"
#include "io/serialize.h"

namespace fedsu::io {

namespace {
constexpr std::uint32_t kCheckpointMagic = 0xC4EC'B01F;
}  // namespace

void save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  BinaryWriter writer;
  writer.write_magic(kCheckpointMagic);
  writer.write_string(checkpoint.protocol_name);
  writer.write_i32(checkpoint.round);
  writer.write_f64(checkpoint.elapsed_time_s);
  writer.write_vector(checkpoint.model_state);
  writer.write_vector(checkpoint.protocol_snapshot);
  writer.save_to_file(path);
}

Checkpoint load_checkpoint(const std::string& path) {
  BinaryReader reader = BinaryReader::from_file(path);
  reader.expect_magic(kCheckpointMagic, "checkpoint");
  Checkpoint checkpoint;
  checkpoint.protocol_name = reader.read_string();
  checkpoint.round = reader.read_i32();
  checkpoint.elapsed_time_s = reader.read_f64();
  checkpoint.model_state = reader.read_vector<float>();
  checkpoint.protocol_snapshot = reader.read_vector<std::uint8_t>();
  return checkpoint;
}

Checkpoint make_checkpoint(const compress::SyncProtocol& protocol,
                           std::vector<float> model_state, int round,
                           double elapsed_time_s) {
  Checkpoint checkpoint;
  checkpoint.protocol_name = protocol.name();
  checkpoint.round = round;
  checkpoint.elapsed_time_s = elapsed_time_s;
  checkpoint.model_state = std::move(model_state);
  checkpoint.protocol_snapshot = protocol.snapshot();
  return checkpoint;
}

void restore_protocol(compress::SyncProtocol& protocol,
                      const Checkpoint& checkpoint,
                      const std::vector<int>& absent_clients) {
  if (protocol.name() != checkpoint.protocol_name) {
    throw std::runtime_error("restore_protocol: checkpoint is for '" +
                             checkpoint.protocol_name + "', not '" +
                             protocol.name() + "'");
  }
  protocol.restore(checkpoint.protocol_snapshot);
  // The snapshot's rejoin stamps describe checkpoint time, not restore
  // time: any client that is down (or of unknown continuity) now must be
  // treated as a rejoiner — release its stale error slab and re-stamp it —
  // or its snapshot-era residuals feed every later correction.
  for (const int client : absent_clients) {
    protocol.on_client_rejoin(client);
  }
}

namespace {

std::string checkpoint_filename(int round) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08d.fedsu", round);
  return name;
}

// Parses the round out of "ckpt-<round>.fedsu"; -1 when `name` is not a
// run-checkpoint filename.
int parse_checkpoint_round(const std::string& name) {
  constexpr const char* kPrefix = "ckpt-";
  constexpr const char* kSuffix = ".fedsu";
  if (name.size() < std::strlen(kPrefix) + std::strlen(kSuffix) + 1) return -1;
  if (name.rfind(kPrefix, 0) != 0) return -1;
  if (name.substr(name.size() - std::strlen(kSuffix)) != kSuffix) return -1;
  const std::string digits = name.substr(
      std::strlen(kPrefix),
      name.size() - std::strlen(kPrefix) - std::strlen(kSuffix));
  if (digits.empty()) return -1;
  int round = 0;
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return -1;
    round = round * 10 + (ch - '0');
  }
  return round;
}

}  // namespace

std::string save_run_checkpoint(const std::string& dir, int round,
                                const std::vector<std::uint8_t>& payload) {
  if (round < 0) {
    throw std::invalid_argument("save_run_checkpoint: negative round");
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("save_run_checkpoint: cannot create '" + dir +
                             "': " + ec.message());
  }

  // Frame: magic, version, write_vector(payload), CRC-32 footer. It is
  // streamed piece by piece with a running CRC, so the payload is never
  // copied into a frame-sized buffer. The footer covers everything before
  // it: a flipped bit anywhere in the frame (header, length, or payload)
  // fails verification on load.
  BinaryWriter header;
  header.write_magic(kRunCheckpointMagic);
  header.write_u32(kRunCheckpointVersion);
  header.write_u64(payload.size());
  BinaryWriter footer;
  footer.write_u32(compress::wire::crc32(
      payload, compress::wire::crc32(header.buffer())));

  const fs::path final_path = fs::path(dir) / checkpoint_filename(round);
  const fs::path tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary);
    if (!out) {
      throw std::runtime_error("save_run_checkpoint: cannot open '" +
                               tmp_path.string() + "'");
    }
    for (const std::vector<std::uint8_t>* part :
         {&header.buffer(), &payload, &footer.buffer()}) {
      out.write(reinterpret_cast<const char*>(part->data()),
                static_cast<std::streamsize>(part->size()));
    }
    out.close();
    if (!out) {
      std::remove(tmp_path.string().c_str());
      throw std::runtime_error("save_run_checkpoint: write failed for '" +
                               tmp_path.string() + "'");
    }
  }
  // std::rename within one directory is atomic on POSIX: readers see either
  // the old file set or the complete new checkpoint, never a torn write.
  if (std::rename(tmp_path.string().c_str(), final_path.string().c_str()) !=
      0) {
    std::remove(tmp_path.string().c_str());
    throw std::runtime_error("save_run_checkpoint: rename to '" +
                             final_path.string() + "' failed");
  }
  return final_path.string();
}

std::vector<std::uint8_t> load_run_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("run checkpoint '" + path + "': cannot open");
  }
  std::vector<std::uint8_t> frame(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Verify the CRC footer over the raw frame before parsing anything: a
  // damaged file must never yield a partially-valid payload.
  if (frame.size() < 3 * sizeof(std::uint32_t)) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': truncated (shorter than the frame header)");
  }
  const std::size_t body = frame.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, frame.data() + body, sizeof(stored));
  const std::uint32_t actual = compress::wire::crc32({frame.data(), body});
  if (stored != actual) {
    throw std::runtime_error(
        "run checkpoint '" + path +
        "': CRC mismatch (file is corrupt or was truncated mid-write)");
  }
  BinaryReader reader(std::move(frame));
  const std::uint32_t magic = reader.read_u32();
  if (magic != kRunCheckpointMagic) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': wrong magic (not a run checkpoint)");
  }
  const std::uint32_t version = reader.read_u32();
  if (version != kRunCheckpointVersion) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': unsupported format version " +
                             std::to_string(version));
  }
  std::vector<std::uint8_t> payload;
  try {
    payload = reader.read_vector<std::uint8_t>();
  } catch (const std::exception& e) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': " + e.what());
  }
  if (reader.remaining() != sizeof(std::uint32_t)) {
    throw std::runtime_error("run checkpoint '" + path +
                             "': trailing bytes after the payload");
  }
  return payload;
}

std::string find_latest_run_checkpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return "";
  int best_round = -1;
  std::string best_path;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const int round = parse_checkpoint_round(entry.path().filename().string());
    if (round > best_round) {
      best_round = round;
      best_path = entry.path().string();
    }
  }
  return best_path;
}

std::size_t prune_run_checkpoints(const std::string& dir, int keep) {
  if (keep <= 0) return 0;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;
  std::vector<std::pair<int, fs::path>> checkpoints;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const int round = parse_checkpoint_round(entry.path().filename().string());
    if (round >= 0) checkpoints.emplace_back(round, entry.path());
  }
  if (checkpoints.size() <= static_cast<std::size_t>(keep)) return 0;
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t removed = 0;
  const std::size_t excess = checkpoints.size() - static_cast<std::size_t>(keep);
  for (std::size_t i = 0; i < excess; ++i) {
    if (fs::remove(checkpoints[i].second, ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace fedsu::io
