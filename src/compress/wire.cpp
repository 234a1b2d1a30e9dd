#include "compress/wire.h"

#include <array>
#include <stdexcept>
#include <string>

#include "io/serialize.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace fedsu::compress::wire {

namespace {
bool g_payload_audit = false;
}  // namespace

void set_payload_audit(bool enabled) { g_payload_audit = enabled; }
bool payload_audit() { return g_payload_audit; }

void audit_bytes(const char* what, std::size_t measured, std::size_t encoded) {
  if (measured != encoded) {
    throw std::logic_error(std::string("wire payload audit: ") + what +
                           ": measured " + std::to_string(measured) +
                           " bytes but encoded " + std::to_string(encoded));
  }
}

std::vector<std::uint8_t> encode_dense(std::span<const float> values) {
  io::BinaryWriter writer;
  for (float v : values) writer.write_f32(v);
  return writer.take();
}

std::vector<float> decode_dense(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() % sizeof(float) != 0) {
    throw std::runtime_error("wire: dense payload size not a multiple of 4");
  }
  io::BinaryReader reader(bytes);
  std::vector<float> values(bytes.size() / sizeof(float));
  for (float& v : values) v = reader.read_f32();
  return values;
}

std::vector<std::uint8_t> encode_sparse(std::span<const std::uint32_t> indices,
                                        std::span<const float> values) {
  if (indices.size() != values.size()) {
    throw std::invalid_argument("wire: sparse index/value length mismatch");
  }
  io::BinaryWriter writer;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    writer.write_u32(indices[i]);
    writer.write_f32(values[i]);
  }
  return writer.take();
}

SparsePayload decode_sparse(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() % 8 != 0) {
    throw std::runtime_error("wire: sparse payload size not a multiple of 8");
  }
  io::BinaryReader reader(bytes);
  SparsePayload payload;
  const std::size_t entries = bytes.size() / 8;
  payload.indices.reserve(entries);
  payload.values.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    payload.indices.push_back(reader.read_u32());
    payload.values.push_back(reader.read_f32());
  }
  return payload;
}

std::vector<std::uint8_t> encode_signs(std::span<const std::uint8_t> signs,
                                       float scale) {
  io::BinaryWriter writer;
  std::uint8_t packed = 0;
  int filled = 0;
  for (std::uint8_t s : signs) {
    packed |= static_cast<std::uint8_t>((s ? 1 : 0) << filled);
    if (++filled == 8) {
      writer.write_u8(packed);
      packed = 0;
      filled = 0;
    }
  }
  if (filled > 0) writer.write_u8(packed);
  writer.write_f32(scale);
  return writer.take();
}

SignsPayload decode_signs(const std::vector<std::uint8_t>& bytes,
                          std::size_t count) {
  const std::size_t mask_bytes = (count + 7) / 8;
  if (bytes.size() != mask_bytes + sizeof(float)) {
    throw std::runtime_error("wire: signs payload size mismatch");
  }
  io::BinaryReader reader(bytes);
  SignsPayload payload;
  payload.signs.resize(count);
  std::uint8_t packed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 8 == 0) packed = reader.read_u8();
    payload.signs[i] = (packed >> (i % 8)) & 1;
  }
  payload.scale = reader.read_f32();
  return payload;
}

std::vector<std::uint8_t> encode_quantized(std::span<const std::int32_t> levels,
                                           int bits, float scale) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("wire: quantized bits out of [1, 16]");
  }
  const std::int32_t max_level = (1 << (bits - 1)) - 1;
  io::BinaryWriter writer;
  std::uint32_t packed = 0;
  int filled = 0;
  for (std::int32_t level : levels) {
    if (level < -max_level || level > max_level) {
      throw std::invalid_argument("wire: quantized level out of range");
    }
    packed |= static_cast<std::uint32_t>(level + max_level) << filled;
    filled += bits;
    while (filled >= 8) {
      writer.write_u8(static_cast<std::uint8_t>(packed & 0xFF));
      packed >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) writer.write_u8(static_cast<std::uint8_t>(packed & 0xFF));
  writer.write_f32(scale);
  return writer.take();
}

QuantizedPayload decode_quantized(const std::vector<std::uint8_t>& bytes,
                                  std::size_t count, int bits) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("wire: quantized bits out of [1, 16]");
  }
  const std::size_t level_bytes = (count * static_cast<std::size_t>(bits) + 7) / 8;
  if (bytes.size() != level_bytes + sizeof(float)) {
    throw std::runtime_error("wire: quantized payload size mismatch");
  }
  const std::int32_t max_level = (1 << (bits - 1)) - 1;
  io::BinaryReader reader(bytes);
  QuantizedPayload payload;
  payload.levels.reserve(count);
  std::uint64_t packed = 0;
  int filled = 0;
  for (std::size_t i = 0; i < count; ++i) {
    while (filled < bits) {
      packed |= static_cast<std::uint64_t>(reader.read_u8()) << filled;
      filled += 8;
    }
    const auto raw = static_cast<std::uint32_t>(packed & ((1u << bits) - 1));
    payload.levels.push_back(static_cast<std::int32_t>(raw) - max_level);
    packed >>= bits;
    filled -= bits;
  }
  payload.scale = reader.read_f32();
  return payload;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t running) {
  // Slicing-by-8: table[0] is the classic reflected byte table and
  // table[k][i] is byte i's CRC advanced by k more zero bytes, so eight
  // independent lookups fold eight input bytes per step.
  using Table = std::array<std::array<std::uint32_t, 256>, 8>;
  static const Table table = [] {
    Table t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  auto load_le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  };
  std::uint32_t crc = running ^ 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
          table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
          table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = table[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void record_round_bytes(const char* protocol, std::size_t bytes_up,
                        std::size_t bytes_down) {
  if (!obs::metrics_enabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::string prefix = std::string("compress.") + protocol;
  registry.counter(prefix + ".rounds").add(1);
  registry.counter(prefix + ".bytes_up").add(bytes_up);
  registry.counter(prefix + ".bytes_down").add(bytes_down);
}

}  // namespace fedsu::compress::wire
