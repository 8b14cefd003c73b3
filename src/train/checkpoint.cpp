#include "train/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"

namespace hitopk::train {
namespace {

constexpr uint8_t kTypeU64 = 0;
constexpr uint8_t kTypeF64 = 1;
constexpr uint8_t kTypeF32 = 2;

constexpr uint32_t kMagic = 0x48544b43u;  // "HTKC"
constexpr uint32_t kFormatVersion = 1;

void append_bytes(std::vector<uint8_t>& blob, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  blob.insert(blob.end(), p, p + n);
}

template <typename T>
void append_scalar(std::vector<uint8_t>& blob, T value) {
  append_bytes(blob, &value, sizeof(T));
}

template <typename T>
T read_scalar(std::span<const uint8_t> blob, size_t& offset) {
  HITOPK_VALIDATE(offset + sizeof(T) <= blob.size())
      << "checkpoint truncated inside a header field";
  T value;
  std::memcpy(&value, blob.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

}  // namespace

uint64_t fnv1a64(std::span<const uint8_t> bytes, uint64_t basis) {
  uint64_t hash = basis;
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// ------------------------------------------------------------------ writer

CheckpointWriter::CheckpointWriter() {
  append_scalar(blob_, kMagic);
  append_scalar(blob_, kFormatVersion);
}

void CheckpointWriter::put_record(std::string_view name, uint8_t type,
                                  std::span<const uint8_t> payload) {
  HITOPK_CHECK(!finished_) << "checkpoint writer already finished";
  HITOPK_CHECK(!name.empty());
  const size_t record_start = blob_.size();
  append_scalar(blob_, static_cast<uint32_t>(name.size()));
  append_bytes(blob_, name.data(), name.size());
  append_scalar(blob_, type);
  append_scalar(blob_, static_cast<uint64_t>(payload.size()));
  append_bytes(blob_, payload.data(), payload.size());
  // The record checksum covers everything from the name length to the end
  // of the payload, so header corruption is caught too.
  const uint64_t checksum = fnv1a64(
      std::span<const uint8_t>(blob_.data() + record_start,
                               blob_.size() - record_start));
  append_scalar(blob_, checksum);
}

void CheckpointWriter::put_u64s(std::string_view name,
                                std::span<const uint64_t> values) {
  put_record(name, kTypeU64,
             std::span<const uint8_t>(
                 reinterpret_cast<const uint8_t*>(values.data()),
                 values.size() * sizeof(uint64_t)));
}

void CheckpointWriter::put_f64s(std::string_view name,
                                std::span<const double> values) {
  put_record(name, kTypeF64,
             std::span<const uint8_t>(
                 reinterpret_cast<const uint8_t*>(values.data()),
                 values.size() * sizeof(double)));
}

void CheckpointWriter::put_floats(std::string_view name,
                                  std::span<const float> values) {
  put_record(name, kTypeF32,
             std::span<const uint8_t>(
                 reinterpret_cast<const uint8_t*>(values.data()),
                 values.size() * sizeof(float)));
}

std::vector<uint8_t> CheckpointWriter::finish() {
  HITOPK_CHECK(!finished_) << "checkpoint writer already finished";
  finished_ = true;
  const uint64_t footer = fnv1a64(blob_);
  append_scalar(blob_, footer);
  return std::move(blob_);
}

// ------------------------------------------------------------------ reader

CheckpointReader::CheckpointReader(std::span<const uint8_t> blob) {
  HITOPK_VALIDATE(blob.size() >= sizeof(uint32_t) * 2 + sizeof(uint64_t))
      << "checkpoint blob too small to hold a header and footer";
  // Footer first: a mismatch means truncation or a torn tail, so nothing
  // after this point can be trusted.
  const size_t body_size = blob.size() - sizeof(uint64_t);
  uint64_t footer;
  std::memcpy(&footer, blob.data() + body_size, sizeof(uint64_t));
  HITOPK_VALIDATE(fnv1a64(blob.subspan(0, body_size)) == footer)
      << "checkpoint footer checksum mismatch (torn or truncated blob)";

  size_t offset = 0;
  HITOPK_VALIDATE(read_scalar<uint32_t>(blob, offset) == kMagic)
      << "checkpoint magic mismatch";
  HITOPK_VALIDATE(read_scalar<uint32_t>(blob, offset) == kFormatVersion)
      << "unsupported checkpoint format version";

  while (offset < body_size) {
    const size_t record_start = offset;
    const uint32_t name_len = read_scalar<uint32_t>(blob, offset);
    HITOPK_VALIDATE(offset + name_len <= body_size)
        << "checkpoint truncated inside a record name";
    std::string name(reinterpret_cast<const char*>(blob.data() + offset),
                     name_len);
    offset += name_len;
    const uint8_t type = read_scalar<uint8_t>(blob, offset);
    const uint64_t payload_bytes = read_scalar<uint64_t>(blob, offset);
    // Compared against the remaining bytes (not offset + payload_bytes,
    // which a corrupt length field could wrap past the end).
    HITOPK_VALIDATE(payload_bytes <= body_size - offset)
        << "checkpoint truncated inside record" << name;
    const std::span<const uint8_t> payload = blob.subspan(offset, payload_bytes);
    offset += payload_bytes;
    const uint64_t expected = fnv1a64(
        blob.subspan(record_start, offset - record_start));
    HITOPK_VALIDATE(read_scalar<uint64_t>(blob, offset) == expected)
        << "checkpoint record checksum mismatch for" << name;

    // An empty record's data() may be null, which memcpy never accepts.
    const auto copy_payload = [&](void* dst) {
      if (payload_bytes > 0) std::memcpy(dst, payload.data(), payload_bytes);
    };
    Record record;
    record.type = type;
    switch (type) {
      case kTypeU64:
        HITOPK_VALIDATE(payload_bytes % sizeof(uint64_t) == 0);
        record.u.resize(payload_bytes / sizeof(uint64_t));
        copy_payload(record.u.data());
        break;
      case kTypeF64:
        HITOPK_VALIDATE(payload_bytes % sizeof(double) == 0);
        record.d.resize(payload_bytes / sizeof(double));
        copy_payload(record.d.data());
        break;
      case kTypeF32:
        HITOPK_VALIDATE(payload_bytes % sizeof(float) == 0);
        record.f.resize(payload_bytes / sizeof(float));
        copy_payload(record.f.data());
        break;
      default:
        HITOPK_VALIDATE(false) << "unknown checkpoint record type for" << name;
    }
    HITOPK_VALIDATE(records_.emplace(name, std::move(record)).second)
        << "duplicate checkpoint record" << name;
    names_.push_back(std::move(name));
  }
}

bool CheckpointReader::has(std::string_view name) const {
  return records_.count(std::string(name)) > 0;
}

const CheckpointReader::Record& CheckpointReader::record(std::string_view name,
                                                         uint8_t type) const {
  auto it = records_.find(std::string(name));
  HITOPK_VALIDATE(it != records_.end())
      << "checkpoint record missing:" << std::string(name);
  HITOPK_VALIDATE(it->second.type == type)
      << "checkpoint record type mismatch for" << std::string(name);
  return it->second;
}

std::span<const uint64_t> CheckpointReader::u64s(std::string_view name) const {
  return record(name, kTypeU64).u;
}

std::span<const double> CheckpointReader::f64s(std::string_view name) const {
  return record(name, kTypeF64).d;
}

std::span<const float> CheckpointReader::floats(std::string_view name) const {
  return record(name, kTypeF32).f;
}

// ------------------------------------------------------------------- store

namespace {

bool blob_verifies(const std::vector<uint8_t>& blob) {
  try {
    CheckpointReader reader(blob);
    return true;
  } catch (const ConfigError&) {
    return false;
  }
}

}  // namespace

CheckpointStore::CheckpointStore(size_t max_versions)
    : max_versions_(max_versions) {
  HITOPK_CHECK_GT(max_versions, 0u);
}

uint64_t CheckpointStore::commit(std::vector<uint8_t> blob) {
  // Validate before touching the ring: a malformed snapshot must not evict
  // the good one it was meant to replace.
  HITOPK_VALIDATE(blob_verifies(blob))
      << "refusing to commit a checkpoint blob that fails validation";
  slots_.push_back(Slot{next_version_, std::move(blob)});
  if (slots_.size() > max_versions_) slots_.erase(slots_.begin());
  return next_version_++;
}

std::optional<CheckpointStore::Snapshot> CheckpointStore::newest_valid() {
  for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
    if (blob_verifies(it->blob)) return Snapshot{it->version, &it->blob};
    ++fallbacks_;
  }
  return std::nullopt;
}

uint64_t CheckpointStore::newest_version() const {
  return slots_.empty() ? 0 : slots_.back().version;
}

std::vector<uint8_t>& CheckpointStore::mutable_blob(uint64_t version) {
  for (Slot& slot : slots_) {
    if (slot.version == version) return slot.blob;
  }
  HITOPK_CHECK(false) << "no checkpoint version" << version;
  return slots_.front().blob;  // unreachable
}

}  // namespace hitopk::train
