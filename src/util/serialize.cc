#include "util/serialize.h"

#include "util/macros.h"

namespace iam {

Status ReadBytesChunked(std::istream& in, uint64_t count, std::string* out) {
  out->clear();
  constexpr uint64_t kChunkBytes = 1ULL << 20;
  uint64_t remaining = count;
  while (remaining > 0) {
    const uint64_t take = std::min(remaining, kChunkBytes);
    const size_t old_size = out->size();
    out->resize(old_size + static_cast<size_t>(take));
    in.read(out->data() + old_size, static_cast<std::streamsize>(take));
    if (!in) return Status::IoError("truncated stream reading bytes");
    remaining -= take;
  }
  return Status::Ok();
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void WriteEnvelope(std::ostream& out, std::string_view magic8,
                   uint32_t version, std::string_view payload) {
  IAM_CHECK(magic8.size() == 8);
  out.write(magic8.data(), 8);
  WritePod<uint32_t>(out, version);
  WritePod<uint64_t>(out, payload.size());
  WritePod<uint64_t>(out, Fnv1a64(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

Result<std::string> ReadEnvelope(std::istream& in, std::string_view magic8,
                                 uint32_t version) {
  IAM_CHECK(magic8.size() == 8);
  char magic[8] = {};
  in.read(magic, 8);
  if (!in) return Status::IoError("truncated stream reading magic");
  if (std::string_view(magic, 8) != magic8) {
    return Status::IoError("bad magic: expected '" + std::string(magic8) +
                           "'");
  }
  uint32_t stored = 0;
  uint64_t size = 0;
  uint64_t digest = 0;
  IAM_RETURN_IF_ERROR(ReadPod(in, &stored));
  IAM_RETURN_IF_ERROR(ReadPod(in, &size));
  IAM_RETURN_IF_ERROR(ReadPod(in, &digest));
  if (stored != version) {
    return Status::IoError("unsupported " + std::string(magic8) +
                           " format version " + std::to_string(stored) +
                           " (this build reads " + std::to_string(version) +
                           ")");
  }
  if (size > (1ULL << 34)) {
    return Status::IoError("implausible payload size");
  }
  // Chunked: the declared size is untrusted until the bytes back it (a
  // 28-byte header can otherwise demand a 16 GiB up-front allocation).
  std::string payload;
  if (!ReadBytesChunked(in, size, &payload).ok()) {
    return Status::IoError("truncated payload");
  }
  if (Fnv1a64(payload) != digest) {
    return Status::IoError("payload checksum mismatch (corrupted file)");
  }
  return payload;
}

}  // namespace iam
