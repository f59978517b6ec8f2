#ifndef IAM_UTIL_SERIALIZE_H_
#define IAM_UTIL_SERIALIZE_H_

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace iam {

// Minimal little-endian binary serialization helpers for model persistence.
// Readers return Status so corrupt or truncated files fail cleanly instead of
// crashing.
//
// Allocation discipline (fuzz-enforced, DESIGN.md §16): every reader that
// honours a length declared *in the stream* grows its buffer in bounded
// chunks as the bytes actually arrive, never by the declared size up front —
// a truncated or adversarial header can declare gigabytes that the stream
// does not hold, and the failure must be a clean Status, not an OOM.

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
Status ReadPod(std::istream& in, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  if (!in) return Status::IoError("truncated stream reading POD");
  return Status::Ok();
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  WritePod<uint64_t>(out, values.size());
  if (!values.empty()) {
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(T)));
  }
}

template <typename T>
Status ReadVector(std::istream& in, std::vector<T>* values) {
  static_assert(std::is_trivially_copyable_v<T>);
  uint64_t size = 0;
  IAM_RETURN_IF_ERROR(ReadPod(in, &size));
  if (size > (1ULL << 32)) return Status::IoError("implausible vector size");
  values->clear();
  constexpr uint64_t kChunkElems =
      std::max<uint64_t>(1, (1ULL << 20) / sizeof(T));
  uint64_t remaining = size;
  while (remaining > 0) {
    const uint64_t take = std::min(remaining, kChunkElems);
    const size_t old_size = values->size();
    values->resize(old_size + static_cast<size_t>(take));
    in.read(reinterpret_cast<char*>(values->data() + old_size),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!in) return Status::IoError("truncated stream reading vector");
    remaining -= take;
  }
  return Status::Ok();
}

inline void WriteString(std::ostream& out, const std::string& s) {
  WritePod<uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// Appends exactly `count` bytes from `in` to `*out` in bounded chunks (see
// the allocation discipline above). `*out` is cleared first.
Status ReadBytesChunked(std::istream& in, uint64_t count, std::string* out);

inline Status ReadString(std::istream& in, std::string* s) {
  uint64_t size = 0;
  IAM_RETURN_IF_ERROR(ReadPod(in, &size));
  if (size > (1ULL << 24)) return Status::IoError("implausible string size");
  return ReadBytesChunked(in, size, s);
}

// Raw little-endian byte image of a trivially-copyable array with a length
// the CALLER already knows and has validated (matrix reads in ar/resmade.cc
// check shapes against an envelope-validated config first). This pair and
// the frame codec in serve/protocol.cc are the repo's two audited
// type-punning sites; scripts/lint.sh bans reinterpret_cast elsewhere in
// src/.
template <typename T>
void WriteRaw(std::ostream& out, const T* data, size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

template <typename T>
Status ReadRaw(std::istream& in, T* data, size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!in) return Status::IoError("truncated stream reading raw array");
  return Status::Ok();
}

// 64-bit FNV-1a over a byte span. Not cryptographic; used as a corruption
// check on persisted model payloads (a flipped bit or truncated tail changes
// the digest with overwhelming probability).
uint64_t Fnv1a64(std::string_view data);

// Checksummed, versioned container for persisted blobs:
//
//   [8-byte magic][u32 format version][u64 payload size][u64 FNV-1a][payload]
//
// Writers serialize their payload into a buffer first; readers validate the
// magic, the version, the declared size and the digest before any field
// of the payload is interpreted, so a truncated, bit-flipped or foreign file
// yields a clean Status instead of a half-constructed model.
void WriteEnvelope(std::ostream& out, std::string_view magic8,
                   uint32_t version, std::string_view payload);

// Reads and validates one envelope written at exactly `version`, the one
// payload layout the caller parses. Every other version, older or newer, is
// rejected with a message that names both.
Result<std::string> ReadEnvelope(std::istream& in, std::string_view magic8,
                                 uint32_t version);

}  // namespace iam

#endif  // IAM_UTIL_SERIALIZE_H_
