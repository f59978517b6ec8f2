// Fuzz harness for the persisted-model input surface: the checksummed
// envelope (util/serialize.h) and the deserializers layered on it —
// core::ArDensityEstimator::LoadFromStream (the serving hot-swap path, which
// reads a path received over the wire and deserializes whatever it finds),
// ar::ResMade::Deserialize and bucketize::DomainReducer::Deserialize (fed
// directly, so mutations reach the reducer fields without a checksum in the
// way).
//
// The first input byte selects the entry point (mod 4); the rest is the
// stream. Oracles, beyond "no sanitizer report / no OOM on a declared-huge
// header":
//   * Envelope round trip — a payload that validates re-validates after
//     being re-written through WriteEnvelope, bit-identically.
//   * ResMade round trip — a model that deserializes re-serializes to a
//     stream that deserializes again, with the same shape.
//   * Reducer round trip — an accepted reducer re-serializes to a stream
//     that deserializes again, with the same bucket count.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "ar/resmade.h"
#include "bucketize/domain_reducer.h"
#include "core/ar_density_estimator.h"
#include "util/serialize.h"
#include "util/status.h"

namespace {

[[noreturn]] void Fail(const char* message) {
  std::fprintf(stderr, "fuzz_envelope: oracle violated: %s\n", message);
  std::abort();
}

void FuzzRawEnvelope(std::istream& in) {
  const iam::Result<std::string> payload =
      iam::ReadEnvelope(in, "IAMMODEL", iam::core::kModelFormatVersion);
  if (!payload.ok()) return;
  std::stringstream again(std::ios::in | std::ios::out | std::ios::binary);
  iam::WriteEnvelope(again, "IAMMODEL", iam::core::kModelFormatVersion,
                     *payload);
  const iam::Result<std::string> reread =
      iam::ReadEnvelope(again, "IAMMODEL", iam::core::kModelFormatVersion);
  if (!reread.ok() || *reread != *payload) {
    Fail("validated envelope did not round-trip");
  }
}

void FuzzEstimatorLoad(std::istream& in) {
  const iam::Result<std::unique_ptr<iam::core::ArDensityEstimator>> loaded =
      iam::core::ArDensityEstimator::LoadFromStream(in);
  // Arbitrary bytes essentially never form a valid checksummed model; the
  // value of this mode is that rejection is a clean Status on every path
  // (fields validated before use, allocations bounded by bytes actually
  // present). Mutations of the committed valid-model seed exercise the
  // deep per-field validation behind an intact digest.
  (void)loaded;
}

void FuzzResMadeDeserialize(std::istream& in) {
  const iam::Result<std::unique_ptr<iam::ar::ResMade>> model =
      iam::ar::ResMade::Deserialize(in);
  if (!model.ok()) return;
  std::stringstream again(std::ios::in | std::ios::out | std::ios::binary);
  (*model)->Serialize(again);
  const iam::Result<std::unique_ptr<iam::ar::ResMade>> reloaded =
      iam::ar::ResMade::Deserialize(again);
  if (!reloaded.ok()) Fail("accepted ResMade did not re-deserialize");
  if ((*reloaded)->num_columns() != (*model)->num_columns() ||
      (*reloaded)->ParameterCount() != (*model)->ParameterCount()) {
    Fail("ResMade round trip changed the model shape");
  }
}

void FuzzReducerDeserialize(std::istream& in) {
  using iam::bucketize::DomainReducer;
  const iam::Result<std::unique_ptr<DomainReducer>> reducer =
      DomainReducer::Deserialize(in);
  if (!reducer.ok()) return;
  std::stringstream again(std::ios::in | std::ios::out | std::ios::binary);
  (*reducer)->Serialize(again);
  const iam::Result<std::unique_ptr<DomainReducer>> reloaded =
      DomainReducer::Deserialize(again);
  if (!reloaded.ok()) Fail("accepted reducer did not re-deserialize");
  if ((*reloaded)->num_buckets() != (*reducer)->num_buckets()) {
    Fail("reducer round trip changed the bucket count");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t mode = data[0] % 4;
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data + 1), size - 1),
      std::ios::binary);
  switch (mode) {
    case 0:
      FuzzRawEnvelope(in);
      break;
    case 1:
      FuzzEstimatorLoad(in);
      break;
    case 2:
      FuzzResMadeDeserialize(in);
      break;
    default:
      FuzzReducerDeserialize(in);
      break;
  }
  return 0;
}
