#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bucketize/domain_reducer.h"
#include "core/ar_density_estimator.h"
#include "core/presets.h"
#include "data/synthetic.h"
#include "query/workload.h"
#include "util/random.h"
#include "util/serialize.h"

namespace iam {
namespace {

TEST(SerializeHelpersTest, PodRoundTrip) {
  std::stringstream stream;
  WritePod<int32_t>(stream, -42);
  WritePod<double>(stream, 3.5);
  WritePod<uint8_t>(stream, 7);
  int32_t i = 0;
  double d = 0;
  uint8_t b = 0;
  ASSERT_TRUE(ReadPod(stream, &i).ok());
  ASSERT_TRUE(ReadPod(stream, &d).ok());
  ASSERT_TRUE(ReadPod(stream, &b).ok());
  EXPECT_EQ(i, -42);
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_EQ(b, 7);
  // Stream exhausted: further reads fail cleanly.
  EXPECT_FALSE(ReadPod(stream, &i).ok());
}

TEST(SerializeHelpersTest, VectorRoundTrip) {
  std::stringstream stream;
  const std::vector<double> values = {1.0, -2.5, 1e300};
  WriteVector(stream, values);
  WriteVector(stream, std::vector<int>{});
  std::vector<double> loaded;
  std::vector<int> empty;
  ASSERT_TRUE(ReadVector(stream, &loaded).ok());
  ASSERT_TRUE(ReadVector(stream, &empty).ok());
  EXPECT_EQ(loaded, values);
  EXPECT_TRUE(empty.empty());
}

TEST(SerializeHelpersTest, StringRoundTripAndGuards) {
  std::stringstream stream;
  WriteString(stream, "hello");
  WriteString(stream, "");
  std::string a, b;
  ASSERT_TRUE(ReadString(stream, &a).ok());
  ASSERT_TRUE(ReadString(stream, &b).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");

  // Implausible length prefix is rejected rather than allocated.
  std::stringstream bad;
  WritePod<uint64_t>(bad, 1ULL << 40);
  std::string s;
  EXPECT_FALSE(ReadString(bad, &s).ok());
}

TEST(EnvelopeTest, RoundTripPreservesPayloadAndVersion) {
  std::stringstream stream;
  const std::string payload("binary\0payload\xff with every byte", 31);
  WriteEnvelope(stream, "TESTMAG8", 3, payload);
  const Result<std::string> read =
      ReadEnvelope(stream, "TESTMAG8", /*version=*/3);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST(EnvelopeTest, WrongMagicRejected) {
  std::stringstream stream;
  WriteEnvelope(stream, "TESTMAG8", 1, "payload");
  const Result<std::string> read = ReadEnvelope(stream, "OTHERMAG", 1);
  EXPECT_FALSE(read.ok());
}

TEST(EnvelopeTest, FutureVersionRejected) {
  std::stringstream stream;
  WriteEnvelope(stream, "TESTMAG8", 7, "payload");
  const Result<std::string> read =
      ReadEnvelope(stream, "TESTMAG8", /*version=*/6);
  EXPECT_FALSE(read.ok());
  EXPECT_NE(read.status().ToString().find("version"), std::string::npos);
}

// A reader parses exactly one payload layout, so an older version is
// refused as firmly as a newer one, with both versions in the message.
TEST(EnvelopeTest, OlderVersionRejected) {
  std::stringstream stream;
  WriteEnvelope(stream, "TESTMAG8", 2, "payload");
  const Result<std::string> read =
      ReadEnvelope(stream, "TESTMAG8", /*version=*/3);
  ASSERT_FALSE(read.ok());
  const std::string message = read.status().ToString();
  EXPECT_NE(message.find("version 2"), std::string::npos) << message;
  EXPECT_NE(message.find("reads 3"), std::string::npos) << message;
}

TEST(EnvelopeTest, EveryBitFlipIsDetected) {
  std::stringstream stream;
  WriteEnvelope(stream, "TESTMAG8", 1, "a modest payload");
  const std::string blob = stream.str();
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    std::string corrupted = blob;
    corrupted[byte] = static_cast<char>(corrupted[byte] ^ 0x10);
    std::istringstream in(corrupted);
    const Result<std::string> read = ReadEnvelope(in, "TESTMAG8", 1);
    // A flip in the size field may also surface as a short read; any clean
    // failure is acceptable, silent success is not.
    EXPECT_FALSE(read.ok()) << "bit flip in byte " << byte << " undetected";
  }
}

TEST(EnvelopeTest, Fnv1a64KnownVectors) {
  // Reference values of the standard 64-bit FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// One trained-and-saved model shared by the corruption tests below (training
// dominates their runtime; every test only needs the serialized bytes).
const std::string& SavedModelBlob() {
  static const std::string blob = [] {
    const data::Table twi = data::MakeSynTwi(4000, 5);
    core::ArEstimatorOptions opts = core::IamDefaults(6);
    opts.made.hidden_sizes = {32, 32};
    opts.epochs = 1;
    opts.large_domain_threshold = 200;
    core::ArDensityEstimator model(twi, opts);
    model.Train();
    std::ostringstream out;
    EXPECT_TRUE(model.Save(out).ok());
    return out.str();
  }();
  return blob;
}

void WriteBlob(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

// Property: a saved model truncated at *any* prefix length must fail to load
// with a clean Status — never crash, never succeed.
TEST(ModelTruncationFuzzTest, EveryPrefixFailsCleanly) {
  namespace fs = std::filesystem;
  const std::string full =
      (fs::temp_directory_path() / "iam_fuzz_whole.bin").string();
  const std::string cut =
      (fs::temp_directory_path() / "iam_fuzz_cut.bin").string();
  const std::string& blob = SavedModelBlob();
  ASSERT_GT(blob.size(), 1000u);
  WriteBlob(full, blob);

  // Sweep prefix lengths across the whole file (stride keeps runtime sane).
  const size_t stride = std::max<size_t>(1, blob.size() / 211);
  for (size_t len = 0; len < blob.size(); len += stride) {
    {
      std::ofstream out(cut, std::ios::binary | std::ios::trunc);
      out.write(blob.data(), static_cast<std::streamsize>(len));
    }
    const auto loaded = core::ArDensityEstimator::Load(cut);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
  }

  // And the untruncated blob still loads.
  const auto loaded = core::ArDensityEstimator::Load(full);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(full.c_str());
  std::remove(cut.c_str());
}

// A flipped bit anywhere in a saved model must be caught — in the header by
// the magic/version checks, in the payload by the FNV-1a digest.
TEST(ModelCorruptionTest, BitFlipsFailToLoad) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "iam_fuzz_flip.bin").string();
  const std::string& blob = SavedModelBlob();

  // Every header byte, then payload positions spread across the file.
  std::vector<size_t> positions;
  for (size_t i = 0; i < 28 && i < blob.size(); ++i) positions.push_back(i);
  for (size_t i = 28; i < blob.size(); i += blob.size() / 37) {
    positions.push_back(i);
  }
  for (const size_t pos : positions) {
    std::string corrupted = blob;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x04);
    WriteBlob(path, corrupted);
    const auto loaded = core::ArDensityEstimator::Load(path);
    EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << pos << " loaded";
  }
  std::remove(path.c_str());
}

TEST(ModelCorruptionTest, FutureFormatVersionRejected) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "iam_fuzz_version.bin").string();
  const std::string& blob = SavedModelBlob();

  // The envelope header is [8-byte magic][u32 version LE]: craft a file
  // claiming a future format version. The checksum is valid, so this
  // exercises the version gate specifically.
  std::string future = blob;
  future[8] = static_cast<char>(99);
  WriteBlob(path, future);
  const auto loaded = core::ArDensityEstimator::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(ModelCorruptionTest, LegacyUnversionedFormatRejected) {
  // Pre-envelope files began with a length-prefixed "IAMMODEL1" string, not
  // the bare 8-byte magic; they must fail the magic check cleanly.
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "iam_fuzz_legacy.bin").string();
  std::string legacy;
  const uint64_t len = 9;
  legacy.append(reinterpret_cast<const char*>(&len), 8);
  legacy.append("IAMMODEL1");
  legacy.append(200, '\0');
  WriteBlob(path, legacy);
  const auto loaded = core::ArDensityEstimator::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// A file of an older format version fails to load with a Status naming the
// version. The v2 payload built here is the current one with each "gmm"
// reducer blob given back the int32 sample count and uint8 exact flag that
// v2 stored after its tag; read as the current layout it would be misparsed.
TEST(ModelCorruptionTest, OlderFormatVersionRejected) {
  std::istringstream current(SavedModelBlob(), std::ios::binary);
  const Result<std::string> payload =
      ReadEnvelope(current, "IAMMODEL", core::kModelFormatVersion);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  std::ostringstream tag, v2_fields;
  WriteString(tag, "gmm");
  WritePod<int32_t>(v2_fields, 500);  // Monte-Carlo samples per component
  WritePod<uint8_t>(v2_fields, 0);    // exact flag
  std::string v2 = *payload;
  int gmm_blobs = 0;
  for (size_t at = v2.find(tag.str()); at != std::string::npos;
       at = v2.find(tag.str(), at + 1)) {
    v2.insert(at + tag.str().size(), v2_fields.str());
    ++gmm_blobs;
  }
  ASSERT_GT(gmm_blobs, 0);

  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  WriteEnvelope(file, "IAMMODEL", 2, v2);
  const auto loaded = core::ArDensityEstimator::LoadFromStream(file);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("version 2"), std::string::npos)
      << loaded.status().ToString();
}

// Regressions promoted from the fuzz/ harnesses (DESIGN.md §16): readers
// that honour stream-declared lengths must fail truncated or adversarial
// inputs with a clean Status, allocating only for bytes that actually
// arrive. The original finding: ReadEnvelope allocated the full declared
// payload (up to 16 GiB from a 28-byte header) before reading a single
// payload byte, and ReadVector resized to the declared element count the
// same way. The mirror corpus inputs live in fuzz/corpus/envelope/.

TEST(AdversarialInputRegressionTest, HugeDeclaredEnvelopeFailsCleanly) {
  // Valid magic and version, a digest of zero, and a declared 8 GiB payload
  // the stream does not contain. Must be a fast, clean failure — the
  // chunked reader touches at most 1 MiB before hitting EOF.
  std::stringstream stream;
  stream.write("TESTMAG8", 8);
  WritePod<uint32_t>(stream, 1);
  WritePod<uint64_t>(stream, 8ULL << 30);
  WritePod<uint64_t>(stream, 0);
  const Result<std::string> read = ReadEnvelope(stream, "TESTMAG8", 1);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(AdversarialInputRegressionTest, HugeDeclaredVectorFailsCleanly) {
  // Element count just under the plausibility cap with an empty body: the
  // pre-fix reader resized to count*sizeof(double) = 16 GiB up front.
  std::stringstream stream;
  WritePod<uint64_t>(stream, (1ULL << 31));
  std::vector<double> values{1.0, 2.0};  // must be left empty on failure
  const Status read = ReadVector(stream, &values);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
  EXPECT_TRUE(values.empty() || values.size() <= (1ULL << 20));
}

TEST(AdversarialInputRegressionTest, VectorTruncatedMidChunkFailsCleanly) {
  // Declared length spans multiple 1 MiB read chunks but the stream ends
  // inside the second chunk — the multi-chunk path must also fail cleanly.
  constexpr uint64_t kDeclared = 300000;  // doubles: ~2.3 MiB
  std::stringstream stream;
  WritePod<uint64_t>(stream, kDeclared);
  const std::vector<double> partial(200000, 1.5);
  stream.write(reinterpret_cast<const char*>(partial.data()),
               static_cast<std::streamsize>(partial.size() * sizeof(double)));
  std::vector<double> values;
  const Status read = ReadVector(stream, &values);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
}

TEST(AdversarialInputRegressionTest, ChunkedVectorRoundTripIntact) {
  // The chunked reader must stay byte-compatible with the writer across the
  // chunk boundary (> 1 MiB of payload).
  std::vector<double> original(180000);
  for (size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<double>(i) * 0.5;
  }
  std::stringstream stream;
  WriteVector(stream, original);
  std::vector<double> reread;
  ASSERT_TRUE(ReadVector(stream, &reread).ok());
  EXPECT_EQ(reread, original);
}

TEST(AdversarialInputRegressionTest, HugeDeclaredStringFailsCleanly) {
  std::stringstream stream;
  WritePod<uint64_t>(stream, (1ULL << 24) - 1);  // just under the cap
  stream << "only a few actual bytes";
  std::string value;
  const Status read = ReadString(stream, &value);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
}

// Loading a saved model and saving it again reproduces the file byte for
// byte, so replicas cloned from a loaded model's Save() bytes (the model
// registry's SwapFromFile) hold exactly what the file holds.
TEST(ModelRoundTripTest, ResaveIsByteIdentical) {
  std::istringstream in(SavedModelBlob(), std::ios::binary);
  auto loaded = core::ArDensityEstimator::LoadFromStream(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::ostringstream resaved;
  ASSERT_TRUE(loaded.value()->Save(resaved).ok());
  EXPECT_EQ(resaved.str(), SavedModelBlob());
}

// Mixture reducer blob fields that would turn weights or range masses NaN
// (NaN masses reach the estimates) fail the load cleanly in either family: a
// non-finite weight logit, location or log scale, or a log scale whose scale
// overflows. So do unsorted interval edges, which used to reach a
// constructor check.
TEST(AdversarialInputRegressionTest, ReducerBlobFieldsFailCleanly) {
  const double nan = std::nan("");
  const double inf = INFINITY;
  struct Fields {
    double logit, location, log_scale;
  };
  for (const char* tag : {"gmm", "laplace"}) {
    for (const Fields& f :
         {Fields{0.0, 1.0, 0.0}, Fields{inf, 1.0, 0.0}, Fields{nan, 1.0, 0.0},
          Fields{0.0, inf, 0.0}, Fields{0.0, nan, 0.0}, Fields{0.0, 1.0, nan},
          Fields{0.0, 1.0, 800.0}}) {
      std::stringstream blob;
      WriteString(blob, tag);
      WriteVector(blob, std::vector<double>{0.0, f.logit});  // weight logits
      WriteVector(blob, std::vector<double>{-1.0, f.location});  // locations
      WriteVector(blob, std::vector<double>{0.0, f.log_scale});  // log scales
      const bool finite = std::isfinite(f.logit) &&
                          std::isfinite(f.location) && f.log_scale == 0.0;
      EXPECT_EQ(bucketize::DomainReducer::Deserialize(blob).ok(), finite)
          << tag << " logit " << f.logit << " location " << f.location
          << " log scale " << f.log_scale;
    }
  }

  std::stringstream interval;
  WriteString(interval, "interval");
  WriteString(interval, "equidepth");
  WriteVector(interval, std::vector<double>{0.0, 2.0, 1.0});  // edges
  WriteVector(interval, std::vector<double>{0.5, 0.5});  // weights
  EXPECT_FALSE(bucketize::DomainReducer::Deserialize(interval).ok());
}

// Golden digests of a small fixed GMM-reduced IAM model: FNV-1a over the
// bits of its EstimateBatch answers and over its Save() bytes. Any change to
// the arithmetic behind GMM training, Assign, range mass or sampling moves
// one of them. Every kernel arm gives the same bits (DESIGN.md §10), so the
// digests hold on every host.
TEST(GoldenDigestTest, GmmModelEstimatesAndSaveBytes) {
  const data::Table twi = data::MakeSynTwi(3000, 7);
  core::ArEstimatorOptions opts = core::IamDefaults(6);
  opts.made.hidden_sizes = {32, 32};
  opts.epochs = 2;
  opts.large_domain_threshold = 200;
  opts.progressive_samples = 64;
  core::ArDensityEstimator model(twi, opts);
  model.Train();
  ASSERT_TRUE(model.IsReduced(0));

  Rng rng(11);
  query::WorkloadOptions wopts;
  wopts.num_queries = 48;
  const std::vector<double> estimates =
      model.EstimateBatch(query::GenerateWorkload(twi, wopts, rng));
  const std::string_view estimate_bits(
      reinterpret_cast<const char*>(estimates.data()),
      estimates.size() * sizeof(double));

  std::ostringstream saved;
  ASSERT_TRUE(model.Save(saved).ok());

  EXPECT_EQ(Fnv1a64(estimate_bits), 0x0440acb26bf1109bull);
  EXPECT_EQ(Fnv1a64(saved.str()), 0x8f5fe647754b080aull);
}

}  // namespace
}  // namespace iam
