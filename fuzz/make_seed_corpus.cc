// Writes the committed seed corpora under fuzz/corpus/<target>/. Run once
// (and re-run when a wire or file format changes):
//
//   ./iam_make_seed_corpus <repo>/fuzz/corpus
//
// Seeds are format-valid inputs plus the known-adversarial shapes the
// harness oracles were written against (truncated frames, declared-huge
// envelope headers) — the mutation engine explores outward from both.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ar/resmade.h"
#include "bucketize/mixture_reducer.h"
#include "core/ar_density_estimator.h"
#include "serve/demo.h"
#include "serve/protocol.h"
#include "util/serialize.h"

namespace {

using iam::serve::AppendFrame;
using iam::serve::EncodeFrame;
using iam::serve::Frame;
using iam::serve::FrameType;

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  IAM_CHECK(out.good());
  std::printf("  %s/%s (%zu bytes)\n", dir.filename().string().c_str(),
              name.c_str(), bytes.size());
}

void MakeFrameDecoderSeeds(const std::filesystem::path& dir) {
  WriteSeed(dir, "01_estimate.bin",
            EncodeFrame({FrameType::kEstimate, "x >= 0.5 AND c = 3"}));
  WriteSeed(dir, "02_swap.bin",
            EncodeFrame({FrameType::kSwap, "/tmp/model.iam"}));
  WriteSeed(dir, "03_metrics.bin", EncodeFrame({FrameType::kMetrics, ""}));
  WriteSeed(dir, "04_estimate_ok.bin",
            EncodeFrame({FrameType::kEstimateOk,
                         iam::serve::EncodeEstimatePayload(0.125, 7)}));
  std::string pipelined;
  AppendFrame(&pipelined, {FrameType::kEstimate, "y BETWEEN -1 AND 9"});
  AppendFrame(&pipelined, {FrameType::kMetrics, ""});
  AppendFrame(&pipelined, {FrameType::kShutdown, ""});
  WriteSeed(dir, "05_pipelined.bin", pipelined);
  // Adversarial shapes the decoder must reject or park cleanly.
  const std::string valid = EncodeFrame({FrameType::kEstimate, "x = 7"});
  WriteSeed(dir, "06_truncated.bin", valid.substr(0, valid.size() - 3));
  WriteSeed(dir, "07_header_only.bin", valid.substr(0, 3));
  WriteSeed(dir, "08_zero_length.bin", std::string(4, '\0'));
  WriteSeed(dir, "09_oversized.bin", std::string(4, '\xff'));
  // Adaptation frames (DESIGN.md §18): both feedback grammar forms, an
  // append batch, and the adversarial variants — the payload codec behind
  // the frame decoder must reject these cleanly (truncated feedback,
  // non-finite values, short rows).
  WriteSeed(dir, "10_feedback_seq.bin",
            EncodeFrame({FrameType::kFeedback, "seq=42 actual=0.125"}));
  WriteSeed(dir, "11_feedback_inline.bin",
            EncodeFrame({FrameType::kFeedback,
                         "actual=0.25 where x >= 0.5 AND c = 3"}));
  WriteSeed(dir, "12_append.bin",
            EncodeFrame({FrameType::kAppendData,
                         "cols=3\n1.5,-2.25,3\n0.125,7,-1e3\n"}));
  const std::string feedback_wire =
      EncodeFrame({FrameType::kFeedback, "seq=42 actual=0.125"});
  WriteSeed(dir, "13_feedback_truncated.bin",
            feedback_wire.substr(0, feedback_wire.size() - 6));
  WriteSeed(dir, "14_feedback_bad_actual.bin",
            EncodeFrame({FrameType::kFeedback, "seq=42 actual=nan"}));
  WriteSeed(dir, "15_append_short_row.bin",
            EncodeFrame({FrameType::kAppendData, "cols=3\n1,2\n"}));
}

std::string EnvelopeSeed(uint8_t mode, const std::string& stream) {
  return std::string(1, static_cast<char>(mode)) + stream;
}

void MakeEnvelopeSeeds(const std::filesystem::path& dir,
                       const std::filesystem::path& scratch) {
  // Mode 0: raw envelope validation.
  std::ostringstream raw(std::ios::binary);
  iam::WriteEnvelope(raw, "IAMMODEL", iam::core::kModelFormatVersion,
                     "seed payload bytes");
  WriteSeed(dir, "01_envelope_valid.bin", EnvelopeSeed(0, raw.str()));

  // A header that declares an 8 GiB payload the stream does not hold — the
  // regression shape for the chunked-read discipline (DESIGN.md §16): the
  // reader must fail with a clean Status without allocating the declared
  // size up front.
  std::ostringstream huge(std::ios::binary);
  huge.write("IAMMODEL", 8);
  iam::WritePod<uint32_t>(huge, iam::core::kModelFormatVersion);
  iam::WritePod<uint64_t>(huge, 8ULL << 30);
  iam::WritePod<uint64_t>(huge, 0);
  WriteSeed(dir, "02_envelope_huge_decl.bin", EnvelopeSeed(0, huge.str()));

  // Mode 1: full estimator snapshot (tiny demo model, fixed seed). Written
  // through Save() so the seed tracks the current format version.
  const std::filesystem::path model_path = scratch / "seed_model.iam";
  {
    const std::unique_ptr<iam::core::ArDensityEstimator> est =
        iam::serve::TrainDemoEstimator(/*rows=*/300, /*seed=*/5);
    IAM_CHECK(est != nullptr);
    const iam::Status saved = est->Save(model_path.string());
    IAM_CHECK(saved.ok());
  }
  std::ifstream model_in(model_path, std::ios::binary);
  const std::string model_bytes((std::istreambuf_iterator<char>(model_in)),
                                std::istreambuf_iterator<char>());
  IAM_CHECK(!model_bytes.empty());
  std::filesystem::remove(model_path);
  WriteSeed(dir, "03_estimator_snapshot.bin", EnvelopeSeed(1, model_bytes));
  WriteSeed(dir, "04_estimator_truncated.bin",
            EnvelopeSeed(1, model_bytes.substr(0, model_bytes.size() / 2)));

  // Mode 2: a tiny ResMade parameter blob.
  iam::ar::ResMadeConfig config;
  config.hidden_sizes = {8, 8};
  config.wildcard_prob = 0.0;
  iam::ar::ResMade resmade({4, 3, 5}, config, /*seed=*/1);
  std::ostringstream resmade_out(std::ios::binary);
  resmade.Serialize(resmade_out);
  WriteSeed(dir, "05_resmade_valid.bin", EnvelopeSeed(2, resmade_out.str()));
  const std::string resmade_bytes = resmade_out.str();
  WriteSeed(dir, "06_resmade_truncated.bin",
            EnvelopeSeed(2, resmade_bytes.substr(0, resmade_bytes.size() / 3)));

  // Mode 3: one reducer blob per mixture family (GMM, Laplace).
  iam::gmm::Gmm1D gmm(2);
  gmm.SetComponent(0, 0.0, -1.0, 0.5);
  gmm.SetComponent(1, 0.5, 2.0, 1.5);
  std::ostringstream gmm_out(std::ios::binary);
  iam::bucketize::GmmReducer(gmm).Serialize(gmm_out);
  WriteSeed(dir, "07_reducer_gmm.bin", EnvelopeSeed(3, gmm_out.str()));
  iam::gmm::LaplaceMixture1D laplace(2);
  laplace.SetComponent(0, 0.0, -1.0, 0.5);
  laplace.SetComponent(1, 0.5, 2.0, 1.5);
  std::ostringstream laplace_out(std::ios::binary);
  iam::bucketize::LaplaceReducer(laplace).Serialize(laplace_out);
  WriteSeed(dir, "08_reducer_laplace.bin", EnvelopeSeed(3, laplace_out.str()));
}

void MakeQueryParserSeeds(const std::filesystem::path& dir) {
  const std::vector<std::pair<std::string, std::string>> seeds = {
      {"01_range.txt", "x >= 0.5 AND y < 3"},
      {"02_between.txt", "x BETWEEN -1.5 AND 2.25 AND c = 3"},
      {"03_strict_categorical.txt", "c > 1 AND c < 3"},
      {"04_point.txt", "x = 7"},
      {"05_merge.txt", "y <= 1e9 AND y >= -1e9 AND y BETWEEN 0 AND 0.5"},
      {"06_precision.txt", "x >= 0.30000000000000004"},
      {"07_bad_operator.txt", "x >< 1"},
      {"08_dangling.txt", "x BETWEEN 1 AND"},
      {"09_unknown_column.txt", "q = 1"},
  };
  for (const auto& [name, text] : seeds) WriteSeed(dir, name, text);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-output-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  for (const char* target : {"frame_decoder", "envelope", "query_parser"}) {
    std::filesystem::create_directories(root / target);
  }
  MakeFrameDecoderSeeds(root / "frame_decoder");
  MakeEnvelopeSeeds(root / "envelope", root);
  MakeQueryParserSeeds(root / "query_parser");
  std::printf("seed corpora written under %s\n", root.string().c_str());
  return 0;
}
