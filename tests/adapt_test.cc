// Tests of the online-adaptation subsystem (DESIGN.md §18): the kFeedback /
// kAppendData payload codecs, the per-region corrector's EMA/decay/bounded-
// memory semantics, the corrector-off bit-exactness guarantee on a real
// estimator, and the AdaptController's closed loop — feedback to corrector
// update, drift trigger to retrain-and-swap, failure and skip paths. The
// wire-level pieces (frames, acks, races across shards) live in
// serve_net_test.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "adapt/controller.h"
#include "adapt/corrector.h"
#include "adapt/feedback.h"
#include "core/ar_density_estimator.h"
#include "query/parser.h"
#include "query/query.h"
#include "serve/demo.h"
#include "serve/model_registry.h"

namespace iam {
namespace {

// --- Payload codecs. ---------------------------------------------------------

TEST(FeedbackPayloadTest, SeqFormRoundTrips) {
  const auto parsed = adapt::ParseFeedbackPayload("seq=42 actual=0.125");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, 42u);
  EXPECT_DOUBLE_EQ(parsed->actual, 0.125);
  EXPECT_TRUE(parsed->predicates.empty());

  const std::string encoded = adapt::EncodeFeedbackPayload(*parsed);
  const auto reparsed = adapt::ParseFeedbackPayload(encoded);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->seq, parsed->seq);
  EXPECT_EQ(reparsed->actual, parsed->actual);
}

TEST(FeedbackPayloadTest, InlineFormRoundTrips) {
  const auto parsed = adapt::ParseFeedbackPayload(
      "actual=0.25 where latitude BETWEEN 35 AND 45");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, 0u);
  EXPECT_DOUBLE_EQ(parsed->actual, 0.25);
  EXPECT_EQ(parsed->predicates, "latitude BETWEEN 35 AND 45");

  const std::string encoded = adapt::EncodeFeedbackPayload(*parsed);
  const auto reparsed = adapt::ParseFeedbackPayload(encoded);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->predicates, parsed->predicates);
  EXPECT_EQ(reparsed->actual, parsed->actual);
}

TEST(FeedbackPayloadTest, ActualSurvivesBitExactly) {
  adapt::FeedbackPayload feedback;
  feedback.seq = 7;
  feedback.actual = 0.1 + 0.2;  // not exactly representable as 0.3
  const auto reparsed =
      adapt::ParseFeedbackPayload(adapt::EncodeFeedbackPayload(feedback));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->actual, feedback.actual);  // %.17g round trip
}

TEST(FeedbackPayloadTest, RejectsMalformedPayloads) {
  const char* bad[] = {
      "",
      "actual=0.5",                 // inline form without predicates
      "seq=0 actual=0.5",           // seq is 1-based
      "seq=-3 actual=0.5",          // negative seq
      "seq=7 actual=1.5",           // selectivity above 1
      "seq=7 actual=-0.1",          // below 0
      "seq=7 actual=nan",           // non-finite
      "seq=7 actual=0.5 trailing",  // trailing garbage
      "actual=0.5 wherelatitude >= 1",  // "where" must be a whole token
      "seq=x actual=0.5",
  };
  for (const char* payload : bad) {
    EXPECT_FALSE(adapt::ParseFeedbackPayload(payload).ok())
        << "accepted: " << payload;
  }
  // Embedded NUL must not silently truncate the scan.
  EXPECT_FALSE(
      adapt::ParseFeedbackPayload(std::string_view("seq=7 actual=0.5\0x", 18))
          .ok());
}

TEST(AppendPayloadTest, RoundTrips) {
  adapt::AppendPayload append;
  append.cols = 2;
  append.values = {1.5, -2.25, 3.0, 4.125};
  const std::string encoded = adapt::EncodeAppendPayload(append);
  const auto parsed = adapt::ParseAppendPayload(encoded);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->cols, 2);
  EXPECT_EQ(parsed->rows(), 2u);
  EXPECT_EQ(parsed->values, append.values);
}

TEST(AppendPayloadTest, RejectsMalformedPayloads) {
  const char* bad[] = {
      "",
      "1,2\n",             // missing cols= header
      "cols=0\n",          // zero columns
      "cols=2\n1\n",       // short row
      "cols=2\n1,2,3\n",   // long row
      "cols=2\n1,inf\n",   // non-finite value
      "cols=2\n1,two\n",   // non-numeric field
      "cols=9999999\n1\n", // absurd width
  };
  for (const char* payload : bad) {
    EXPECT_FALSE(adapt::ParseAppendPayload(payload).ok())
        << "accepted: " << payload;
  }
}

// --- RegionCorrector. --------------------------------------------------------

TEST(RegionCorrectorTest, UnknownRegionIsIdentity) {
  adapt::RegionCorrector corrector;
  EXPECT_DOUBLE_EQ(corrector.MultiplierForRegion(123), 1.0);
  EXPECT_EQ(corrector.NumRegions(), 0u);
}

TEST(RegionCorrectorTest, EmaConvergesTowardObservedRatio) {
  adapt::CorrectorOptions options;
  options.decay_per_feedback = 1.0;  // isolate the EMA
  adapt::RegionCorrector corrector(options);
  // The served estimate is 4x too low; repeated feedback should converge the
  // region multiplier to ~4.
  for (int i = 0; i < 64; ++i) corrector.Observe(9, 0.05, 0.2);
  EXPECT_NEAR(corrector.MultiplierForRegion(9), 4.0, 0.05);
  EXPECT_EQ(corrector.Updates(), 64u);
  EXPECT_EQ(corrector.NumRegions(), 1u);
}

TEST(RegionCorrectorTest, SingleObservationIsClampedToMaxLog) {
  adapt::CorrectorOptions options;
  options.ema_alpha = 1.0;
  options.decay_per_feedback = 1.0;
  adapt::RegionCorrector corrector(options);
  // A 10^6x feedback ratio clamps at exp(max_abs_log) = 16.
  corrector.Observe(1, 1e-8, 1e-2);
  EXPECT_NEAR(corrector.MultiplierForRegion(1), 16.0, 1e-9);
  corrector.Observe(2, 1e-2, 1e-8);
  EXPECT_NEAR(corrector.MultiplierForRegion(2), 1.0 / 16.0, 1e-9);
}

TEST(RegionCorrectorTest, StaleRegionsDecayTowardIdentity) {
  adapt::CorrectorOptions options;
  options.ema_alpha = 1.0;
  options.decay_per_feedback = 0.5;
  adapt::RegionCorrector corrector(options);
  corrector.Observe(7, 0.1, 0.4);  // region 7: multiplier 4
  // No observations have passed since the update: no decay yet.
  EXPECT_NEAR(corrector.MultiplierForRegion(7), 4.0, 1e-9);
  // Ten observations of other regions later, region 7's correction has
  // washed out by 0.5^10.
  for (int i = 0; i < 10; ++i) corrector.Observe(100 + i, 0.1, 0.1);
  EXPECT_NEAR(corrector.MultiplierForRegion(7),
              std::exp(std::log(4.0) * std::pow(0.5, 10)), 1e-6);
}

TEST(RegionCorrectorTest, RegionCapDropsNewRegionsDeterministically) {
  adapt::CorrectorOptions options;
  options.max_regions = 2;
  adapt::RegionCorrector corrector(options);
  corrector.Observe(1, 0.1, 0.2);
  corrector.Observe(2, 0.1, 0.2);
  corrector.Observe(3, 0.1, 0.2);  // dropped, not evicting
  EXPECT_EQ(corrector.NumRegions(), 2u);
  EXPECT_EQ(corrector.DroppedRegions(), 1u);
  EXPECT_DOUBLE_EQ(corrector.MultiplierForRegion(3), 1.0);
  EXPECT_GT(corrector.MultiplierForRegion(1), 1.0);
  // Known regions still update at the cap; Updates() counts only applied
  // observations (3: two inserts + this one), not the dropped region.
  corrector.Observe(1, 0.1, 0.2);
  EXPECT_EQ(corrector.Updates(), 3u);
  EXPECT_EQ(corrector.DroppedRegions(), 1u);
}

TEST(RegionCorrectorTest, ResetClearsStateAndTagsGeneration) {
  adapt::RegionCorrector corrector;
  corrector.Observe(5, 0.1, 0.4);
  ASSERT_GT(corrector.MultiplierForRegion(5), 1.0);
  corrector.Reset(17);
  EXPECT_EQ(corrector.generation(), 17u);
  EXPECT_EQ(corrector.NumRegions(), 0u);
  EXPECT_DOUBLE_EQ(corrector.MultiplierForRegion(5), 1.0);
}

TEST(RegionCorrectorTest, StateDigestIsDeterministic) {
  adapt::RegionCorrector a;
  adapt::RegionCorrector b;
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  const uint64_t keys[] = {3, 1, 4, 1, 5, 9, 2, 6};
  for (const uint64_t key : keys) {
    a.Observe(key, 0.01 * static_cast<double>(key + 1), 0.05);
    b.Observe(key, 0.01 * static_cast<double>(key + 1), 0.05);
  }
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  a.Observe(42, 0.1, 0.2);
  EXPECT_NE(a.StateDigest(), b.StateDigest());
}

// --- Corrector hook on a real estimator. ------------------------------------

class CorrectorEstimatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = serve::TrainDemoEstimator(800, 5).release();
    predicates_ = new std::vector<std::string>(serve::DemoPredicates(16, 29));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete predicates_;
    predicates_ = nullptr;
  }

  std::vector<query::Query> ParseAll() {
    const data::Table schema = model_->SchemaTable();
    std::vector<query::Query> queries;
    for (const std::string& text : *predicates_) {
      auto parsed = query::ParsePredicates(schema, text);
      EXPECT_TRUE(parsed.ok()) << text;
      if (parsed.ok()) queries.push_back(std::move(*parsed));
    }
    return queries;
  }

  static core::ArDensityEstimator* model_;
  static std::vector<std::string>* predicates_;
};

core::ArDensityEstimator* CorrectorEstimatorTest::model_ = nullptr;
std::vector<std::string>* CorrectorEstimatorTest::predicates_ = nullptr;

TEST_F(CorrectorEstimatorTest, DisabledCorrectorIsBitExact) {
  const std::vector<query::Query> queries = ParseAll();
  const std::vector<double> baseline = model_->EstimateBatch(queries);

  // Installed, then removed: once removed the correction loop must not run
  // at all.
  auto corrector = std::make_shared<adapt::RegionCorrector>();
  for (const query::Query& q : queries) {
    corrector->Observe(model_->CorrectorRegionKey(q), 0.01, 0.9);
  }
  model_->set_corrector(corrector);
  EXPECT_NE(model_->EstimateBatch(queries), baseline);
  model_->set_corrector(nullptr);
  const std::vector<double> removed = model_->EstimateBatch(queries);
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(removed[i], baseline[i]) << "query " << i;  // bit-exact
  }
}

TEST_F(CorrectorEstimatorTest, EnabledCorrectorScalesEstimates) {
  const std::vector<query::Query> queries = ParseAll();
  model_->set_corrector(nullptr);
  const std::vector<double> baseline = model_->EstimateBatch(queries);

  adapt::CorrectorOptions options;
  options.ema_alpha = 1.0;
  options.decay_per_feedback = 1.0;
  auto corrector = std::make_shared<adapt::RegionCorrector>(options);
  // Teach the corrector that query 0's region is 2x underestimated.
  const uint64_t key0 = model_->CorrectorRegionKey(queries[0]);
  corrector->Observe(key0, 0.1, 0.2);
  model_->set_corrector(corrector);
  std::vector<estimator::QueryDiagnostics> diags(queries.size());
  const std::vector<double> corrected =
      model_->EstimateBatchDiagnosed(queries, diags);
  model_->set_corrector(nullptr);

  EXPECT_NEAR(corrected[0], std::min(1.0, baseline[0] * 2.0), 1e-12);
  EXPECT_EQ(diags[0].region_key, key0);
  EXPECT_NEAR(diags[0].corrector_multiplier, 2.0, 1e-9);
  for (size_t i = 1; i < queries.size(); ++i) {
    if (model_->CorrectorRegionKey(queries[i]) == key0) continue;
    EXPECT_EQ(corrected[i], baseline[i]) << "query " << i;
    EXPECT_DOUBLE_EQ(diags[i].corrector_multiplier, 1.0);
  }
}

TEST_F(CorrectorEstimatorTest, RegionKeyIsAPureFunctionOfTheQuery) {
  const std::vector<query::Query> queries = ParseAll();
  for (const query::Query& q : queries) {
    EXPECT_EQ(model_->CorrectorRegionKey(q), model_->CorrectorRegionKey(q));
  }
  // Distinct predicates should (overwhelmingly) land in distinct regions.
  EXPECT_NE(model_->CorrectorRegionKey(queries[0]),
            model_->CorrectorRegionKey(queries[1]));
}

// --- AdaptController. --------------------------------------------------------

class AdaptControllerTest : public ::testing::Test {
 protected:
  static std::unique_ptr<serve::ModelRegistry> MakeRegistry() {
    return std::make_unique<serve::ModelRegistry>(
        serve::TrainDemoEstimator(800, 5), "demo", /*num_threads=*/1,
        /*replicas=*/1);
  }

  static std::string AppendPayloadFromTable(const data::Table& table) {
    adapt::AppendPayload append;
    append.cols = table.num_columns();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      for (int c = 0; c < table.num_columns(); ++c) {
        append.values.push_back(table.value(r, c));
      }
    }
    return adapt::EncodeAppendPayload(append);
  }
};

TEST_F(AdaptControllerTest, FeedbackUpdatesCorrectorAndWindow) {
  auto registry = MakeRegistry();
  adapt::AdaptOptions options;
  options.trigger_p90_qerror = 0.0;  // no retraining in this test
  options.min_window_fill = 4;
  adapt::AdaptController controller(*registry, options);
  EXPECT_EQ(controller.corrector().generation(), 1u);

  const std::vector<std::string> predicates = serve::DemoPredicates(8, 31);
  for (const std::string& text : predicates) {
    adapt::FeedbackPayload feedback;
    feedback.actual = 0.25;
    feedback.predicates = text;
    const auto ack =
        controller.OnFeedback(adapt::EncodeFeedbackPayload(feedback));
    EXPECT_TRUE(ack.accepted) << ack.message;
  }
  controller.Flush();
  EXPECT_EQ(controller.FeedbackProcessed(), predicates.size());
  EXPECT_GE(controller.corrector().Updates(), predicates.size());
  EXPECT_GT(controller.corrector().NumRegions(), 0u);
  EXPECT_GT(controller.WindowP90(), 0.0);
  EXPECT_EQ(controller.Retrains(), 0u);
}

TEST_F(AdaptControllerTest, MalformedAndUnresolvableFeedbackIsRejected) {
  auto registry = MakeRegistry();
  adapt::AdaptOptions options;
  options.trigger_p90_qerror = 0.0;
  adapt::AdaptController controller(*registry, options);

  // Malformed: rejected synchronously at intake.
  const auto bad = controller.OnFeedback("actual=banana");
  EXPECT_FALSE(bad.accepted);
  EXPECT_FALSE(bad.overloaded);
  EXPECT_FALSE(bad.message.empty());

  // Well-formed but unresolvable (no such query-log record): accepted, then
  // discarded by the adaptation thread without touching the corrector.
  const auto miss = controller.OnFeedback("seq=987654321 actual=0.5");
  EXPECT_TRUE(miss.accepted);
  controller.Flush();
  EXPECT_EQ(controller.FeedbackProcessed(), 0u);
  EXPECT_EQ(controller.corrector().Updates(), 0u);

  // Append with the wrong arity is rejected at intake (schema has 2 cols).
  const auto widths = controller.OnAppendData("cols=3\n1,2,3\n");
  EXPECT_FALSE(widths.accepted);
}

TEST_F(AdaptControllerTest, QueueOverflowAcksOverloaded) {
  auto registry = MakeRegistry();
  adapt::AdaptOptions options;
  options.trigger_p90_qerror = 0.0;
  options.queue_capacity = 1;
  adapt::AdaptController controller(*registry, options);

  // Burst faster than the adaptation thread can drain: at least one of a
  // rapid burst must be accepted and, with capacity 1, overflow is expected
  // quickly. (The worker may drain between sends, so assert on the ack
  // protocol rather than an exact count.)
  int overloaded = 0;
  for (int i = 0; i < 64; ++i) {
    const auto ack = controller.OnFeedback("seq=987654321 actual=0.5");
    if (ack.overloaded) ++overloaded;
  }
  controller.Flush();
  EXPECT_GT(overloaded, 0);
}

TEST_F(AdaptControllerTest, DriftTriggersExactlyOneRetrainAndSwap) {
  auto registry = MakeRegistry();
  ASSERT_EQ(registry->current_version(), 1u);

  adapt::AdaptOptions options;
  options.trigger_p90_qerror = 1.5;  // fires on consistently bad q-errors
  options.window = 16;
  options.min_window_fill = 8;
  options.min_feedback_between_retrains = 8;
  options.min_retrain_rows = 256;
  options.retrain_epochs = 1;
  adapt::AdaptController controller(*registry, options);

  // Fill the reservoir with shifted rows — the "new" distribution.
  const data::Table shifted = serve::ShiftedDemoTable(512, 11, 1.5);
  const auto appended =
      controller.OnAppendData(AppendPayloadFromTable(shifted));
  ASSERT_TRUE(appended.accepted) << appended.message;
  controller.Flush();
  EXPECT_EQ(controller.ReservoirRows(), 512u);

  // Systematically wrong estimates (actual far from served) breach the p90
  // trigger once the window fills; the controller must retrain exactly once
  // and swap the registry to version 2.
  const std::vector<std::string> predicates = serve::DemoPredicates(12, 33);
  for (const std::string& text : predicates) {
    adapt::FeedbackPayload feedback;
    feedback.actual = 0.9;  // the demo model estimates these far lower
    feedback.predicates = text;
    const auto ack =
        controller.OnFeedback(adapt::EncodeFeedbackPayload(feedback));
    ASSERT_TRUE(ack.accepted);
  }
  controller.Flush();

  EXPECT_EQ(controller.Retrains(), 1u);
  EXPECT_EQ(controller.RetrainFailures(), 0u);
  EXPECT_EQ(registry->current_version(), 2u);
  EXPECT_EQ(registry->Current()->source, "adapt-retrain");
  // The install hook reset the corrector at the generation boundary; any
  // regions alive now came from post-swap feedback against generation 2
  // (the tail of the feedback burst), never from generation 1.
  EXPECT_EQ(controller.corrector().generation(), 2u);
  EXPECT_LT(controller.corrector().NumRegions(), predicates.size());
}

TEST_F(AdaptControllerTest, InsufficientReservoirSkipsRetrain) {
  auto registry = MakeRegistry();
  adapt::AdaptOptions options;
  options.trigger_p90_qerror = 1.5;
  options.window = 16;
  options.min_window_fill = 4;
  options.min_feedback_between_retrains = 4;
  options.min_retrain_rows = 100000;  // unreachable
  adapt::AdaptController controller(*registry, options);

  const std::vector<std::string> predicates = serve::DemoPredicates(8, 37);
  for (const std::string& text : predicates) {
    adapt::FeedbackPayload feedback;
    feedback.actual = 0.9;
    feedback.predicates = text;
    ASSERT_TRUE(
        controller.OnFeedback(adapt::EncodeFeedbackPayload(feedback))
            .accepted);
  }
  controller.Flush();

  EXPECT_EQ(controller.Retrains(), 0u);
  EXPECT_EQ(controller.RetrainFailures(), 0u);
  EXPECT_EQ(registry->current_version(), 1u);  // old model kept serving
}

}  // namespace
}  // namespace iam
