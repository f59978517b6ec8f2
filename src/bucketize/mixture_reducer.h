#ifndef IAM_BUCKETIZE_MIXTURE_REDUCER_H_
#define IAM_BUCKETIZE_MIXTURE_REDUCER_H_

#include <cstdint>
#include <optional>
#include <type_traits>

#include "bucketize/domain_reducer.h"
#include "gmm/gmm1d.h"

namespace iam::bucketize {

// Cap on a Monte-Carlo sample index, components x samples per component:
// 2^22 doubles (32 MiB) per reducer, over ten times the paper configuration
// (30 components x 10 000 samples). Building a reducer above it fails a
// check, and loading a blob above it fails with a Status, so every model
// file the program writes it can read back.
inline constexpr int64_t kMaxRangeSamples = int64_t{1} << 22;

// DomainReducer adapter over a trained 1-D mixture: one bucket per
// component, trained jointly with the AR model (Section 4.3).
//
// Range masses: the Gaussian family uses the paper's Monte-Carlo estimate
// (S samples per component, drawn once and reused across queries) unless
// `exact` is requested, in which case the normal CDF is evaluated directly —
// the exact mode exists for verification and the "impact of GMM sample
// number" ablation. The Laplace family always uses its closed-form CDF.
template <class Family>
class MixtureReducer final : public DomainReducer {
 public:
  using Mixture = gmm::Mixture1D<Family>;

  MixtureReducer(Mixture mixture, int samples_per_component = 0,
                 bool exact = true, uint64_t seed = 0);

  std::string name() const override { return Family::kName; }
  int num_buckets() const override { return mixture_.num_components(); }
  int Assign(double x) const override { return mixture_.Assign(x); }
  std::vector<double> RangeMass(double lo, double hi) const override;
  size_t SizeBytes() const override { return mixture_.SizeBytes(); }
  double RepresentativeValue(int bucket, double lo, double hi) const override {
    return mixture_.ComponentTruncatedMean(bucket, lo, hi);
  }

  const Mixture& mixture() const { return mixture_; }
  // Mutable access for joint training; call RefreshSamples afterwards so the
  // Monte-Carlo range masses match the updated parameters.
  Mixture& mutable_mixture() { return mixture_; }

  // Rebuilds the Monte-Carlo sample index (after further training).
  void RefreshSamples(uint64_t seed);

  void Serialize(std::ostream& out) const override;

  bool trainable() const override { return true; }
  double TrainStep(std::span<const double> batch) override {
    return mixture_.SgdStep(batch);
  }
  void PostEpoch(uint64_t seed) override { RefreshSamples(seed); }

 private:
  // Only the paper's Gaussian components draw Monte-Carlo range masses.
  static constexpr bool kMonteCarlo = std::is_same_v<Family, gmm::Gaussian>;

  Mixture mixture_;
  int samples_per_component_;
  bool exact_;
  std::optional<gmm::ComponentSampleIndex> samples_;  // empty when exact
};

using GmmReducer = MixtureReducer<gmm::Gaussian>;
using LaplaceReducer = MixtureReducer<gmm::Laplace>;

extern template class MixtureReducer<gmm::Gaussian>;
extern template class MixtureReducer<gmm::Laplace>;

}  // namespace iam::bucketize

#endif  // IAM_BUCKETIZE_MIXTURE_REDUCER_H_
