#ifndef IAM_BUCKETIZE_MIXTURE_REDUCER_H_
#define IAM_BUCKETIZE_MIXTURE_REDUCER_H_

#include <utility>

#include "bucketize/domain_reducer.h"
#include "gmm/gmm1d.h"

namespace iam::bucketize {

// DomainReducer adapter over a trained 1-D mixture: one bucket per
// component, trained jointly with the AR model (Section 4.3). Range masses
// are per-component CDF differences (gmm::ExactRangeMass), the S -> infinity
// limit of the paper's S-samples-per-component estimate (Section 5.2), so
// they follow the mixture's current parameters with no refresh step.
template <class Family>
class MixtureReducer final : public DomainReducer {
 public:
  using Mixture = gmm::Mixture1D<Family>;

  explicit MixtureReducer(Mixture mixture) : mixture_(std::move(mixture)) {}

  std::string name() const override { return Family::kName; }
  int num_buckets() const override { return mixture_.num_components(); }
  int Assign(double x) const override { return mixture_.Assign(x); }
  std::vector<double> RangeMass(double lo, double hi) const override;
  size_t SizeBytes() const override { return mixture_.SizeBytes(); }
  double RepresentativeValue(int bucket, double lo, double hi) const override {
    return mixture_.ComponentTruncatedMean(bucket, lo, hi);
  }

  const Mixture& mixture() const { return mixture_; }
  Mixture& mutable_mixture() { return mixture_; }

  void Serialize(std::ostream& out) const override;

  bool trainable() const override { return true; }
  double TrainStep(std::span<const double> batch) override {
    return mixture_.SgdStep(batch);
  }

 private:
  Mixture mixture_;
};

using GmmReducer = MixtureReducer<gmm::Gaussian>;
using LaplaceReducer = MixtureReducer<gmm::Laplace>;

extern template class MixtureReducer<gmm::Gaussian>;
extern template class MixtureReducer<gmm::Laplace>;

}  // namespace iam::bucketize

#endif  // IAM_BUCKETIZE_MIXTURE_REDUCER_H_
