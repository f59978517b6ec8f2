#include "bucketize/mixture_reducer.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/macros.h"
#include "util/serialize.h"

namespace iam::bucketize {
namespace {

// P̂_GMM(R_i) evaluation count (Section 4.2) — one per RangeMass call, i.e.
// per (query predicate, progressive-sampling step) pair on the hot path.
obs::Counter& RangeMassEvals() {
  static obs::Counter& counter =
      obs::MetricRegistry::Global().GetCounter("iam_gmm_range_mass_evals_total");
  return counter;
}

}  // namespace

template <class Family>
MixtureReducer<Family>::MixtureReducer(Mixture mixture,
                                       int samples_per_component, bool exact,
                                       uint64_t seed)
    : mixture_(std::move(mixture)),
      samples_per_component_(samples_per_component),
      exact_(exact || !kMonteCarlo) {
  IAM_CHECK(exact_ || (samples_per_component >= 1 &&
                       int64_t{samples_per_component} *
                               mixture_.num_components() <=
                           kMaxRangeSamples));
  RefreshSamples(seed);
}

template <class Family>
void MixtureReducer<Family>::RefreshSamples(uint64_t seed) {
  if (exact_) return;
  if constexpr (kMonteCarlo) {
    Rng rng(seed);
    samples_.emplace(mixture_, samples_per_component_, rng);
  }
}

template <class Family>
std::vector<double> MixtureReducer<Family>::RangeMass(double lo,
                                                      double hi) const {
  RangeMassEvals().Add();
  if (exact_) return gmm::ExactRangeMass(mixture_, lo, hi);
  return samples_->RangeMass(lo, hi);
}

template <class Family>
void MixtureReducer<Family>::Serialize(std::ostream& out) const {
  WriteString(out, Family::kName);
  if constexpr (kMonteCarlo) {
    WritePod<int32_t>(out, samples_per_component_);
    WritePod<uint8_t>(out, exact_ ? 1 : 0);
    mixture_.Serialize(out);
  } else {
    // The Laplace blob predates Mixture1D::Serialize: normalized log-weights
    // (which softmax maps back to the same weights), locations, and scales.
    const int k = mixture_.num_components();
    const std::vector<double> phi = mixture_.weights();
    std::vector<double> logits(k), locations(k), scales(k);
    for (int j = 0; j < k; ++j) {
      logits[j] = std::log(std::max(phi[j], 1e-300));
      locations[j] = mixture_.location(j);
      scales[j] = mixture_.scale(j);
    }
    WriteVector(out, logits);
    WriteVector(out, locations);
    WriteVector(out, scales);
  }
}

template class MixtureReducer<gmm::Gaussian>;
template class MixtureReducer<gmm::Laplace>;

}  // namespace iam::bucketize
