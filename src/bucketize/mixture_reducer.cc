#include "bucketize/mixture_reducer.h"

#include "obs/metrics.h"
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
std::vector<double> MixtureReducer<Family>::RangeMass(double lo,
                                                      double hi) const {
  RangeMassEvals().Add();
  return gmm::ExactRangeMass(mixture_, lo, hi);
}

template <class Family>
void MixtureReducer<Family>::Serialize(std::ostream& out) const {
  WriteString(out, Family::kName);
  mixture_.Serialize(out);
}

template class MixtureReducer<gmm::Gaussian>;
template class MixtureReducer<gmm::Laplace>;

}  // namespace iam::bucketize
