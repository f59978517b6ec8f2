#ifndef IAM_BUCKETIZE_DOMAIN_REDUCER_H_
#define IAM_BUCKETIZE_DOMAIN_REDUCER_H_

#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace iam::bucketize {

// A domain reducer maps a continuous attribute onto a small integer domain
// [0, num_buckets) and can report, for a range R = [lo, hi], the vector
// \hat P(R) whose k-th entry is the fraction of bucket k's probability mass
// falling inside R. That vector is exactly the bias-correction term of IAM's
// unbiased progressive sampler (Section 5.2), so any reducer implementing
// this interface can be plugged into IAM — the paper's GMM, and the
// Section 6.6 alternatives (equi-depth histogram, spline histogram, UMM).
class DomainReducer {
 public:
  virtual ~DomainReducer() = default;

  virtual std::string name() const = 0;
  virtual int num_buckets() const = 0;

  // Reduced attribute value for x.
  virtual int Assign(double x) const = 0;

  // Per-bucket mass of [lo, hi]; entries in [0, 1].
  virtual std::vector<double> RangeMass(double lo, double hi) const = 0;

  // Expected attribute value of bucket k restricted to [lo, hi] — the
  // conditional mean used by the approximate-aggregation extension (AVG/SUM,
  // the paper's future work). Interval reducers return the midpoint of the
  // intersection; the GMM reducer returns the truncated-normal mean.
  virtual double RepresentativeValue(int bucket, double lo, double hi) const;

  // Storage footprint, for the model-size experiments.
  virtual size_t SizeBytes() const = 0;

  // Model persistence: writes a self-describing binary blob restorable with
  // Deserialize() — no access to the original data required.
  virtual void Serialize(std::ostream& out) const = 0;
  static Result<std::unique_ptr<DomainReducer>> Deserialize(std::istream& in);

  // --- Joint-training hooks (Section 4.3). ----------------------------------
  // Trainable reducers (the mixture models) take SGD steps inside the AR
  // model's mini-batch loop; static reducers (histograms, splines) are built
  // once and ignore these. RangeMass reads a reducer's current parameters,
  // so a step needs no follow-up before the next query.
  virtual bool trainable() const { return false; }
  // One SGD step on a batch of raw attribute values; returns the mean NLL.
  virtual double TrainStep(std::span<const double> batch) {
    (void)batch;
    return 0.0;
  }
};

// Equi-depth histogram: bucket boundaries at sample quantiles, uniform
// distribution assumed inside each bucket.
std::unique_ptr<DomainReducer> MakeEquiDepthReducer(
    std::span<const double> data, int num_buckets);

// Spline-based histogram (Neumann & Michel): piecewise-linear approximation
// of the empirical CDF with knots inserted greedily at the point of maximum
// interpolation error; each CDF segment is one bucket.
std::unique_ptr<DomainReducer> MakeSplineReducer(std::span<const double> data,
                                                 int num_buckets);

// Uniform mixture model: 1-D Lloyd clustering of a sample; each cluster
// becomes a uniform bucket over its extent, weighted by its population.
std::unique_ptr<DomainReducer> MakeUmmReducer(std::span<const double> data,
                                              int num_buckets, Rng& rng);

}  // namespace iam::bucketize

#endif  // IAM_BUCKETIZE_DOMAIN_REDUCER_H_
