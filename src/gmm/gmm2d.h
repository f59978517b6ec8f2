#ifndef IAM_GMM_GMM2D_H_
#define IAM_GMM_GMM2D_H_

#include <span>
#include <vector>

#include "util/random.h"

namespace iam::gmm {

// Two-dimensional Gaussian mixture with full covariance — the design
// alternative the paper rejects in Section 4.2 ("One Gaussian Mixture Model
// for One Attribute"): a joint GMM can capture cross-attribute correlation,
// but its covariance storage grows quadratically with dimensionality and the
// paper found no accuracy benefit once the AR model handles correlations.
// This class exists to reproduce that comparison (bench_gmm_samples).
class Gmm2D {
 public:
  struct Component {
    double weight = 0.0;
    double mean[2] = {0.0, 0.0};
    // Full symmetric covariance {xx, xy, yy}.
    double cov[3] = {1.0, 0.0, 1.0};
  };

  explicit Gmm2D(int num_components);

  int num_components() const { return static_cast<int>(comps_.size()); }
  const Component& component(int k) const { return comps_[k]; }

  // K-means++-style seeding from (x, y) pairs.
  void InitFromData(std::span<const double> xs, std::span<const double> ys,
                    Rng& rng);

  // One EM iteration; returns the mean NLL before the update.
  double EmStep(std::span<const double> xs, std::span<const double> ys);

  double LogPdf(int k, double x, double y) const;
  double NegLogLikelihood(double x, double y) const;
  int Assign(double x, double y) const;

  // Monte-Carlo mass of the axis-aligned rectangle [xlo,xhi]x[ylo,yhi] under
  // component k (full covariance admits no closed form, unlike the 1-D
  // mixtures' CDF differences).
  double RectangleMass(int k, double xlo, double xhi, double ylo, double yhi,
                       int samples, Rng& rng) const;

  // Draws one point from component k.
  void SampleComponent(int k, Rng& rng, double* x, double* y) const;

  // weight + 2 means + 3 covariance entries per component: the O(d^2) cost
  // the paper's Section 4.2 memory argument is about.
  size_t SizeBytes() const { return comps_.size() * 6 * sizeof(double); }

 private:
  std::vector<Component> comps_;
};

}  // namespace iam::gmm

#endif  // IAM_GMM_GMM2D_H_
