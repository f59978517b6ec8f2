#ifndef IAM_GMM_GMM1D_H_
#define IAM_GMM_GMM1D_H_

#include <concepts>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace iam::gmm {

// Per-component terms of the mixture-NLL gradient for one point x, with
// responsibility r and scale s: d(-log S)/d mu = -r * location / s and
// d(-log S)/d log s = -r * log_scale.
struct GradTerms {
  double location;
  double log_scale;
};

// Component families for Mixture1D. A family supplies only what differs
// between component shapes, each as a function of the component's location
// mu and scale s (the Gaussian's standard deviation, the Laplace's b).
//
// Gaussian: the paper's GMM components (Section 4.2).
struct Gaussian {
  static constexpr const char* kName = "gmm";
  static double LogPdf(double x, double mu, double s);
  static GradTerms Grad(double x, double mu, double s);
  static double IntervalMass(double lo, double hi, double mu, double s);
  // Truncated-normal mean; the clamped location when [lo, hi] carries
  // negligible mass.
  static double TruncatedMean(double lo, double hi, double mu, double s);
  static double Sample(double mu, double s, Rng& rng);
};

// Laplace: the paper's "other mixture models" future work. Heavier tails
// than Gaussians, with closed-form CDF and truncated mean.
struct Laplace {
  static constexpr const char* kName = "laplace";
  static double LogPdf(double x, double mu, double s);
  static GradTerms Grad(double x, double mu, double s);
  static double IntervalMass(double lo, double hi, double mu, double s);
  static double TruncatedMean(double lo, double hi, double mu, double s);
  static double Sample(double mu, double s, Rng& rng);
};

// One-dimensional mixture of `Family` components, the paper's per-attribute
// domain reducer (Section 4.2). Parameters are stored in trainable form —
// weight logits, locations, log scales — so the same object supports the
// paper's batched SGD on the negative log-likelihood (Equation 4), which is
// what lets the mixture join the AR model's mini-batch loop, and, for
// Gaussians, classic EM. Instantiated for Gaussian and Laplace in gmm1d.cc.
template <class Family>
class Mixture1D {
 public:
  explicit Mixture1D(int num_components);

  int num_components() const { return static_cast<int>(locations_.size()); }

  std::vector<double> weights() const;  // softmax of the weight logits
  double weight(int k) const { return weights()[k]; }
  double location(int k) const { return locations_[k]; }
  double scale(int k) const;

  void SetComponent(int k, double weight_logit, double location, double scale);

  // K-means++-style seeding from data: locations at spread-out sample
  // points, scales at the data scale, uniform weights.
  void InitFromData(std::span<const double> data, Rng& rng);

  // One Adam step on a mini-batch; returns the mean NLL (Equation 4).
  // Gradients are analytic via component responsibilities.
  double SgdStep(std::span<const double> batch);
  void set_learning_rate(double lr) { learning_rate_ = lr; }

  // One full-data EM iteration; returns the mean NLL before the update.
  double EmStep(std::span<const double> data)
    requires std::same_as<Family, Gaussian>;

  // -log sum_k phi_k f(x | mu_k, s_k).
  double NegLogLikelihood(double x) const;
  double MeanNegLogLikelihood(std::span<const double> data) const;

  // argmax_k phi_k f(x | mu_k, s_k) — the reduced attribute value
  // (Equation 5).
  int Assign(double x) const;

  // Per-component responsibilities P_k(x) (normalized). Used by tests.
  std::vector<double> Responsibilities(double x) const;

  // Exact mass of [lo, hi] under component k (via the family's CDF).
  double ComponentIntervalMass(int k, double lo, double hi) const;

  // Mean of component k truncated to [lo, hi]; used by the
  // approximate-aggregation (AVG/SUM) extension. Falls back to the clamped
  // component location when the interval carries negligible mass.
  double ComponentTruncatedMean(int k, double lo, double hi) const;

  // Draws one point from component k.
  double SampleComponent(int k, Rng& rng) const;
  // Draws one point from the mixture.
  double Sample(Rng& rng) const;

  // Three doubles per component, as the paper counts GMM storage.
  size_t SizeBytes() const { return locations_.size() * 3 * sizeof(double); }

  // Model persistence (parameters only; optimizer state is not preserved).
  void Serialize(std::ostream& out) const;
  static Result<Mixture1D> Deserialize(std::istream& in);

 private:
  // log(phi_j f(x | mu_j, s_j)) for every component j.
  std::vector<double> LogTerms(double x) const;
  // Adam state for (weight logits, locations, log scales) flattened as 3K
  // values.
  void AdamUpdate(std::span<const double> grad);

  std::vector<double> weight_logits_;
  std::vector<double> locations_;
  std::vector<double> log_scales_;

  double learning_rate_ = 5e-3;
  long adam_step_ = 0;
  std::vector<double> adam_m_;
  std::vector<double> adam_v_;
};

using Gmm1D = Mixture1D<Gaussian>;
using LaplaceMixture1D = Mixture1D<Laplace>;

extern template class Mixture1D<Gaussian>;
extern template class Mixture1D<Laplace>;

// Per-component mass of [lo, hi] as a CDF difference: \hat P_GMM(R) of
// Section 5.2. The paper estimates it as S_k / S from S samples drawn per
// component; the CDF difference is that estimate's S -> infinity limit.
template <class Family>
std::vector<double> ExactRangeMass(const Mixture1D<Family>& mixture, double lo,
                                   double hi);

}  // namespace iam::gmm

#endif  // IAM_GMM_GMM1D_H_
