#include "gmm/gmm1d.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/macros.h"
#include "util/math_util.h"
#include "util/serialize.h"

namespace iam::gmm {
namespace {

constexpr double kMinScale = 1e-6;
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;

// Mixture-training instrumentation: step counters plus last-seen NLL gauges
// (the per-epoch convergence signal the benches read; see DESIGN.md §12).
// Both families count here.
struct GmmMetrics {
  obs::Counter& em_steps;
  obs::Counter& sgd_steps;
  obs::Gauge& em_nll;
  obs::Gauge& sgd_nll;

  static GmmMetrics& Get() {
    static GmmMetrics metrics = [] {
      obs::MetricRegistry& reg = obs::MetricRegistry::Global();
      return GmmMetrics{
          reg.GetCounter("iam_gmm_em_steps_total"),
          reg.GetCounter("iam_gmm_sgd_steps_total"),
          reg.GetGauge("iam_gmm_em_nll"),
          reg.GetGauge("iam_gmm_sgd_nll"),
      };
    }();
    return metrics;
  }
};

double LaplaceCdf(double x, double mu, double b) {
  if (x < mu) return 0.5 * std::exp((x - mu) / b);
  return 1.0 - 0.5 * std::exp(-(x - mu) / b);
}

}  // namespace

// --- Gaussian family. -------------------------------------------------------

double Gaussian::LogPdf(double x, double mu, double s) {
  return NormalLogPdf(x, mu, s);
}

GradTerms Gaussian::Grad(double x, double mu, double s) {
  // d/d mu: -r (x - mu) / s^2; d/d log s: -r (z^2 - 1).
  const double z = (x - mu) / s;
  return {z, z * z - 1.0};
}

double Gaussian::IntervalMass(double lo, double hi, double mu, double s) {
  return NormalIntervalMass(lo, hi, mu, s);
}

double Gaussian::TruncatedMean(double lo, double hi, double mu, double s) {
  const double a = (lo - mu) / s;
  const double b = (hi - mu) / s;
  const double mass = NormalCdf(b) - NormalCdf(a);
  if (mass < 1e-12) return Clamp(mu, lo, hi);
  // E[X | a < Z < b] = mu + sigma * (phi(a) - phi(b)) / (Phi(b) - Phi(a)).
  const double pa = std::isfinite(a) ? NormalPdf(a) : 0.0;
  const double pb = std::isfinite(b) ? NormalPdf(b) : 0.0;
  return mu + s * (pa - pb) / mass;
}

double Gaussian::Sample(double mu, double s, Rng& rng) {
  return rng.Gaussian(mu, s);
}

// --- Laplace family. --------------------------------------------------------

double Laplace::LogPdf(double x, double mu, double s) {
  return -std::abs(x - mu) / s - std::log(2.0 * s);
}

GradTerms Laplace::Grad(double x, double mu, double s) {
  // d/d mu: -r sign(x - mu) / b; d/d log b: -r (|x - mu| / b - 1).
  const double d = x - mu;
  const double sign = d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0);
  return {sign, std::abs(d) / s - 1.0};
}

double Laplace::IntervalMass(double lo, double hi, double mu, double s) {
  return LaplaceCdf(hi, mu, s) - LaplaceCdf(lo, mu, s);
}

double Laplace::TruncatedMean(double lo, double hi, double mu, double s) {
  const double mass = IntervalMass(lo, hi, mu, s);
  if (mass < 1e-12) return Clamp(mu, lo, hi);

  // Piecewise antiderivatives of t * f(t):
  //   left of mu:  A_l(x) = (x - b)/2 * exp((x - mu)/b)
  //   right of mu: A_r(x) = -(x + b)/2 * exp(-(x - mu)/b)
  auto left = [&](double x) {
    if (!std::isfinite(x)) return 0.0;  // x -> -inf
    return 0.5 * (x - s) * std::exp((x - mu) / s);
  };
  auto right = [&](double x) {
    if (!std::isfinite(x)) return 0.0;  // x -> +inf
    return -0.5 * (x + s) * std::exp(-(x - mu) / s);
  };
  double integral = 0.0;
  if (hi <= mu) {
    integral = left(hi) - left(lo);
  } else if (lo >= mu) {
    integral = right(hi) - right(lo);
  } else {
    integral = (left(mu) - left(lo)) + (right(hi) - right(mu));
  }
  return integral / mass;
}

double Laplace::Sample(double mu, double s, Rng& rng) {
  const double u = rng.Uniform() - 0.5;
  const double sign = u >= 0.0 ? 1.0 : -1.0;
  return mu - s * sign * std::log(1.0 - 2.0 * std::abs(u));
}

// --- Mixture1D. -------------------------------------------------------------

template <class Family>
Mixture1D<Family>::Mixture1D(int num_components)
    : weight_logits_(num_components, 0.0),
      locations_(num_components, 0.0),
      log_scales_(num_components, 0.0),
      adam_m_(3 * num_components, 0.0),
      adam_v_(3 * num_components, 0.0) {
  IAM_CHECK(num_components >= 1);
}

template <class Family>
std::vector<double> Mixture1D<Family>::weights() const {
  const int k = num_components();
  std::vector<double> phi(k);
  const double max_logit =
      *std::max_element(weight_logits_.begin(), weight_logits_.end());
  double denom = 0.0;
  for (int j = 0; j < k; ++j) {
    phi[j] = std::exp(weight_logits_[j] - max_logit);
    denom += phi[j];
  }
  for (int j = 0; j < k; ++j) phi[j] /= denom;
  return phi;
}

template <class Family>
double Mixture1D<Family>::scale(int k) const {
  return std::max(kMinScale, std::exp(log_scales_[k]));
}

template <class Family>
void Mixture1D<Family>::SetComponent(int k, double weight_logit,
                                     double location, double scale) {
  IAM_CHECK(k >= 0 && k < num_components());
  IAM_CHECK(scale > 0.0);
  weight_logits_[k] = weight_logit;
  locations_[k] = location;
  log_scales_[k] = std::log(scale);
}

template <class Family>
void Mixture1D<Family>::InitFromData(std::span<const double> data, Rng& rng) {
  IAM_CHECK(!data.empty());
  const int k = num_components();
  const MeanVar mv = ComputeMeanVar(data);
  const double spread =
      std::max(kMinScale, std::sqrt(mv.variance) / std::max(1.0, (double)k));

  // K-means++ style seeding: first location uniform, then proportional to
  // the squared distance to the closest existing location.
  std::vector<double> chosen;
  chosen.push_back(data[rng.UniformInt(data.size())]);
  std::vector<double> dist2(data.size());
  while (static_cast<int>(chosen.size()) < k) {
    double total = 0.0;
    for (size_t i = 0; i < data.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (double c : chosen) {
        const double d = data[i] - c;
        best = std::min(best, d * d);
      }
      dist2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // Fewer distinct values than components: jitter around the mean.
      chosen.push_back(mv.mean + rng.Gaussian(0.0, spread + kMinScale));
      continue;
    }
    chosen.push_back(data[rng.CategoricalWithSum(dist2, total)]);
  }

  for (int j = 0; j < k; ++j) {
    weight_logits_[j] = 0.0;
    locations_[j] = chosen[j];
    log_scales_[j] = std::log(spread);
  }
  std::fill(adam_m_.begin(), adam_m_.end(), 0.0);
  std::fill(adam_v_.begin(), adam_v_.end(), 0.0);
  adam_step_ = 0;
}

template <class Family>
std::vector<double> Mixture1D<Family>::LogTerms(double x) const {
  const int k = num_components();
  std::vector<double> log_terms(k);
  const double max_logit =
      *std::max_element(weight_logits_.begin(), weight_logits_.end());
  double denom = 0.0;
  for (double w : weight_logits_) denom += std::exp(w - max_logit);
  const double log_denom = std::log(denom) + max_logit;
  for (int j = 0; j < k; ++j) {
    log_terms[j] = (weight_logits_[j] - log_denom) +
                   Family::LogPdf(x, locations_[j], scale(j));
  }
  return log_terms;
}

template <class Family>
std::vector<double> Mixture1D<Family>::Responsibilities(double x) const {
  std::vector<double> resp = LogTerms(x);
  const double lse = LogSumExp(resp);
  for (double& r : resp) r = std::exp(r - lse);
  return resp;
}

template <class Family>
double Mixture1D<Family>::NegLogLikelihood(double x) const {
  return -LogSumExp(LogTerms(x));
}

template <class Family>
double Mixture1D<Family>::MeanNegLogLikelihood(
    std::span<const double> data) const {
  IAM_CHECK(!data.empty());
  double total = 0.0;
  for (double x : data) total += NegLogLikelihood(x);
  return total / static_cast<double>(data.size());
}

template <class Family>
int Mixture1D<Family>::Assign(double x) const {
  const int k = num_components();
  int best = 0;
  double best_score = kNegInf;
  const double max_logit =
      *std::max_element(weight_logits_.begin(), weight_logits_.end());
  for (int j = 0; j < k; ++j) {
    // argmax of phi_k * f_k: the softmax denominator is shared, so logits
    // can be compared directly (shifted by max for stability).
    const double score = (weight_logits_[j] - max_logit) +
                         Family::LogPdf(x, locations_[j], scale(j));
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

template <class Family>
double Mixture1D<Family>::SgdStep(std::span<const double> batch) {
  IAM_CHECK(!batch.empty());
  const int k = num_components();
  std::vector<double> grad(3 * k, 0.0);
  double total_nll = 0.0;
  const std::vector<double> phi = weights();  // shared across the batch

  std::vector<double> log_terms(k);
  const double inv_b = 1.0 / static_cast<double>(batch.size());
  for (double x : batch) {
    for (int j = 0; j < k; ++j) {
      log_terms[j] = std::log(std::max(phi[j], 1e-300)) +
                     Family::LogPdf(x, locations_[j], scale(j));
    }
    const double lse = LogSumExp(log_terms);
    total_nll += -lse;
    for (int j = 0; j < k; ++j) {
      const double r = std::exp(log_terms[j] - lse);  // responsibility
      const double s = scale(j);
      const GradTerms terms = Family::Grad(x, locations_[j], s);
      // d(-log S)/d w_j = -(r_j - phi_j)
      grad[j] += -(r - phi[j]) * inv_b;
      grad[k + j] += -r * terms.location / s * inv_b;
      grad[2 * k + j] += -r * terms.log_scale * inv_b;
    }
  }

  AdamUpdate(grad);
  const double mean_nll = total_nll * inv_b;
  GmmMetrics& metrics = GmmMetrics::Get();
  metrics.sgd_steps.Add();
  metrics.sgd_nll.Set(mean_nll);
  return mean_nll;
}

template <class Family>
void Mixture1D<Family>::AdamUpdate(std::span<const double> grad) {
  const int k = num_components();
  IAM_CHECK(static_cast<int>(grad.size()) == 3 * k);
  ++adam_step_;
  const double bias1 = 1.0 - std::pow(kAdamBeta1, adam_step_);
  const double bias2 = 1.0 - std::pow(kAdamBeta2, adam_step_);
  auto update = [&](int idx, double& value) {
    adam_m_[idx] = kAdamBeta1 * adam_m_[idx] + (1.0 - kAdamBeta1) * grad[idx];
    adam_v_[idx] =
        kAdamBeta2 * adam_v_[idx] + (1.0 - kAdamBeta2) * grad[idx] * grad[idx];
    const double m_hat = adam_m_[idx] / bias1;
    const double v_hat = adam_v_[idx] / bias2;
    value -= learning_rate_ * m_hat / (std::sqrt(v_hat) + kAdamEps);
  };
  for (int j = 0; j < k; ++j) update(j, weight_logits_[j]);
  for (int j = 0; j < k; ++j) update(k + j, locations_[j]);
  for (int j = 0; j < k; ++j) update(2 * k + j, log_scales_[j]);
}

template <class Family>
double Mixture1D<Family>::EmStep(std::span<const double> data)
  requires std::same_as<Family, Gaussian>
{
  IAM_CHECK(!data.empty());
  const int k = num_components();
  std::vector<double> nk(k, 0.0);
  std::vector<double> sum_x(k, 0.0);
  std::vector<double> sum_x2(k, 0.0);
  const std::vector<double> phi = weights();

  std::vector<double> log_terms(k);
  double total_nll = 0.0;
  for (double x : data) {
    for (int j = 0; j < k; ++j) {
      log_terms[j] = std::log(std::max(phi[j], 1e-300)) +
                     NormalLogPdf(x, locations_[j], scale(j));
    }
    const double lse = LogSumExp(log_terms);
    total_nll += -lse;
    for (int j = 0; j < k; ++j) {
      const double r = std::exp(log_terms[j] - lse);
      nk[j] += r;
      sum_x[j] += r * x;
      sum_x2[j] += r * x * x;
    }
  }

  const double n = static_cast<double>(data.size());
  for (int j = 0; j < k; ++j) {
    if (nk[j] < 1e-10) continue;  // dead component, leave untouched
    const double mu = sum_x[j] / nk[j];
    const double var = std::max(kMinScale * kMinScale,
                                sum_x2[j] / nk[j] - mu * mu);
    locations_[j] = mu;
    log_scales_[j] = 0.5 * std::log(var);
    weight_logits_[j] = std::log(std::max(nk[j] / n, 1e-300));
  }
  const double mean_nll = total_nll / n;
  GmmMetrics& metrics = GmmMetrics::Get();
  metrics.em_steps.Add();
  metrics.em_nll.Set(mean_nll);
  return mean_nll;
}

template <class Family>
double Mixture1D<Family>::ComponentIntervalMass(int k, double lo,
                                                double hi) const {
  IAM_CHECK(k >= 0 && k < num_components());
  if (lo > hi) return 0.0;
  return Family::IntervalMass(lo, hi, locations_[k], scale(k));
}

template <class Family>
double Mixture1D<Family>::ComponentTruncatedMean(int k, double lo,
                                                 double hi) const {
  IAM_CHECK(k >= 0 && k < num_components());
  return Family::TruncatedMean(lo, hi, locations_[k], scale(k));
}

template <class Family>
double Mixture1D<Family>::SampleComponent(int k, Rng& rng) const {
  IAM_CHECK(k >= 0 && k < num_components());
  return Family::Sample(locations_[k], scale(k), rng);
}

template <class Family>
double Mixture1D<Family>::Sample(Rng& rng) const {
  return SampleComponent(static_cast<int>(rng.Categorical(weights())), rng);
}

template <class Family>
void Mixture1D<Family>::Serialize(std::ostream& out) const {
  WriteVector(out, weight_logits_);
  WriteVector(out, locations_);
  WriteVector(out, log_scales_);
}

template <class Family>
Result<Mixture1D<Family>> Mixture1D<Family>::Deserialize(std::istream& in) {
  std::vector<double> logits, locations, log_scales;
  IAM_RETURN_IF_ERROR(ReadVector(in, &logits));
  IAM_RETURN_IF_ERROR(ReadVector(in, &locations));
  IAM_RETURN_IF_ERROR(ReadVector(in, &log_scales));
  if (logits.empty() || logits.size() != locations.size() ||
      locations.size() != log_scales.size()) {
    return Status::IoError("inconsistent mixture blob");
  }
  Mixture1D mixture(static_cast<int>(locations.size()));
  mixture.weight_logits_ = std::move(logits);
  mixture.locations_ = std::move(locations);
  mixture.log_scales_ = std::move(log_scales);
  // Finite parameters keep weights() and every range mass a number: a NaN
  // or infinite logit makes the softmax NaN, and a non-finite location or
  // scale makes the CDF differences NaN, which would reach the estimates.
  for (int k = 0; k < mixture.num_components(); ++k) {
    if (!std::isfinite(mixture.weight_logits_[k]) ||
        !std::isfinite(mixture.location(k)) ||
        !std::isfinite(mixture.log_scales_[k]) ||
        !std::isfinite(mixture.scale(k))) {
      return Status::IoError("non-finite mixture parameter");
    }
  }
  return mixture;
}

template <class Family>
std::vector<double> ExactRangeMass(const Mixture1D<Family>& mixture, double lo,
                                   double hi) {
  std::vector<double> mass(mixture.num_components());
  for (int k = 0; k < mixture.num_components(); ++k) {
    mass[k] = mixture.ComponentIntervalMass(k, lo, hi);
  }
  return mass;
}

template class Mixture1D<Gaussian>;
template class Mixture1D<Laplace>;
template std::vector<double> ExactRangeMass(const Gmm1D&, double, double);
template std::vector<double> ExactRangeMass(const LaplaceMixture1D&, double,
                                            double);

}  // namespace iam::gmm
