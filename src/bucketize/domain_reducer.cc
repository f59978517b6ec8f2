#include "bucketize/domain_reducer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bucketize/mixture_reducer.h"
#include "util/macros.h"
#include "util/serialize.h"

namespace iam::bucketize {

double DomainReducer::RepresentativeValue(int bucket, double lo,
                                          double hi) const {
  // Default: midpoint of the intersection of the bucket's own support with
  // [lo, hi], probed via RangeMass on a bisection. Subclasses override with
  // cheaper exact forms; this generic fallback only needs RangeMass.
  (void)bucket;
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    // Without finite bounds there is no generic answer; subclasses override.
    return std::isfinite(lo) ? lo : (std::isfinite(hi) ? hi : 0.0);
  }
  return 0.5 * (lo + hi);
}

namespace {

// Shared base for reducers whose buckets are contiguous intervals
// [edges[k], edges[k+1]) with uniform mass inside and weight weights[k].
class IntervalReducer : public DomainReducer {
 public:
  IntervalReducer(std::string name, std::vector<double> edges,
                  std::vector<double> weights)
      : name_(std::move(name)),
        edges_(std::move(edges)),
        weights_(std::move(weights)) {
    IAM_CHECK(edges_.size() == weights_.size() + 1);
    IAM_CHECK(!weights_.empty());
    IAM_CHECK(std::is_sorted(edges_.begin(), edges_.end()));
  }

  std::string name() const override { return name_; }
  int num_buckets() const override {
    return static_cast<int>(weights_.size());
  }

  int Assign(double x) const override {
    // upper_bound on the left edges: the bucket whose interval contains x;
    // values outside the observed domain clamp to the first/last bucket.
    const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
    long idx = (it - edges_.begin()) - 1;
    idx = std::clamp<long>(idx, 0, num_buckets() - 1);
    return static_cast<int>(idx);
  }

  std::vector<double> RangeMass(double lo, double hi) const override {
    std::vector<double> mass(weights_.size(), 0.0);
    if (lo > hi) return mass;
    for (size_t k = 0; k < weights_.size(); ++k) {
      const double bl = edges_[k];
      const double bh = edges_[k + 1];
      const double inter_lo = std::max(lo, bl);
      const double inter_hi = std::min(hi, bh);
      if (inter_hi < inter_lo) continue;
      if (bh > bl) {
        mass[k] = (inter_hi - inter_lo) / (bh - bl);
      } else {
        // Degenerate (single-value) bucket: fully covered if it intersects.
        mass[k] = 1.0;
      }
      mass[k] = std::min(mass[k], 1.0);
    }
    return mass;
  }

  size_t SizeBytes() const override {
    return (edges_.size() + weights_.size()) * sizeof(double);
  }

  double RepresentativeValue(int bucket, double lo, double hi) const override {
    const double bl = std::max(lo, edges_[bucket]);
    const double bh = std::min(hi, edges_[bucket + 1]);
    if (bh < bl) return 0.5 * (edges_[bucket] + edges_[bucket + 1]);
    return 0.5 * (bl + bh);  // uniform inside the bucket
  }

  void Serialize(std::ostream& out) const override {
    WriteString(out, "interval");
    WriteString(out, name_);
    WriteVector(out, edges_);
    WriteVector(out, weights_);
  }

 protected:
  std::string name_;
  std::vector<double> edges_;
  std::vector<double> weights_;
};

std::vector<double> SortedCopy(std::span<const double> data) {
  std::vector<double> xs(data.begin(), data.end());
  std::sort(xs.begin(), xs.end());
  return xs;
}

// Uniform mixture model reducer: buckets are the true extents of 1-D
// clusters, which may leave gaps between them (unlike the tiling
// IntervalReducer). Values in a gap assign to the nearest bucket.
class UmmReducer : public DomainReducer {
 public:
  UmmReducer(std::vector<double> lo, std::vector<double> hi,
             std::vector<double> weights)
      : lo_(std::move(lo)), hi_(std::move(hi)), weights_(std::move(weights)) {
    IAM_CHECK(lo_.size() == hi_.size());
    IAM_CHECK(lo_.size() == weights_.size());
    IAM_CHECK(!lo_.empty());
  }

  std::string name() const override { return "umm"; }
  int num_buckets() const override { return static_cast<int>(lo_.size()); }

  int Assign(double x) const override {
    int best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int k = 0; k < num_buckets(); ++k) {
      if (x >= lo_[k] && x <= hi_[k]) return k;
      const double dist = x < lo_[k] ? lo_[k] - x : x - hi_[k];
      if (dist < best_dist) {
        best_dist = dist;
        best = k;
      }
    }
    return best;
  }

  std::vector<double> RangeMass(double lo, double hi) const override {
    std::vector<double> mass(lo_.size(), 0.0);
    if (lo > hi) return mass;
    for (size_t k = 0; k < lo_.size(); ++k) {
      const double inter_lo = std::max(lo, lo_[k]);
      const double inter_hi = std::min(hi, hi_[k]);
      if (inter_hi < inter_lo) continue;
      const double width = hi_[k] - lo_[k];
      mass[k] = width > 0.0 ? std::min(1.0, (inter_hi - inter_lo) / width)
                            : 1.0;
    }
    return mass;
  }

  size_t SizeBytes() const override {
    return 3 * lo_.size() * sizeof(double);
  }

  double RepresentativeValue(int bucket, double lo, double hi) const override {
    const double bl = std::max(lo, lo_[bucket]);
    const double bh = std::min(hi, hi_[bucket]);
    if (bh < bl) return 0.5 * (lo_[bucket] + hi_[bucket]);
    return 0.5 * (bl + bh);
  }

  void Serialize(std::ostream& out) const override {
    WriteString(out, "umm");
    WriteVector(out, lo_);
    WriteVector(out, hi_);
    WriteVector(out, weights_);
  }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<double> weights_;
};

// Both mixture families share one blob after their tag:
// Mixture1D::Serialize's weight logits, locations and log scales.
template <class Family>
Result<std::unique_ptr<DomainReducer>> DeserializeMixture(std::istream& in) {
  Result<gmm::Mixture1D<Family>> mixture =
      gmm::Mixture1D<Family>::Deserialize(in);
  if (!mixture.ok()) return mixture.status();
  return std::unique_ptr<DomainReducer>(
      std::make_unique<MixtureReducer<Family>>(std::move(mixture.value())));
}

}  // namespace

std::unique_ptr<DomainReducer> MakeEquiDepthReducer(
    std::span<const double> data, int num_buckets) {
  IAM_CHECK(!data.empty());
  IAM_CHECK(num_buckets >= 1);
  std::vector<double> xs = SortedCopy(data);
  const size_t n = xs.size();
  std::vector<double> edges;
  edges.reserve(num_buckets + 1);
  edges.push_back(xs.front());
  for (int k = 1; k < num_buckets; ++k) {
    const size_t idx = static_cast<size_t>(
        static_cast<double>(k) / num_buckets * static_cast<double>(n - 1));
    edges.push_back(xs[idx]);
  }
  edges.push_back(std::nextafter(xs.back(),
                                 std::numeric_limits<double>::infinity()));
  // De-duplicate edges (heavy hitters can collapse quantiles).
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  const int buckets = static_cast<int>(edges.size()) - 1;
  IAM_CHECK(buckets >= 1);

  // Weight = exact fraction of data per bucket.
  std::vector<double> weights(buckets, 0.0);
  for (int k = 0; k < buckets; ++k) {
    const auto first = std::lower_bound(xs.begin(), xs.end(), edges[k]);
    const auto last = std::lower_bound(xs.begin(), xs.end(), edges[k + 1]);
    weights[k] = static_cast<double>(last - first) / static_cast<double>(n);
  }
  return std::make_unique<IntervalReducer>("equidepth", std::move(edges),
                                           std::move(weights));
}

std::unique_ptr<DomainReducer> MakeSplineReducer(std::span<const double> data,
                                                 int num_buckets) {
  IAM_CHECK(!data.empty());
  IAM_CHECK(num_buckets >= 1);
  std::vector<double> xs = SortedCopy(data);
  const size_t n = xs.size();

  // Empirical CDF points (value, rank/n). Greedy knot insertion: start with
  // the endpoints, repeatedly add the data point with the largest vertical
  // distance to the current piecewise-linear interpolant.
  auto cdf = [&](size_t i) {
    return static_cast<double>(i + 1) / static_cast<double>(n);
  };

  std::vector<size_t> knots = {0, n - 1};
  while (static_cast<int>(knots.size()) - 1 < num_buckets) {
    double worst_err = -1.0;
    size_t worst_idx = 0;
    for (size_t seg = 0; seg + 1 < knots.size(); ++seg) {
      const size_t a = knots[seg];
      const size_t b = knots[seg + 1];
      if (b - a < 2) continue;
      const double xa = xs[a], xb = xs[b];
      const double ya = cdf(a), yb = cdf(b);
      // Sample the segment at up to 64 interior points for speed.
      const size_t step = std::max<size_t>(1, (b - a) / 64);
      for (size_t i = a + 1; i < b; i += step) {
        double interp = ya;
        if (xb > xa) interp = ya + (yb - ya) * (xs[i] - xa) / (xb - xa);
        const double err = std::abs(cdf(i) - interp);
        if (err > worst_err) {
          worst_err = err;
          worst_idx = i;
        }
      }
    }
    if (worst_err <= 0.0) break;  // CDF already exactly piecewise linear
    knots.insert(std::upper_bound(knots.begin(), knots.end(), worst_idx),
                 worst_idx);
  }

  std::vector<double> edges;
  std::vector<double> weights;
  edges.push_back(xs[knots[0]]);
  double prev_cdf = 0.0;
  for (size_t seg = 1; seg < knots.size(); ++seg) {
    const double edge =
        seg + 1 == knots.size()
            ? std::nextafter(xs.back(), std::numeric_limits<double>::infinity())
            : xs[knots[seg]];
    if (edge <= edges.back()) continue;
    edges.push_back(edge);
    const double c = cdf(knots[seg]);
    weights.push_back(c - prev_cdf);
    prev_cdf = c;
  }
  if (weights.empty()) {
    edges = {xs.front(),
             std::nextafter(xs.back(), std::numeric_limits<double>::infinity())};
    weights = {1.0};
  }
  return std::make_unique<IntervalReducer>("spline", std::move(edges),
                                           std::move(weights));
}

std::unique_ptr<DomainReducer> MakeUmmReducer(std::span<const double> data,
                                              int num_buckets, Rng& rng) {
  IAM_CHECK(!data.empty());
  IAM_CHECK(num_buckets >= 1);

  // Subsample for Lloyd iterations.
  const size_t kMaxFit = 20000;
  std::vector<double> xs;
  if (data.size() > kMaxFit) {
    xs.reserve(kMaxFit);
    for (size_t i = 0; i < kMaxFit; ++i) {
      xs.push_back(data[rng.UniformInt(data.size())]);
    }
  } else {
    xs.assign(data.begin(), data.end());
  }
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();

  // 1-D k-means via Lloyd on sorted data (centers stay sorted).
  const int k = std::min<int>(num_buckets, static_cast<int>(n));
  std::vector<double> centers(k);
  for (int j = 0; j < k; ++j) {
    centers[j] = xs[(n - 1) * (2 * j + 1) / (2 * k)];
  }
  std::vector<size_t> boundary(k + 1);  // cluster j covers [boundary[j], boundary[j+1})
  for (int iter = 0; iter < 30; ++iter) {
    boundary[0] = 0;
    boundary[k] = n;
    for (int j = 1; j < k; ++j) {
      const double mid = 0.5 * (centers[j - 1] + centers[j]);
      boundary[j] = std::lower_bound(xs.begin(), xs.end(), mid) - xs.begin();
      boundary[j] = std::max(boundary[j], boundary[j - 1]);
    }
    bool moved = false;
    for (int j = 0; j < k; ++j) {
      if (boundary[j + 1] <= boundary[j]) continue;
      double sum = 0.0;
      for (size_t i = boundary[j]; i < boundary[j + 1]; ++i) sum += xs[i];
      const double c = sum / static_cast<double>(boundary[j + 1] - boundary[j]);
      if (std::abs(c - centers[j]) > 1e-12) moved = true;
      centers[j] = c;
    }
    if (!moved) break;
  }

  // Each non-empty cluster becomes a uniform bucket over its own extent;
  // clusters do not tile the domain, so gaps between modes carry no mass.
  std::vector<double> lo, hi, weights;
  for (int j = 0; j < k; ++j) {
    const size_t end = boundary[j + 1];
    if (end <= boundary[j]) continue;
    lo.push_back(xs[boundary[j]]);
    hi.push_back(xs[end - 1]);
    weights.push_back(static_cast<double>(end - boundary[j]) /
                      static_cast<double>(n));
  }
  if (lo.empty()) {
    lo = {xs.front()};
    hi = {xs.back()};
    weights = {1.0};
  }
  return std::make_unique<UmmReducer>(std::move(lo), std::move(hi),
                                      std::move(weights));
}

Result<std::unique_ptr<DomainReducer>> DomainReducer::Deserialize(
    std::istream& in) {
  std::string tag;
  IAM_RETURN_IF_ERROR(ReadString(in, &tag));
  if (tag == "interval") {
    std::string name;
    std::vector<double> edges, weights;
    IAM_RETURN_IF_ERROR(ReadString(in, &name));
    IAM_RETURN_IF_ERROR(ReadVector(in, &edges));
    IAM_RETURN_IF_ERROR(ReadVector(in, &weights));
    if (edges.size() != weights.size() + 1 || weights.empty() ||
        !std::is_sorted(edges.begin(), edges.end())) {
      return Status::IoError("inconsistent interval reducer blob");
    }
    return std::unique_ptr<DomainReducer>(std::make_unique<IntervalReducer>(
        std::move(name), std::move(edges), std::move(weights)));
  }
  if (tag == "umm") {
    std::vector<double> lo, hi, weights;
    IAM_RETURN_IF_ERROR(ReadVector(in, &lo));
    IAM_RETURN_IF_ERROR(ReadVector(in, &hi));
    IAM_RETURN_IF_ERROR(ReadVector(in, &weights));
    if (lo.size() != hi.size() || lo.size() != weights.size() || lo.empty()) {
      return Status::IoError("inconsistent umm reducer blob");
    }
    return std::unique_ptr<DomainReducer>(std::make_unique<UmmReducer>(
        std::move(lo), std::move(hi), std::move(weights)));
  }
  if (tag == gmm::Gaussian::kName) {
    return DeserializeMixture<gmm::Gaussian>(in);
  }
  if (tag == gmm::Laplace::kName) {
    return DeserializeMixture<gmm::Laplace>(in);
  }
  return Status::IoError("unknown reducer tag '" + tag + "'");
}

}  // namespace iam::bucketize
