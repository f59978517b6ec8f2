#include "common.h"

#include <algorithm>
#include <cmath>

namespace iam::perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void Report::Set(const std::string& name, double value) {
  Metric m;
  m.value = value;
  m.q1 = m.median = m.q3 = value;
  metrics_[name] = m;
}

void Report::SetSummary(const std::string& name, double value,
                        const std::vector<double>& samples) {
  Metric m;
  m.value = value;
  m.n = samples.size();
  m.q1 = Quantile(samples, 0.25);
  m.median = Quantile(samples, 0.5);
  m.q3 = Quantile(samples, 0.75);
  metrics_[name] = m;
}

void Report::SetMedian(const std::string& name,
                       const std::vector<double>& samples) {
  SetSummary(name, Quantile(samples, 0.5), samples);
}

double Report::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

double CounterDelta::Counter(const std::string& prefix) const {
  double total = 0.0;
  for (const auto& [name, value] : after_.counters) {
    if (name.rfind(prefix, 0) == 0) total += static_cast<double>(value);
  }
  for (const auto& [name, value] : before_.counters) {
    if (name.rfind(prefix, 0) == 0) total -= static_cast<double>(value);
  }
  return total;
}

obs::HistogramSnapshot CounterDelta::Histogram(
    const std::string& prefix) const {
  obs::HistogramSnapshot out;
  auto accumulate = [&](const obs::MetricsSnapshot& snap, bool add) {
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      if (h.name.rfind(prefix, 0) != 0) continue;
      if (out.bounds.empty()) {
        out.bounds = h.bounds;
        out.bucket_counts.assign(h.bucket_counts.size(), 0);
      }
      // Counts only grow, so after - before never wraps.
      for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
        out.bucket_counts[i] = add ? out.bucket_counts[i] + h.bucket_counts[i]
                                   : out.bucket_counts[i] - h.bucket_counts[i];
      }
      out.count = add ? out.count + h.count : out.count - h.count;
      out.sum += add ? h.sum : -h.sum;
    }
  };
  accumulate(after_, true);
  accumulate(before_, false);
  return out;
}

}  // namespace iam::perfbench
