#ifndef IAM_PERFBENCH_COMMON_H_
#define IAM_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace iam::perfbench {

// Monotonic seconds; every timing in the benchmark reads this clock.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 when
// empty.
double Quantile(std::vector<double> samples, double q);

// One reported metric: its value plus, when it summarizes samples, their
// count and quartiles (printed on the human-readable lines; the final JSON
// line carries the value only). Units live with the metric names in
// main.cc.
struct Metric {
  double value = 0.0;
  size_t n = 1;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

class Report {
 public:
  // A single measured value (a count, a ratio, a size).
  void Set(const std::string& name, double value);
  // `value` summarizing `samples` (e.g. their p90); n and quartiles come from
  // the samples.
  void SetSummary(const std::string& name, double value,
                  const std::vector<double>& samples);
  // Median of `samples`, with their quartiles.
  void SetMedian(const std::string& name, const std::vector<double>& samples);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  double Get(const std::string& name) const;

 private:
  std::map<std::string, Metric> metrics_;
};

// Process-global obs registry reads. The benchmark measures every module
// from outside: counters and histograms the modules already export are
// snapshotted before and after a stretch of work and differenced.
class CounterDelta {
 public:
  CounterDelta() : before_(obs::MetricRegistry::Global().Snapshot()) {}
  // Sum over every series whose name starts with `prefix` (all label
  // values), after minus before.
  double Counter(const std::string& prefix) const;
  // The bucket-wise difference of every histogram series starting with
  // `prefix`, merged across labels.
  obs::HistogramSnapshot Histogram(const std::string& prefix) const;
  void Refresh() { after_ = obs::MetricRegistry::Global().Snapshot(); }

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

// The ratio a / b, or 0 when b is 0 (a layer the workload never reached).
inline double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace iam::perfbench

#endif  // IAM_PERFBENCH_COMMON_H_
