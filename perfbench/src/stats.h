#ifndef CPDG_PERFBENCH_STATS_H_
#define CPDG_PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.h"

namespace perfbench {

/// \brief Nearest-rank percentile of a sample, with the sample size and
/// the number of samples strictly above the reported rank.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
};

/// Nearest-rank q-quantile (q in (0, 1]) of `values`: the ceil(q*n)-th
/// smallest. An empty sample gives {0, 0, 0}.
Percentile ComputePercentile(std::vector<double> values, double q);

/// \brief A q-percentile robust to short stalls: the samples are split by
/// due time into `windows` equal spans of [start_us, end_us), the
/// q-percentile of each non-empty span is taken, and their median is
/// returned. `samples` holds (due_us, value) pairs. `min_window_samples`,
/// when non-null, receives the sample count of the smallest span.
double MedianOfWindowPercentiles(
    const std::vector<std::pair<int64_t, double>>& samples, int64_t start_us,
    int64_t end_us, int windows, double q,
    int64_t* min_window_samples = nullptr);

/// Median of `values` (mean of the two middle ones when n is even); 0 for
/// an empty sample.
double Median(std::vector<double> values);

/// \brief Inclusive and self time of every span with one name.
struct SpanTime {
  int64_t count = 0;
  double inclusive_s = 0.0;
  /// Inclusive time minus the time covered by direct child spans.
  double self_s = 0.0;
};

/// \brief Folds closed spans into per-name inclusive and self time.
///
/// Spans nest per thread: a span's parent is the latest-opened span on the
/// same thread with depth one less that is still open at its start (spans
/// are RAII scopes, so the per-thread intervals are properly nested).
std::map<std::string, SpanTime> FoldSpans(
    const std::vector<cpdg::obs::SpanEvent>& events);

/// Adds `from` into `into` name by name.
void MergeSpanTimes(const std::map<std::string, SpanTime>& from,
                    std::map<std::string, SpanTime>* into);

/// \brief Outcome counts of an open-loop phase. Every attempt ends in
/// exactly one bucket.
struct Attempts {
  int64_t attempted = 0;
  int64_t answered = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t failed = 0;

  int64_t not_answered() const { return rejected + shed + expired + failed; }
  /// answered + rejected + shed + expired + failed == attempted.
  bool Balanced() const { return answered + not_answered() == attempted; }
  void Add(const Attempts& other);
};

}  // namespace perfbench

#endif  // CPDG_PERFBENCH_STATS_H_
