#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile ComputePercentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  int64_t rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(p.samples) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, p.samples);
  p.value = values[static_cast<size_t>(rank - 1)];
  p.beyond = p.samples - rank;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MedianOfWindowPercentiles(
    const std::vector<std::pair<int64_t, double>>& samples, int64_t start_us,
    int64_t end_us, int windows, double q, int64_t* min_window_samples) {
  std::vector<std::vector<double>> split(static_cast<size_t>(windows));
  const double span = static_cast<double>(end_us - start_us);
  for (const auto& [due_us, value] : samples) {
    const int w = static_cast<int>(static_cast<double>(due_us - start_us) /
                                   span * windows);
    split[static_cast<size_t>(std::clamp(w, 0, windows - 1))].push_back(value);
  }
  std::vector<double> per_window;
  if (min_window_samples != nullptr) {
    *min_window_samples = static_cast<int64_t>(samples.size());
    for (const std::vector<double>& values : split) {
      *min_window_samples = std::min<int64_t>(
          *min_window_samples, static_cast<int64_t>(values.size()));
    }
  }
  for (std::vector<double>& values : split) {
    if (!values.empty()) {
      per_window.push_back(ComputePercentile(std::move(values), q).value);
    }
  }
  return Median(std::move(per_window));
}

std::map<std::string, SpanTime> FoldSpans(
    const std::vector<cpdg::obs::SpanEvent>& events) {
  std::map<int32_t, std::vector<const cpdg::obs::SpanEvent*>> by_thread;
  for (const cpdg::obs::SpanEvent& e : events) {
    by_thread[e.tid].push_back(&e);
  }
  std::map<std::string, SpanTime> out;
  for (auto& [tid, spans] : by_thread) {
    // Parents open no later than their children and sit one level up.
    std::sort(spans.begin(), spans.end(),
              [](const cpdg::obs::SpanEvent* a, const cpdg::obs::SpanEvent* b) {
                if (a->start_us != b->start_us) {
                  return a->start_us < b->start_us;
                }
                return a->depth < b->depth;
              });
    std::vector<int64_t> self_us(spans.size());
    std::vector<size_t> open;  // indices of the enclosing spans, by depth
    for (size_t i = 0; i < spans.size(); ++i) {
      const cpdg::obs::SpanEvent& e = *spans[i];
      self_us[i] = e.dur_us;
      while (!open.empty() && spans[open.back()]->depth >= e.depth) {
        open.pop_back();
      }
      if (!open.empty() && spans[open.back()]->depth == e.depth - 1) {
        self_us[open.back()] -= e.dur_us;
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTime& t = out[spans[i]->name];
      ++t.count;
      t.inclusive_s += static_cast<double>(spans[i]->dur_us) * 1e-6;
      // Microsecond rounding can make children overhang their parent.
      t.self_s += static_cast<double>(std::max<int64_t>(0, self_us[i])) * 1e-6;
    }
  }
  return out;
}

void MergeSpanTimes(const std::map<std::string, SpanTime>& from,
                    std::map<std::string, SpanTime>* into) {
  for (const auto& [name, t] : from) {
    SpanTime& dst = (*into)[name];
    dst.count += t.count;
    dst.inclusive_s += t.inclusive_s;
    dst.self_s += t.self_s;
  }
}

void Attempts::Add(const Attempts& other) {
  attempted += other.attempted;
  answered += other.answered;
  rejected += other.rejected;
  shed += other.shed;
  expired += other.expired;
  failed += other.failed;
}

}  // namespace perfbench
