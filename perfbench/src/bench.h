#ifndef CPDG_PERFBENCH_BENCH_H_
#define CPDG_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Directory for the run's files (checkpoint, advance journal); removed
  /// when the run ends.
  std::string work_dir;
};

/// Thread counts of the run, stamped into the output.
struct Threads {
  int pool = 0;
  int shards = 0;
  int generators = 0;
  int feeders = 0;
};

/// \brief What a workload reports: the result line's fields plus any
/// correctness failures (each one makes `correct` false).
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> errors;
  Threads threads;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(const std::string& what) { errors.push_back(what); }
};

/// \brief Span collection of a traced phase. Each Harvest() folds what the
/// profiler recorded since the last one into inclusive/self time per
/// (thread, name) and clears the buffers, so a long phase harvested often
/// enough stays under Profiler::kMaxEventsPerThread per thread.
class SpanHarvest {
 public:
  /// Clears the profiler, notes its dropped-span count, enables tracing.
  void Start();
  void Harvest();
  /// Harvest(), then disables tracing.
  void Stop();

  /// Totals over all threads, by span name.
  std::map<std::string, SpanTime> Totals() const;
  /// Totals of the threads that recorded a span named `name`.
  std::map<std::string, SpanTime> TotalsOfThreadsWith(
      const std::string& name) const;
  /// Durations (ms) of every top-level (depth 0) span named `name`
  /// harvested so far.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Spans the profiler dropped since Start().
  int64_t dropped() const { return dropped_; }

 private:
  std::map<int32_t, std::map<std::string, SpanTime>> by_thread_;
  std::map<std::string, std::vector<double>> durations_ms_;
  int64_t dropped_base_ = 0;
  int64_t dropped_ = 0;
};

/// Self time summed over the span names in `names`.
double SelfSeconds(const std::map<std::string, SpanTime>& totals,
                   const std::vector<std::string>& names);
/// Inclusive time of one span name (0 when absent).
double InclusiveSeconds(const std::map<std::string, SpanTime>& totals,
                        const std::string& name);

/// CPUs this process may run on (sched_getaffinity), at least 1.
int AvailableCpus();
/// Peak resident set of the process so far, MiB.
double PeakRssMb();
/// Heap allocations made through global operator new so far.
int64_t HeapAllocations();

/// \brief Reports the per-layer metrics every traced workload shares:
/// span times of `run` (the measured phase, `wall_s` long, on an engine of
/// `shards` executors, 0 when none) and the registry counters since they
/// were last reset. A layer that did not run reports 0.
void AddLayerMetrics(const SpanHarvest& run, double setup_load_checkpoint_s,
                     double wall_s, int shards, Report* report);

void RunTrainCell(const Args& args, Report* report);
/// `live`: serve_live (advance feeder + journal); otherwise serve_hot.
void RunServe(const Args& args, bool live, Report* report);

}  // namespace perfbench

#endif  // CPDG_PERFBENCH_BENCH_H_
