#ifndef CPDG_UTIL_THREAD_POOL_H_
#define CPDG_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cpdg::util {

/// \brief Fixed-size worker pool with a deterministic data-parallel
/// primitive.
///
/// The determinism contract: ParallelFor splits [begin, end) into chunks of
/// exactly `grain` elements (the last chunk may be shorter). Chunk
/// boundaries depend only on (begin, end, grain) — never on the worker
/// count or on scheduling — so any kernel where each chunk owns a disjoint
/// slice of its output produces bitwise-identical results at every thread
/// count, including the fully serial fallback. Chunks are assigned to
/// workers statically (chunk c runs on participant c mod Q, where
/// Q = min(P, num_chunks) — regions with fewer chunks than threads enroll
/// only as many participants as there are chunks, so surplus workers never
/// join the completion barrier); there is no work stealing.
///
/// Nested ParallelFor calls (from inside a chunk body) degrade to the
/// serial fallback on the calling thread, so parallel outer loops (e.g.
/// per-seed benchmark cells) can freely invoke parallel tensor kernels
/// without deadlock; the inner kernels run serially inside each worker.
///
/// Dispatch spins, then parks: after a region a worker polls for the next
/// one for up to kSpinWindow before it sleeps on the condition variable,
/// and the caller polls for its region's completion for the same window
/// before it sleeps. Back-to-back regions (the training step's GEMMs and
/// row kernels) therefore cost no futex round trip, while an idle pool
/// sleeps after at most kSpinWindow. A spinner that this machine's
/// scheduler preempted mid-spin (two polls more than kPreemptGap apart,
/// with an involuntary context switch in between) turns spinning off for
/// the whole pool for kContentionBackoff: on an oversubscribed machine the
/// pool parks instead of competing for CPU with the threads that have work.
/// A pool with more threads than the CPUs it may run on never spins.
class ThreadPool {
 public:
  /// Total parallelism including the calling thread: a pool of size P
  /// spawns P-1 worker threads and the caller executes the first stripe.
  /// num_threads == 1 spawns nothing and runs everything serially.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// \brief Invokes fn(chunk_begin, chunk_end) for every grain-sized chunk
  /// of [begin, end). Blocks until all chunks have run. The serial fallback
  /// iterates the identical chunk sequence in order, so per-chunk
  /// reductions merge identically at any thread count.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// \brief Process-wide pool used by the tensor kernels and the seed
  /// fan-out; sized by DefaultNumThreads() on first use.
  static ThreadPool& Global();

  /// \brief Replaces the global pool with one of the given size. Intended
  /// for benchmarks that sweep thread counts; must not be called while
  /// parallel work is in flight.
  static void SetGlobalNumThreads(int num_threads);

  /// \brief CPDG_NUM_THREADS environment knob if set (>= 1; 1 means fully
  /// serial), otherwise std::thread::hardware_concurrency().
  static int DefaultNumThreads();

  /// How long a worker polls for the next region, and the caller for its
  /// region's completion, before falling back to a condition-variable wait.
  /// Longer than the usual gap between a training step's kernel regions,
  /// so the workers stay awake through a step.
  static constexpr std::chrono::microseconds kSpinWindow{1000};

  /// Two spin polls further apart than this may mean the spinner lost its
  /// core to another thread; uncontended polls are well under a microsecond
  /// apart. The involuntary context switch count then tells a preemption
  /// from an interrupt or from the hypervisor pausing the virtual CPU.
  static constexpr std::chrono::microseconds kPreemptGap{50};

  /// How long the pool stops spinning after a spinner was preempted.
  static constexpr std::chrono::milliseconds kContentionBackoff{100};

 private:
  /// Shared state of one in-flight ParallelFor region.
  struct Region {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t begin = 0;
    int64_t grain = 0;
    int64_t num_chunks = 0;
    int64_t end = 0;
    int participants = 0;
    std::atomic<int> remaining{0};
  };

  void WorkerLoop(int worker_id);
  static void RunStripe(const Region& region, int participant);

  const int num_threads_;
  std::vector<std::thread> workers_;

  /// Serializes concurrent ParallelFor launches from distinct threads.
  std::mutex launch_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Region* region_ = nullptr;  // guarded by mu_
  // Written only under mu_; atomic so spinning workers can poll them
  // without the lock.
  std::atomic<uint64_t> region_gen_{0};
  std::atomic<bool> stop_{false};
  /// Steady-clock nanoseconds before which no thread of the pool spins.
  std::atomic<int64_t> spin_off_until_{0};
};

}  // namespace cpdg::util

#endif  // CPDG_UTIL_THREAD_POOL_H_
