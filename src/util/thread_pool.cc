#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/check.h"

namespace cpdg::util {
namespace {

/// True on pool worker threads, and on the calling thread while it executes
/// its own stripe: any ParallelFor issued from such a context runs serially
/// inline instead of re-entering the pool.
thread_local bool tls_inside_parallel_region = false;

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

/// One spin-wait step: tells the core this is a busy-wait without giving
/// the core away.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield");
#endif
}

int64_t SteadyNanos(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// CPUs the calling thread may run on. hardware_concurrency() counts every
/// CPU of the machine, also under taskset or a cpuset.
int AllowedCpus() {
#ifdef CPU_COUNT
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// Times the calling thread was preempted by this machine's scheduler in
/// favour of another runnable thread. Time the hypervisor takes the whole
/// virtual CPU away does not count: no thread here could have used it.
/// -1 where the count is unavailable.
int64_t Preemptions() {
#ifdef RUSAGE_THREAD
  struct rusage usage;
  if (getrusage(RUSAGE_THREAD, &usage) == 0) return usage.ru_nivcsw;
#endif
  return -1;
}

/// Polls `done` until it returns true or ThreadPool::kSpinWindow elapses;
/// returns the last poll's result. The spin never yields: a yield hands the
/// core to any runnable thread, on a loaded machine often another process's,
/// which then keeps it for a whole time slice while this pool's region
/// waits. Instead, a gap longer than ThreadPool::kPreemptGap between two
/// polls, over which the scheduler preempted the spinner, shows another
/// thread wanted its core. The spin ends there and every spin of the pool
/// is skipped until `*spin_off_until` (steady-clock ns),
/// ThreadPool::kContentionBackoff later. A contended pool thus parks on its
/// condition variables, whose wakeups the scheduler serves promptly.
template <typename Pred>
bool SpinUntil(std::atomic<int64_t>* spin_off_until, Pred done) {
  if (done()) return true;
  auto last = std::chrono::steady_clock::now();
  if (SteadyNanos(last) < spin_off_until->load(std::memory_order_relaxed)) {
    return false;
  }
  const int64_t preempted = Preemptions();
  const auto deadline = last + ThreadPool::kSpinWindow;
  while (!done()) {
    CpuRelax();
    const auto now = std::chrono::steady_clock::now();
    if (now - last > ThreadPool::kPreemptGap &&
        (preempted < 0 || Preemptions() != preempted)) {
      spin_off_until->store(SteadyNanos(now + ThreadPool::kContentionBackoff),
                            std::memory_order_relaxed);
      return done();
    }
    if (now >= deadline) return done();
    last = now;
  }
  return true;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  CPDG_CHECK_GE(num_threads, 1);
  // A pool wider than the CPUs it may use is oversubscribed from the
  // start: it never spins.
  if (num_threads_ > AllowedCpus()) {
    spin_off_until_.store(std::numeric_limits<int64_t>::max(),
                          std::memory_order_relaxed);
  }
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunStripe(const Region& region, int participant) {
  for (int64_t c = participant; c < region.num_chunks;
       c += region.participants) {
    int64_t chunk_begin = region.begin + c * region.grain;
    int64_t chunk_end = std::min(region.end, chunk_begin + region.grain);
    (*region.fn)(chunk_begin, chunk_end);
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  CPDG_CHECK_GE(grain, 1);
  if (end <= begin) return;
  int64_t num_chunks = (end - begin + grain - 1) / grain;

  // Serial fallback: single-threaded pool, a single chunk, or a nested call
  // from inside a running region. Iterates the identical chunk sequence so
  // per-chunk results (and any per-chunk reductions the caller merges) are
  // bitwise identical to the parallel path.
  if (num_threads_ == 1 || num_chunks == 1 || tls_inside_parallel_region) {
    for (int64_t c = 0; c < num_chunks; ++c) {
      int64_t chunk_begin = begin + c * grain;
      fn(chunk_begin, std::min(end, chunk_begin + grain));
    }
    return;
  }

  std::lock_guard<std::mutex> launch_lk(launch_mu_);
  Region region;
  region.fn = &fn;
  region.begin = begin;
  region.end = end;
  region.grain = grain;
  region.num_chunks = num_chunks;
  // Regions with fewer chunks than threads enroll only as many
  // participants as there are chunks: surplus workers wake, see they have
  // no stripe, and go back to sleep without joining the completion
  // barrier. Chunk boundaries are untouched, so results are unchanged —
  // this only trims dispatch latency for small regions.
  region.participants = static_cast<int>(
      std::min<int64_t>(num_threads_, num_chunks));
  region.remaining.store(region.participants, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    region_ = &region;
    region_gen_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();

  tls_inside_parallel_region = true;
  RunStripe(region, 0);
  tls_inside_parallel_region = false;

  if (region.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1 &&
      !SpinUntil(&spin_off_until_, [&] {
        return region.remaining.load(std::memory_order_acquire) == 0;
      })) {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
      return region.remaining.load(std::memory_order_acquire) == 0;
    });
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    region_ = nullptr;
  }
}

void ThreadPool::WorkerLoop(int worker_id) {
  tls_inside_parallel_region = true;
  uint64_t seen_gen = 0;
  while (true) {
    // The spin only shortens the wait; the region is still claimed under
    // the lock below, whichever way the wait ended.
    SpinUntil(&spin_off_until_, [&] {
      return stop_.load(std::memory_order_acquire) ||
             region_gen_.load(std::memory_order_acquire) != seen_gen;
    });
    Region* region = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               (region_ != nullptr &&
                region_gen_.load(std::memory_order_relaxed) != seen_gen);
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      region = region_;
      seen_gen = region_gen_.load(std::memory_order_relaxed);
      // Workers beyond the participant count own no chunks and must not
      // touch the completion barrier. Decided under the lock: once it is
      // released the caller may finish the region and destroy it, so a
      // non-participant must never dereference the pointer again.
      if (worker_id >= region->participants) continue;
    }
    RunStripe(*region, worker_id);
    if (region->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  std::unique_ptr<ThreadPool>& slot = GlobalSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultNumThreads());
  return *slot;
}

void ThreadPool::SetGlobalNumThreads(int num_threads) {
  CPDG_CHECK_GE(num_threads, 1);
  std::unique_ptr<ThreadPool>& slot = GlobalSlot();
  slot = std::make_unique<ThreadPool>(num_threads);
}

int ThreadPool::DefaultNumThreads() {
  if (const char* v = std::getenv("CPDG_NUM_THREADS")) {
    long n = std::atol(v);
    if (n >= 1) return static_cast<int>(std::min<long>(n, 256));
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace cpdg::util
