#ifndef CPDG_TENSOR_ARENA_H_
#define CPDG_TENSOR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace cpdg::tensor {

class Tensor;

/// \defgroup arena Batch arena allocator
///
/// A thread-local recycling pool for intra-batch tensor temporaries. A
/// training batch builds a computation graph of hundreds of short-lived
/// nodes (TensorImpl, data/grad buffers, parent lists, backward closures),
/// all freed when the loss goes out of scope after the optimizer step. The
/// pool keeps those blocks on per-size-class free lists so steady-state
/// batches perform near-zero global operator new/delete calls.
///
/// Lifetime rules (see DESIGN.md §13):
///  - Every block, pooled or not, is a plain `::operator new` allocation of
///    its rounded size-class size. Deallocation therefore always has a
///    valid fallback (`::operator delete`) regardless of whether the pool
///    is still active, or whether the free happens on a different thread
///    than the allocation. A tensor that outlives the arena scope (model
///    parameters, detached results) is simply returned to the heap.
///  - The pool is activated by an ArenaScope (installed by TrainLoop around
///    a run); outside any scope every call passes straight through to the
///    heap, so non-training code paths are unaffected.
///  - Scopes nest; the cache drains to the heap when the outermost scope
///    exits. `CPDG_ARENA=0` disables pooling entirely.
/// @{

/// \brief Allocates `bytes` (rounded up to a power-of-two size class),
/// serving from the calling thread's pool when active.
void* ArenaAllocRaw(size_t bytes);

/// \brief Returns a block from ArenaAllocRaw. `bytes` must be the original
/// request size (the size class is re-derived from it).
void ArenaFreeRaw(void* p, size_t bytes) noexcept;

/// \brief True when an ArenaScope is active on the calling thread.
bool ArenaActive();

/// \brief Allocation counters for the calling thread. `pool_hits` are
/// requests served from the free lists (no global operator new);
/// `heap_allocs` fell through to the heap.
struct ArenaStats {
  int64_t pool_hits = 0;
  int64_t heap_allocs = 0;
  int64_t frees_to_pool = 0;
  int64_t frees_to_heap = 0;
};

/// \brief Returns and clears the calling thread's per-batch counter window.
/// TrainLoop calls this once per batch to roll the deltas into the metrics
/// registry (train.arena.*).
ArenaStats ArenaResetBatch();

/// \brief Cumulative counters for the calling thread (never reset).
ArenaStats ArenaTotals();

/// \brief Programmatic override of the CPDG_ARENA env knob, for tests
/// that compare pooled vs unpooled allocation behaviour in one process:
/// 1 forces pooling on, 0 forces it off, -1 (the default) defers to the
/// environment. Only consulted when the next ArenaScope is constructed.
void SetArenaEnabledOverride(int enabled);

/// \brief RAII activation of the calling thread's pool. Nestable; the
/// cached blocks drain back to the heap when the outermost scope exits.
/// Construction honours `CPDG_ARENA` (default enabled; "0" disables).
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  bool engaged_;
};

/// \brief Minimal std::allocator replacement routing through the arena.
/// Stateless and always-equal, so containers move cheaply across scopes.
template <typename T>
struct ArenaAllocator {
  using value_type = T;
  using is_always_equal = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;

  ArenaAllocator() = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(ArenaAllocRaw(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    ArenaFreeRaw(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const ArenaAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>&) const noexcept {
    return false;
  }
};

/// \brief Move-only callable holding a backward closure in arena storage.
///
/// std::function cannot use a custom allocator (allocator support was
/// removed in C++17) and backward closures capture several Tensor handles,
/// far past any small-buffer optimization — which made every op result pay
/// a global heap allocation for its closure. BackwardFn keeps the closure
/// in an arena block instead.
class BackwardFn {
 public:
  BackwardFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BackwardFn>>>
  BackwardFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "backward closures must not be over-aligned");
    size_ = sizeof(Fn);
    obj_ = ArenaAllocRaw(size_);
    ::new (obj_) Fn(std::forward<F>(f));
    invoke_ = [](void* o, Tensor& t) { (*static_cast<Fn*>(o))(t); };
    destroy_ = [](void* o) noexcept { static_cast<Fn*>(o)->~Fn(); };
  }

  BackwardFn(BackwardFn&& other) noexcept
      : obj_(other.obj_),
        invoke_(other.invoke_),
        destroy_(other.destroy_),
        size_(other.size_) {
    other.obj_ = nullptr;
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
    other.size_ = 0;
  }

  BackwardFn& operator=(BackwardFn&& other) noexcept {
    if (this != &other) {
      Reset();
      obj_ = other.obj_;
      invoke_ = other.invoke_;
      destroy_ = other.destroy_;
      size_ = other.size_;
      other.obj_ = nullptr;
      other.invoke_ = nullptr;
      other.destroy_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  BackwardFn(const BackwardFn&) = delete;
  BackwardFn& operator=(const BackwardFn&) = delete;

  ~BackwardFn() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()(Tensor& t) const { invoke_(obj_, t); }

 private:
  void Reset() noexcept {
    if (obj_ != nullptr) {
      destroy_(obj_);
      ArenaFreeRaw(obj_, size_);
      obj_ = nullptr;
      invoke_ = nullptr;
      destroy_ = nullptr;
      size_ = 0;
    }
  }

  void* obj_ = nullptr;
  void (*invoke_)(void*, Tensor&) = nullptr;
  void (*destroy_)(void*) noexcept = nullptr;
  size_t size_ = 0;
};

/// @}

}  // namespace cpdg::tensor

#endif  // CPDG_TENSOR_ARENA_H_
