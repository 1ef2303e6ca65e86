// Parallel execution layer: a lazily-started process-wide thread pool plus
// a deterministic data-parallel loop (ParallelFor).
//
// Determinism contract: a range [begin, end) with grain g is always split
// into the SAME ceil(n/g) chunks — chunk c covers
// [begin + c*g, min(end, begin + (c+1)*g)) — regardless of how many threads
// execute them. Only the assignment of chunks to threads varies. Callers
// whose chunks write disjoint state therefore produce bit-identical results
// at any thread count, which is what lets the map pipeline parallelize
// without perturbing its output.
//
// Thread budget resolution (EffectiveNumThreads): a per-call request of 0
// means "the process default" — BLAEU_NUM_THREADS if set, otherwise
// hardware_concurrency. A request of 1 (or a single-chunk range, or a call
// from inside another parallel region) runs inline on the caller with no
// pool traffic, so the serial path costs exactly one branch more than a
// plain loop.
//
// Observability: the pool reports `common.parallel.workers` (gauge, set
// when the workers start) and `common.parallel.tasks` (counter, chunks
// dispatched through the pool) to obs::MetricsRegistry::Global().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace blaeu {

/// Parses a BLAEU_NUM_THREADS-style value; returns `fallback` for null,
/// empty, non-numeric or non-positive input.
size_t NumThreadsFromEnv(const char* value, size_t fallback);

/// The process-default thread budget: BLAEU_NUM_THREADS if set and valid,
/// otherwise std::thread::hardware_concurrency() (minimum 1). Computed once.
size_t DefaultNumThreads();

/// Resolves a per-call thread request: 0 means DefaultNumThreads().
size_t EffectiveNumThreads(size_t requested);

/// \brief A fixed-size pool of worker threads with a shared FIFO queue.
///
/// Workers are spawned lazily on the first Submit, so merely linking the
/// library (or running everything with num_threads = 1) never creates a
/// thread. `Global()` is the process-wide instance ParallelFor uses by
/// default; it is intentionally leaked, like obs::MetricsRegistry::Global(),
/// to dodge static-destruction-order problems.
class ThreadPool {
 public:
  /// The process-wide pool, sized DefaultNumThreads(). Never destroyed.
  static ThreadPool& Global();

  /// \param num_threads  worker count; 0 means DefaultNumThreads().
  explicit ThreadPool(size_t num_threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains nothing: pending tasks are still run, then workers join.
  ~ThreadPool();

  size_t num_threads() const { return num_threads_; }
  /// True once the workers have been spawned (first Submit).
  bool started() const;

  /// Enqueues `fn` for execution on a worker thread; starts the workers on
  /// first use. `fn` must not throw (ParallelFor catches for its bodies).
  void Submit(std::function<void()> fn);

 private:
  void EnsureStarted();
  void WorkerLoop();

  const size_t num_threads_;
  std::once_flag start_once_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool started_ = false;  // guarded by mu_
  bool stop_ = false;     // guarded by mu_
};

/// Runs `body(chunk_begin, chunk_end)` over every chunk of [begin, end)
/// (see the determinism contract above). Chunks run concurrently on up to
/// `num_threads` threads (0 = process default; the caller participates).
/// Blocks until every chunk finished. The first exception a chunk throws is
/// rethrown on the caller after remaining chunks are cancelled. Nested
/// calls from inside a chunk body run inline, so parallel code can call
/// parallel code without deadlock or oversubscription.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body,
                 size_t num_threads = 0, ThreadPool* pool = nullptr);

}  // namespace blaeu
