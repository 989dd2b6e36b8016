#ifndef MCFS_COMMON_THREAD_POOL_H_
#define MCFS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcfs {

// Resolves an effective thread count for parallel sections:
//   * requested > 0  -> requested, verbatim;
//   * requested == 0 -> the MCFS_THREADS environment variable if set and
//     positive, else std::thread::hardware_concurrency();
//   * requested < 0  -> 1 (serial), the same reading ParallelFor gives a
//     negative max_threads cap.
// Always returns at least 1. The environment variable is read once per
// process (first call) so repeated resolution is cheap.
int ResolveThreadCount(int requested = 0);

// True while the calling thread is executing loop bodies of a
// ParallelFor (as a pool worker or as the dispatching caller).
// ParallelFor uses this to run nested parallel sections inline
// (serially) instead of deadlocking on the pool already running them.
bool InsideParallelRegion();

// A fixed-size, work-stealing-free thread pool built for deterministic
// data-parallel loops. Workers are spawned once and persist; jobs are
// broadcast to every worker and chunks of the iteration range are
// assigned *statically* (chunk c goes to participant c % P), so which
// thread executes which index is a pure function of the range, grain and
// participant count — there is no stealing and no racy redistribution.
//
// Determinism contract: ParallelFor only guarantees that fn(i) runs
// exactly once per index. Callers must keep fn's side effects disjoint
// per index (e.g. each index writes its own row / advances its own
// stream); under that discipline results are bit-identical for any
// thread count, because *what* is computed never depends on *where*.
class ThreadPool {
 public:
  // num_threads counts total participants including the calling thread;
  // 0 resolves via ResolveThreadCount(). A pool of size 1 spawns no
  // workers and runs everything inline.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total participants (workers + the calling thread).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(i) exactly once for every i in [begin, end), splitting the
  // range into chunks of `grain` indices and executing chunks on up to
  // min(num_threads(), max_threads) participants (max_threads == 0 means
  // "all"; a negative cap degrades to serial). Degenerate inputs are
  // safe: begin >= end is a no-op, and the grain is clamped into
  // [1, end - begin] so oversized or non-positive grains cannot
  // overflow the chunk math. Blocks until every index is done.
  // Exceptions thrown by fn
  // are captured and the first one is rethrown on the calling thread
  // after the loop quiesces. Runs inline (serially, in index order) when
  // the effective participant count is 1, the range fits in one chunk,
  // or the call is nested inside another parallel region (nested
  // sections never block on the pool). Outer calls from distinct
  // threads are serialized against each other.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t)>& fn,
                   int max_threads = 0);

  // Process-wide shared pool, lazily created with ResolveThreadCount(0)
  // participants. All library hot paths dispatch through this pool so a
  // process never over-subscribes cores with stacked pools.
  static ThreadPool& Default();

 private:
  struct Job {
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    int64_t num_chunks = 0;
    int participants = 0;  // chunk owners, including the caller
    const std::function<void(int64_t)>* fn = nullptr;
    // The dispatching caller's trace context: installed on every worker
    // for the duration of its chunks, so spans, flight-recorder events
    // and histogram exemplars emitted inside a parallel loop stay
    // attributed to the request that dispatched it (DESIGN.md §4.11).
    uint64_t trace_id = 0;
  };

  void WorkerLoop(int worker_index);
  // Runs participant `p`'s statically-assigned chunks of `job`.
  void RunChunks(const Job& job, int participant);
  void CaptureException();

  std::vector<std::thread> workers_;

  std::mutex dispatch_mutex_;  // serializes outer ParallelFor calls

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for a new job
  std::condition_variable done_cv_;  // caller waits for completion
  Job job_;
  uint64_t job_generation_ = 0;  // bumped when a job is published
  int workers_remaining_ = 0;    // workers still running the current job
  std::exception_ptr first_exception_;
  bool shutdown_ = false;
};

// Convenience wrapper: ThreadPool::Default().ParallelFor(...). The
// common entry point for library code; `max_threads` lets callers honor
// a per-call option (WmaOptions::threads, AlgorithmSuite::threads)
// without constructing private pools.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t)>& fn,
                 int max_threads = 0);

}  // namespace mcfs

#endif  // MCFS_COMMON_THREAD_POOL_H_
