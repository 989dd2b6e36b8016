#include "mcfs/common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "mcfs/obs/metrics.h"
#include "mcfs/obs/trace.h"

namespace mcfs {

namespace {

thread_local bool t_inside_parallel_region = false;

int EnvironmentThreadCount() {
  static const int count = [] {
    const char* env = std::getenv("MCFS_THREADS");
    if (env != nullptr) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<int>(std::min(parsed, 1024L));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return count;
}

}  // namespace

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) return 1;
  return EnvironmentThreadCount();
}

bool InsideParallelRegion() { return t_inside_parallel_region; }

ThreadPool::ThreadPool(int num_threads) {
  const int total = std::max(1, ResolveThreadCount(num_threads));
  workers_.reserve(total - 1);
  for (int w = 0; w < total - 1; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Default() {
  // Leaked on purpose: worker threads must not be joined during static
  // destruction (other statics they might touch could already be gone).
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::RunChunks(const Job& job, int participant) {
  int64_t chunks_run = 0;
  for (int64_t chunk = participant; chunk < job.num_chunks;
       chunk += job.participants) {
    const int64_t chunk_begin = job.begin + chunk * job.grain;
    const int64_t chunk_end = std::min(job.end, chunk_begin + job.grain);
    ++chunks_run;
    for (int64_t i = chunk_begin; i < chunk_end; ++i) {
      try {
        (*job.fn)(i);
      } catch (...) {
        CaptureException();
      }
    }
  }
  // Everything the pool measures is physical execution (how work was
  // dispatched, not what was computed), so it all lives under exec/ and
  // is exempt from the cross-thread-count determinism contract; the
  // per-participant chunk distribution is the load-balance signal.
  MCFS_COUNT("exec/pool/chunks", chunks_run);
  MCFS_OBSERVE("exec/pool/chunks_per_participant",
               static_cast<double>(chunks_run));
}

void ThreadPool::CaptureException() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_exception_ == nullptr) {
    first_exception_ = std::current_exception();
  }
}

void ThreadPool::WorkerLoop(int worker_index) {
  t_inside_parallel_region = true;
  uint64_t seen_generation = 0;
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || job_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = job_generation_;
      job = job_;
    }
    // Worker w owns participant index w + 1 (the caller is 0); workers
    // beyond the job's participant cap simply report done. The caller's
    // trace context rides along with the job so all instrumentation in
    // the loop body stays attributed to the dispatching request.
    if (worker_index + 1 < job.participants) {
      obs::ScopedTraceContext trace_scope(job.trace_id);
      RunChunks(job, worker_index + 1);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --workers_remaining_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t)>& fn,
                             int max_threads) {
  if (begin >= end) return;
  // Clamp the grain into [1, range]: a non-positive grain means "one
  // index per chunk", and a grain beyond the range would overflow the
  // chunk-count rounding below (int64 UB for e.g. grain == INT64_MAX).
  grain = std::max<int64_t>(1, std::min(grain, end - begin));
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  // max_threads == 0 means "all participants"; a negative cap is
  // nonsensical and degrades to serial (the conservative reading).
  int participants = max_threads < 0 ? 1 : num_threads();
  if (max_threads > 0) participants = std::min(participants, max_threads);
  participants =
      static_cast<int>(std::min<int64_t>(participants, num_chunks));

  MCFS_COUNT("exec/pool/parallel_fors", 1);
  MCFS_COUNT("exec/pool/indices", end - begin);

  // Serial fast path: one effective participant, or a nested call from
  // inside a running parallel region (blocking on the pool that is
  // executing us would deadlock).
  if (participants <= 1 || t_inside_parallel_region) {
    MCFS_COUNT("exec/pool/inline_sections", 1);
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // One outer loop at a time; concurrent outer callers queue up here.
  std::lock_guard<std::mutex> dispatch_lock(dispatch_mutex_);

  Job job;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.num_chunks = num_chunks;
  job.participants = participants;
  job.fn = &fn;
  job.trace_id = obs::CurrentTraceId();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++job_generation_;
    workers_remaining_ = static_cast<int>(workers_.size());
    first_exception_ = nullptr;
  }
  work_cv_.notify_all();

  t_inside_parallel_region = true;
  RunChunks(job, /*participant=*/0);
  t_inside_parallel_region = false;

  std::exception_ptr pending;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return workers_remaining_ == 0; });
    pending = first_exception_;
    first_exception_ = nullptr;
  }
  if (pending != nullptr) std::rethrow_exception(pending);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t)>& fn, int max_threads) {
  ThreadPool::Default().ParallelFor(begin, end, grain, fn, max_threads);
}

}  // namespace mcfs
