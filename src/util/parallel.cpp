#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "util/check.hpp"

namespace anole::par {
namespace {

/// True while this thread is executing a task chunk (worker or caller).
/// Nested parallel_for calls observe it and run inline.
thread_local bool t_in_task = false;

/// Largest accepted ANOLE_THREADS: far above any host this runs on, and
/// low enough that a typo cannot ask the OS for millions of threads.
constexpr std::size_t kMaxThreads = 1024;

std::size_t env_or_hardware_threads() {
  const char* env = std::getenv("ANOLE_THREADS");
  if (env == nullptr || *env == '\0') {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  // Digits only: strtoul would wrap "-1" to 2^64 - 1 and accept " 4".
  std::size_t value = 0;
  const char* p = env;
  for (; *p >= '0' && *p <= '9' && value <= kMaxThreads; ++p) {
    value = value * 10 + static_cast<std::size_t>(*p - '0');
  }
  ANOLE_CHECK(*p == '\0' && value >= 1 && value <= kMaxThreads,
              "ANOLE_THREADS: expected an integer in [1, ", kMaxThreads,
              "], got '", env, "'");
  return value;
}

/// State of one run_chunks invocation. Heap-allocated and shared with the
/// workers so a worker that wakes late (after the job completed and a new
/// one started) still drains its own, exhausted, counter instead of the
/// next job's. `fn` borrows the caller's function: the caller only returns
/// once done == chunks, and no chunk can start after that point because
/// `next` is monotonically increasing.
struct JobState {
  JobState(const std::function<void(std::size_t)>* chunk_fn,
           std::size_t chunk_total)
      : fn(chunk_fn), chunks(chunk_total) {}

  const std::function<void(std::size_t)>* fn;
  std::size_t chunks;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // guarded by the pool mutex
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool() : target_threads_(env_or_hardware_threads()) {}

  ~Pool() {
    std::unique_lock<std::mutex> lock(mutex_);
    join_workers(lock);
  }

  std::size_t thread_count() const {
    return target_threads_.load(std::memory_order_relaxed);
  }

  void set_thread_count(std::size_t count) {
    ANOLE_CHECK(!t_in_task,
                "set_thread_count: must not be called from a parallel task");
    const std::size_t target = count == 0 ? env_or_hardware_threads() : count;
    std::unique_lock<std::mutex> lock(mutex_);
    if (target == target_threads_.load(std::memory_order_relaxed)) return;
    join_workers(lock);
    target_threads_.store(target, std::memory_order_relaxed);
  }

  void run(std::size_t chunks, const std::function<void(std::size_t)>& fn) {
    // One job at a time; concurrent top-level callers queue here.
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    auto job = std::make_shared<JobState>(&fn, chunks);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      spawn_workers_locked();
      current_job_ = job;
      ++generation_;
      // The caller drains too, so at most chunks - 1 workers can find a
      // chunk; waking the rest of a large pool for a small job is pure
      // scheduler churn.
      const std::size_t useful = std::min(chunks - 1, workers_.size());
      if (useful == workers_.size()) {
        work_cv_.notify_all();
      } else {
        for (std::size_t w = 0; w < useful; ++w) work_cv_.notify_one();
      }
    }

    // The caller participates in draining the chunk counter.
    t_in_task = true;
    drain(*job);
    t_in_task = false;

    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] {
        return job->done.load(std::memory_order_acquire) >= job->chunks;
      });
      current_job_.reset();
      error = job->error;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void spawn_workers_locked() {
    const std::size_t target =
        target_threads_.load(std::memory_order_relaxed);
    // The caller is one lane, so the pool keeps target - 1 workers.
    while (workers_.size() + 1 < target) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void join_workers(std::unique_lock<std::mutex>& lock) {
    ANOLE_CHECK(current_job_ == nullptr,
                "parallel pool: resizing while a job is in flight");
    stop_ = true;
    work_cv_.notify_all();
    std::vector<std::thread> workers = std::move(workers_);
    workers_.clear();
    lock.unlock();
    for (std::thread& worker : workers) worker.join();
    lock.lock();
    stop_ = false;
  }

  void worker_loop() {
    t_in_task = true;
    std::uint64_t seen_generation = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_cv_.wait(lock, [&] {
        return stop_ || (current_job_ != nullptr &&
                         generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      std::shared_ptr<JobState> job = current_job_;
      lock.unlock();
      drain(*job);
      lock.lock();
    }
  }

  void drain(JobState& job) {
    for (;;) {
      const std::size_t chunk =
          job.next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job.chunks) return;
      if (!job.failed.load(std::memory_order_relaxed)) {
        try {
          (*job.fn)(chunk);
        } catch (...) {
          job.failed.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(mutex_);
          if (!job.error) job.error = std::current_exception();
        }
      }
      const std::size_t finished =
          job.done.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (finished == job.chunks) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  std::mutex run_mutex_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<JobState> current_job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::atomic<std::size_t> target_threads_;
};

}  // namespace

std::size_t thread_count() { return Pool::instance().thread_count(); }

void set_thread_count(std::size_t count) {
  Pool::instance().set_thread_count(count);
}

bool in_parallel_region() { return t_in_task; }

namespace detail {

void run_chunks(std::size_t chunks,
                const std::function<void(std::size_t)>& fn) {
  if (chunks == 0) return;
  Pool::instance().run(chunks, fn);
}

}  // namespace detail

}  // namespace anole::par
