#include "exec/executor.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace fcm::exec {

namespace {

// std::hardware_destructive_interference_size trips GCC's
// -Winterference-size under -Werror; 64 bytes covers x86-64 and common
// aarch64 parts, and a wrong guess only costs false sharing, not
// correctness.
constexpr std::size_t kCacheLine = 64;

// One lane's remaining block range, packed as (begin << 32) | end so owner
// pops (begin++) and thieves truncate (end -= half) race through a single
// CAS word. Padded so lanes never false-share.
struct alignas(kCacheLine) LaneRange {
  std::atomic<std::uint64_t> packed{0};
};

constexpr std::uint64_t pack(std::uint32_t begin, std::uint32_t end) {
  return (static_cast<std::uint64_t>(begin) << 32) | end;
}
constexpr std::uint32_t range_begin(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed >> 32);
}
constexpr std::uint32_t range_end(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed);
}

// One in-flight top-level submission. Lives on the submitting thread's
// stack; workers hold a pointer only between the epoch publish and their
// completion handshake, both of which the caller waits out.
struct Job {
  const BlockFn* fn = nullptr;
  std::uint32_t lanes = 0;
  std::uint64_t submission = 0;
  std::vector<LaneRange> ranges;  // one per lane
  std::atomic<std::uint64_t> steals{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  void record_error(std::exception_ptr eptr) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = std::move(eptr);
    failed.store(true, std::memory_order_relaxed);
  }
};

// Thread-local execution context: set while a thread runs blocks of any
// submission (pool worker, caller lane 0, or the serial path). Nested parallel_for_blocks calls check it to run inline.
thread_local bool t_in_task = false;

// Monotone top-level submission ids. The pool path allocates its id while
// holding Pool::submit_mutex_, so id order matches submission order even
// when distinct threads submit concurrently — span/pid attribution stays
// deterministic for a fixed program. The serial path allocates at the call
// site; concurrent top-level callers on that path would get arbitrary (but
// still unique) ids.
std::atomic<std::uint64_t> g_next_submission{1};

// RAII: marks the current thread as an executor task and points span
// attribution at `submission` for the duration.
class TaskScope {
 public:
  explicit TaskScope(std::uint64_t submission)
      : was_in_task_(t_in_task),
        previous_submission_(obs::current_submission()) {
    t_in_task = true;
    obs::set_current_submission(submission);
  }
  ~TaskScope() {
    t_in_task = was_in_task_;
    obs::set_current_submission(previous_submission_);
  }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  bool was_in_task_;
  std::uint64_t previous_submission_;
};

// Claims the front block of `range`, or returns false when it is empty.
bool take_front(LaneRange& range, std::uint32_t& block) {
  std::uint64_t current = range.packed.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t begin = range_begin(current);
    const std::uint32_t end = range_end(current);
    if (begin >= end) return false;
    if (range.packed.compare_exchange_weak(current, pack(begin + 1, end),
                                           std::memory_order_relaxed)) {
      block = begin;
      return true;
    }
  }
}

// Steals the upper half of the largest other lane's remaining range into
// lane `lane`'s own (empty) slot. Returns false when no lane has work.
bool steal_into(Job& job, std::uint32_t lane, std::uint64_t& steal_count) {
  for (;;) {
    std::uint32_t victim = lane;
    std::uint32_t victim_size = 0;
    std::uint64_t victim_packed = 0;
    for (std::uint32_t v = 0; v < job.lanes; ++v) {
      if (v == lane) continue;
      const std::uint64_t packed =
          job.ranges[v].packed.load(std::memory_order_relaxed);
      const std::uint32_t size = range_end(packed) - range_begin(packed);
      if (range_begin(packed) < range_end(packed) && size > victim_size) {
        victim = v;
        victim_size = size;
        victim_packed = packed;
      }
    }
    if (victim == lane) return false;  // everything is drained or in flight
    const std::uint32_t begin = range_begin(victim_packed);
    const std::uint32_t end = range_end(victim_packed);
    const std::uint32_t take = (end - begin + 1) / 2;
    const std::uint32_t split = end - take;
    if (!job.ranges[victim].packed.compare_exchange_weak(
            victim_packed, pack(begin, split), std::memory_order_relaxed)) {
      continue;  // lost the race; rescan
    }
    // The stolen chunk becomes this lane's own range, so other lanes can
    // re-steal from it in turn.
    job.ranges[lane].packed.store(pack(split, end),
                                  std::memory_order_relaxed);
    ++steal_count;
    return true;
  }
}

// One lane's work loop: drain the own range, then steal until the job is
// globally dry (or failed). Exceptions from `fn` are captured into the job.
void run_lane(Job& job, std::uint32_t lane) {
  TaskScope scope(job.submission);
  std::uint64_t steal_count = 0;
  try {
    std::uint32_t block = 0;
    while (!job.failed.load(std::memory_order_relaxed)) {
      if (take_front(job.ranges[lane], block)) {
        (*job.fn)(block, lane);
        continue;
      }
      if (!steal_into(job, lane, steal_count)) break;
    }
  } catch (...) {
    job.record_error(std::current_exception());
  }
  if (steal_count > 0) {
    job.steals.fetch_add(steal_count, std::memory_order_relaxed);
  }
  // Pool workers park between submissions instead of exiting, so the
  // thread-exit span flush the per-call pools relied on never fires; drain
  // explicitly before the caller folds the trace. Lane 0 is the caller and
  // flushes inside collect().
  if (lane != 0) obs::flush_thread_spans();
}

// The process-wide persistent pool. Workers park on a condition variable
// between submissions; submissions are serialized (callers queue on
// `submit_mutex_`), which is all the current call graph needs — concurrent
// top-level parallelism would fight over the same cores anyway.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(Job& job) {
    const std::lock_guard<std::mutex> submit(submit_mutex_);
    // The id is allocated under submit_mutex_ so that id order matches
    // submission order (see g_next_submission).
    job.submission =
        g_next_submission.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ensure_workers(job.lanes - 1, lock);
      job_ = &job;
      active_workers_ = job.lanes - 1;
      ++epoch_;
    }
    work_cv_.notify_all();
    run_lane(job, 0);  // the caller is always lane 0
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] { return active_workers_ == 0; });
      job_ = nullptr;
    }
  }

  [[nodiscard]] std::uint32_t size() noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::uint32_t>(workers_.size());
  }

 private:
  Pool() {
    // Pin the obs singletons' construction before the pool's: worker
    // threads flush their span buffers into TraceCollector::global() when
    // they exit, which happens inside ~Pool at static destruction — the
    // collector (and registry) must therefore be constructed first so they
    // are destroyed last.
    (void)obs::TraceCollector::global();
    (void)obs::MetricsRegistry::global();
    (void)obs::TraceCollector::now_us();  // the epoch static, too
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  // Grows the pool to at least `wanted` parked workers. Called with
  // `mutex_` held (`lock`), so new workers adopt the current epoch and
  // cannot mistake an old submission for a fresh one.
  void ensure_workers(std::uint32_t wanted, std::unique_lock<std::mutex>&) {
    if (workers_.size() >= wanted) return;
    FCM_OBS_SPAN("exec.sched.resize", wanted);
    while (workers_.size() < wanted) {
      const std::uint32_t index =
          static_cast<std::uint32_t>(workers_.size());
      workers_.emplace_back(
          [this, index, epoch = epoch_] { worker_loop(index, epoch); });
    }
    FCM_OBS_GAUGE("exec.sched.pool_size",
                  static_cast<double>(workers_.size()));
  }

  void worker_loop(std::uint32_t index, std::uint64_t seen_epoch) {
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(
            lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
        if (shutdown_) return;
        seen_epoch = epoch_;
        // Worker `index` serves lane index + 1; workers beyond the lane
        // count sit this submission out (they still adopt the epoch). A
        // null job_ with a fresh epoch means the submission already
        // retired — possible only for sat-out workers scheduled late,
        // since lane-serving workers hold up the done handshake (run()
        // cannot clear job_ until they decrement active_workers_).
        if (job_ != nullptr && index + 1 < job_->lanes) job = job_;
      }
      if (job == nullptr) continue;
      run_lane(*job, index + 1);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (--active_workers_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex submit_mutex_;  // serializes top-level submissions

  std::mutex mutex_;  // guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::uint32_t active_workers_ = 0;
  bool shutdown_ = false;
};

std::uint32_t env_threads() {
  const char* raw = std::getenv("FCM_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || value == 0 ||
      value > std::numeric_limits<std::uint32_t>::max()) {
    return 0;  // malformed or out of range: ignore the override
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

std::uint32_t resolve_threads(std::uint32_t requested,
                              std::uint64_t parallel_width) {
  std::uint32_t threads = requested;
  if (threads == 0) threads = env_threads();
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (parallel_width < threads) {
    threads = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, parallel_width));
  }
  return threads;
}

void parallel_for_blocks(std::uint64_t n_blocks, std::uint32_t threads,
                         BlockFn fn) {
  if (n_blocks == 0) return;
  FCM_REQUIRE(n_blocks <= std::numeric_limits<std::uint32_t>::max(),
              "block count exceeds the executor's 32-bit index space");

  // Nested submission: a task already on an executor lane runs inner
  // blocks inline on that lane, inheriting the outer submission id.
  if (t_in_task) {
    FCM_OBS_COUNT("exec.nested_inline", 1);
    FCM_OBS_COUNT("exec.tasks", n_blocks);
    for (std::uint64_t block = 0; block < n_blocks; ++block) fn(block, 0);
    return;
  }

  std::uint32_t lanes = threads == 0 ? 1 : threads;
  if (n_blocks < lanes) lanes = static_cast<std::uint32_t>(n_blocks);

  FCM_OBS_COUNT("exec.submissions", 1);
  FCM_OBS_COUNT("exec.tasks", n_blocks);
  FCM_OBS_HIST("exec.blocks_per_submission",
               static_cast<double>(n_blocks));

  if (lanes <= 1) {
    TaskScope scope(
        g_next_submission.fetch_add(1, std::memory_order_relaxed));
    for (std::uint64_t block = 0; block < n_blocks; ++block) fn(block, 0);
    return;
  }

  Job job;  // job.submission is assigned by Pool::run under submit_mutex_
  job.fn = &fn;
  job.lanes = lanes;
  job.ranges = std::vector<LaneRange>(lanes);
  const std::uint32_t blocks32 = static_cast<std::uint32_t>(n_blocks);
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    // Contiguous near-equal chunks; stealing rebalances the tail.
    const std::uint32_t begin =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(blocks32) *
                                   lane / lanes);
    const std::uint32_t end =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(blocks32) *
                                   (lane + 1) / lanes);
    job.ranges[lane].packed.store(pack(begin, end),
                                  std::memory_order_relaxed);
  }
  Pool::instance().run(job);
  const std::uint64_t steals = job.steals.load(std::memory_order_relaxed);
  if (steals > 0) FCM_OBS_COUNT("exec.sched.steals", steals);
  if (job.error) std::rethrow_exception(job.error);
}

std::uint32_t pool_size() noexcept { return Pool::instance().size(); }

}  // namespace fcm::exec
