// The shared deterministic work-stealing executor.
//
// Every parallel subsystem in this codebase — Monte Carlo dependability,
// the power-series separation kernels, the planner heuristic sweep, the
// sim influence estimator, and the resilience campaign — follows the same
// discipline: the workload shards into independent, index-addressed blocks;
// each block writes only block-indexed (or lane-exclusive) state; and the
// caller folds results in block order after the join. That contract makes
// every report bitwise identical for any worker count. What those
// subsystems used to duplicate — and what this header centralizes — is the
// *scheduling* machinery: resolving a thread count, spawning workers, and
// distributing blocks.
//
// `parallel_for_blocks(n_blocks, threads, fn)` runs `fn(block, lane)` for
// every block in [0, n_blocks) on up to `threads` lanes (the calling thread
// is always lane 0). Lanes are backed by one process-wide persistent pool:
// workers park between submissions instead of being created and joined per
// call, which is the difference between ~µs and ~ms on small-block
// workloads (the Table 1 example: 16 blocks of a few thousand trials).
// Blocks are distributed by range stealing — each lane owns a contiguous
// chunk of the block index space and steals half of the largest remaining
// chunk when its own runs dry — so which lane runs which block is
// scheduling noise, exactly like the per-call pools it replaces.
//
// Determinism contract (unchanged from the hand-rolled pools):
//   * `fn(block, lane)` must write only to block-indexed slots and to
//     lane-exclusive scratch. The executor guarantees each block runs
//     exactly once and each lane index is used by at most one thread at a
//     time within a submission.
//   * Results must be folded by the caller in block order after
//     `parallel_for_blocks` returns. Integer counts commute; float folds
//     use block-ordered compensated sums (`NeumaierSum`).
//   * Nothing observable may depend on `threads`, the lane assignment, or
//     the steal schedule.
//
// Nested submission rule: a task that is already running on an executor
// lane (any depth) runs inner blocks inline on its own lane instead of
// re-entering the pool. Nested parallelism therefore never oversubscribes
// the machine — `resilience::Campaign` can call the replanner, which calls
// the planner sweep, which calls hierarchical H1's per-part clustering, and
// exactly one level fans out. Inline nested blocks inherit the outer call's submission id, so
// trace spans stay attributed to the top-level call that caused them.
//
// Observability (`fcm::obs`): deterministic work metrics are recorded under
// plain `exec.*` names (`exec.submissions`, `exec.tasks`,
// `exec.nested_inline`, the `exec.blocks_per_submission` histogram) and are
// invariant under the thread count, like every other counter in the
// registry. Scheduling telemetry that legitimately varies run to run —
// steal counts, pool size, resize spans — lives under `exec.sched.*` and is
// excluded from the byte-compare determinism gates (see
// tools/compare_metrics.py).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

namespace fcm::exec {

/// Resolves a requested worker count for a region of `parallel_width`
/// independent work units. `requested == 0` selects the `FCM_THREADS`
/// environment override when it is set to a positive integer, and the
/// hardware concurrency otherwise. The result is clamped to
/// [1, max(1, parallel_width)] — never more lanes than blocks. This is the
/// one copy of the clamp that used to be pasted into every parallel
/// subsystem.
[[nodiscard]] std::uint32_t resolve_threads(std::uint32_t requested,
                                            std::uint64_t parallel_width);

/// Non-owning reference to a `void(block, lane)` callable. The referenced
/// callable only needs to outlive the `parallel_for_blocks` call, so
/// passing a lambda temporary is safe; nothing is allocated.
class BlockFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, BlockFn>)
  BlockFn(F&& fn) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* object, std::uint64_t block, std::uint32_t lane) {
          (*static_cast<std::remove_reference_t<F>*>(object))(block, lane);
        }) {}

  void operator()(std::uint64_t block, std::uint32_t lane) const {
    call_(object_, block, lane);
  }

 private:
  void* object_;
  void (*call_)(void*, std::uint64_t, std::uint32_t);
};

/// Runs `fn(block, lane)` for every block in [0, n_blocks), using at most
/// `threads` lanes (clamped to n_blocks; 0 behaves as 1). Lane indices are
/// dense in [0, lanes) and each is used by at most one thread at a time, so
/// callers may index per-lane scratch by the lane argument. Blocks run
/// exactly once each; which lane runs which block is unspecified.
///
/// The calling thread always participates as lane 0. If `fn` (on any lane)
/// throws, the first exception is rethrown on the calling thread after all
/// lanes quiesce; remaining blocks may be skipped.
///
/// Called from inside an executor task, the inner blocks run inline on the
/// calling lane (see the nested-submission rule above).
void parallel_for_blocks(std::uint64_t n_blocks, std::uint32_t threads,
                         BlockFn fn);

/// Blocks of `block_size` items that cover `items` — how the Monte Carlo
/// engines shard their trials. The sum runs in 64 bits, so a block size
/// near UINT32_MAX yields one block instead of wrapping to none.
[[nodiscard]] constexpr std::uint32_t block_count(
    std::uint32_t items, std::uint32_t block_size) noexcept {
  return static_cast<std::uint32_t>(
      (std::uint64_t{items} + block_size - 1) / block_size);
}

/// One past the last item of block `block` in that sharding (block `b`
/// starts at `b * block_size`).
[[nodiscard]] constexpr std::uint32_t block_end(
    std::uint32_t items, std::uint32_t block_size,
    std::uint64_t block) noexcept {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(items, (block + 1) * block_size));
}

/// Number of persistent workers currently parked in the pool (diagnostic;
/// grows on demand, never shrinks).
[[nodiscard]] std::uint32_t pool_size() noexcept;

}  // namespace fcm::exec
