// Warm, reusable decomposition engine: the serving-shaped front door.
//
// hjsvd::svd() / svd_batch() are one-shot — every call pays thread spawns
// (batch) and working-buffer allocations (all methods).  A long-lived
// service decomposing thousands of requests wants both costs amortized to
// zero, which is what an EngineInstance provides:
//
//   * a resident WorkStealingPool (common/pool.hpp), spawned once, parked
//     between batch waves and lent to the plain engine's rounds in
//     decompose();
//   * one Workspace scratch arena (svd/workspace.hpp) per pool worker plus
//     one for the calling thread, so the Gram/V/finalize buffers of every
//     engine run are re-shaped in place instead of reallocated.
//
// Determinism contract: decompose() is bitwise identical to svd() with the
// same options, and decompose_batch()[i] is bitwise identical to
// svd(batch[i], options), at every thread count — warm buffers come back
// zeroed, and the pool's scheduling never influences results
// (tests/api/test_engine.cpp asserts both).
//
// The free svd_batch() delegates to an ephemeral EngineInstance, so there
// is exactly one batch scheduler in the library.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "api/svd.hpp"
#include "svd/workspace.hpp"

namespace hjsvd {

class WorkStealingPool;

struct EngineConfig {
  /// Worker-thread budget (resident pool size) of batch waves and of
  /// kPlainHestenes in decompose(); 0 means
  /// std::thread::hardware_concurrency() (at least 1), matching
  /// svd_batch's `threads` parameter.
  std::size_t threads = 0;
};

class EngineInstance {
 public:
  explicit EngineInstance(const EngineConfig& config = {});
  ~EngineInstance();
  EngineInstance(const EngineInstance&) = delete;
  EngineInstance& operator=(const EngineInstance&) = delete;

  /// Resolved worker-thread budget (config.threads, or the hardware
  /// concurrency).
  std::size_t threads() const { return threads_; }

  /// Decomposes one matrix on the calling thread using the caller-side
  /// workspace.  kPlainHestenes fork-joins each round of disjoint pairs on
  /// the resident pool when threads() > 1 and the rounds are large enough
  /// to pay for it (the svd() threshold in SvdOptions::threads);
  /// options.threads is not read, so an engine of 0 threads (the hardware
  /// concurrency) pools where svd() with threads = 0 runs inline.
  /// Bitwise identical to svd(a, options).  Not safe to call concurrently
  /// with itself (one caller-side arena); decompose_batch waves use their
  /// own per-worker arenas and never touch it.
  SvdResult decompose(const Matrix& a, const SvdOptions& options = {});

  /// Decomposes every matrix of the batch through the resident pool —
  /// svd_batch() semantics (validation, LPT seeding, stealing,
  /// single-threaded items, batch.* metrics, lowest-index error) with warm
  /// threads and warm per-worker workspaces.
  ///
  /// Error contract: with `item_errors` null, rethrows the lowest-index
  /// per-item failure exactly like svd_batch().  With `item_errors`
  /// non-null it is resized to the batch and filled with each item's
  /// exception (null entry = success), and nothing is rethrown — the
  /// serving mode, where one poisoned request must not take down the
  /// wave's replies.  Batch-level validation errors (empty matrices,
  /// method shape constraints) always throw; they are caller bugs, not
  /// data-dependent failures.
  std::vector<SvdResult> decompose_batch(
      const std::vector<Matrix>& batch, const SvdOptions& options = {},
      SvdBatchStats* stats = nullptr,
      std::vector<std::exception_ptr>* item_errors = nullptr);

  /// Sum of Workspace::reuse_total over every arena this engine owns —
  /// acquires that re-shaped a retained buffer without allocating.  Grows
  /// while alloc_total() stays flat once the engine is warm: the
  /// serve.workspace.reuse_total signal.
  std::uint64_t workspace_reuse_total() const;
  /// Sum of Workspace::alloc_total over every arena (cold-path acquires).
  std::uint64_t workspace_alloc_total() const;

 private:
  /// Spawns the resident pool on first use (decompose() of a sequential
  /// method never needs threads).
  WorkStealingPool& ensure_pool();

  std::size_t threads_ = 1;
  std::unique_ptr<WorkStealingPool> pool_;
  std::vector<std::unique_ptr<Workspace>> worker_ws_;  ///< One per pool worker.
  Workspace caller_ws_;                                ///< decompose() arena.
};

}  // namespace hjsvd
