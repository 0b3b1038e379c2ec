// Library front door: one entry point dispatching over every SVD algorithm
// in the repository, for users who want "an SVD" without picking a module.
//
//   #include "api/svd.hpp"
//   auto result = hjsvd::svd(a);                       // sensible default
//   auto exact  = hjsvd::svd(a, {.method = SvdMethod::kGolubKahan,
//                                .compute_u = true, .compute_v = true});
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/residuals.hpp"
#include "obs/sinks.hpp"

namespace hjsvd {

class Workspace;

/// Numeric values are stable across releases; 2, 3, 4 and 5 belonged to
/// retired engines and stay unused.
enum class SvdMethod {
  kModifiedHestenes = 0,  // the paper's Algorithm 1 (default)
  kPlainHestenes = 1,     // recomputing one-sided Jacobi
  kTwoSidedJacobi = 6,    // Kogbetliantz (square matrices only)
  kGolubKahan = 7,        // Householder bidiagonalization + QR iteration
};

struct SvdOptions {
  SvdMethod method = SvdMethod::kModifiedHestenes;
  bool compute_u = false;
  bool compute_v = false;
  /// Target relative accuracy of the iterative (Jacobi) methods.
  double tolerance = 1e-13;
  /// Iteration cap for the Jacobi methods (sweeps).
  std::size_t max_sweeps = 30;
  /// Worker threads of kPlainHestenes, the method whose rounds of disjoint
  /// pairs run on a pool: above 1, svd() runs each round on the pool of an
  /// ephemeral EngineInstance of this many threads, once a round carries
  /// at least 16384 row-pairs (rows x floor(cols / 2); a square n >= 182);
  /// smaller matrices run inline.  0 (the default) and 1 run inline: a
  /// one-shot call spawns no threads unless asked to.  Other methods run
  /// on the calling thread.  Results are bitwise independent of this value.
  std::size_t threads = 0;
  /// Opt-in relaxed SIMD tier for the Hestenes-family methods: Gram and
  /// covariance dot products use the 4-lane-split accumulation of
  /// linalg/simd/ instead of strict left-to-right sums (roughly lane-count
  /// faster on the reduction-bound paths).  Results are then no longer
  /// bitwise identical to the scalar reference, but remain deterministic —
  /// identical across SIMD dispatch levels, thread counts, and the
  /// Gram-path engines — and satisfy the accuracy bounds tested in
  /// tests/linalg/test_simd_kernels.cpp.  The default OFF keeps every
  /// method bitwise identical with SIMD enabled or disabled.  Baseline
  /// methods (two-sided, Golub-Kahan) ignore it.
  bool simd_relaxed = false;
  /// Observability sinks (see docs/OBSERVABILITY.md).  `trace` collects
  /// Chrome trace-event spans, `metrics` collects counters / gauges /
  /// series; null (the default) records nothing.  Recording never changes
  /// the arithmetic: results are byte-identical with and without sinks
  /// (tests/obs/test_obs.cpp).  The Hestenes-family methods emit
  /// sweep/round-level detail; baseline methods record run-level shape
  /// metrics only.  svd_batch() ignores per-item sinks (concurrent workers
  /// would interleave nondeterministically) and records batch-level spans
  /// and metrics instead.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Live-telemetry watchdog (src/obs/live.hpp): the Hestenes-family
  /// methods feed it per-sweep off-diagonal norms for stall detection, and
  /// every method polls its wall-clock deadline.  svd_batch() strips it
  /// from per-item options (interleaved per-item sweep series would make
  /// stall detection meaningless) and polls only the deadline between
  /// items.  Like the sinks, it never changes the arithmetic.
  obs::Watchdog* watchdog = nullptr;
  /// Deadline-only poller: a watchdog whose check_deadline() is polled once
  /// per sweep *without* feeding it convergence progress.  svd_batch()
  /// attaches its batch-scoped watchdog here on every item so one long
  /// in-flight decomposition honors the wall-clock budget at sweep
  /// granularity, while stall/divergence detection stays per-batch only.
  /// Ignored when it aliases `watchdog` (already polled via on_sweep).
  obs::Watchdog* deadline_poller = nullptr;
  /// Numerical-health probe (src/obs/numerics.hpp): the Hestenes-family
  /// methods feed it sampled pre-rotation pair values, per-sweep
  /// off-diagonal mass, and the finalized result (orthogonality drift /
  /// backward error, skipped when U/V are absent).  Baseline methods
  /// ignore it.  Unlike the other sinks, svd_batch() keeps it attached to
  /// every item: the probe's aggregates are order-independent and
  /// internally locked, so concurrent workers feed one probe safely.
  /// Read-only observer — results stay bitwise identical probes on or off.
  obs::NumericsProbe* numerics = nullptr;
  /// Scratch arena (svd/workspace.hpp) the Hestenes-family engines draw
  /// their internal buffers from, so repeated same-shape calls skip the
  /// heap entirely after warmup; null (the default) allocates per call.
  /// Results are bitwise identical either way — acquired buffers come back
  /// zeroed.  Must not be shared across concurrently running svd() calls;
  /// EngineInstance (api/engine.hpp) manages one arena per pool worker and
  /// is the intended owner.
  Workspace* workspace = nullptr;
};

/// Decomposes an arbitrary m x n matrix.  Throws hjsvd::Error for invalid
/// inputs (empty matrices; rectangular input to the two-sided method).
SvdResult svd(const Matrix& a, const SvdOptions& options = {});

/// Scheduler behaviour of one svd_batch() call (optional out-param).
struct SvdBatchStats {
  std::size_t items = 0;    ///< Matrices in the batch.
  std::size_t workers = 0;  ///< Pool workers that took part, the calling
                            ///< thread included
                            ///< (min(requested_workers, items)); matches the
                            ///< batch.workers gauge and the number of
                            ///< "svd_batch worker N" trace timelines.
  std::size_t requested_workers = 0;  ///< Thread budget before clamping.
  std::uint64_t steals = 0;           ///< Items run off a stolen deque entry.
  std::uint64_t nested_splits = 0;    ///< Always 0: batch items run
                                      ///< single-threaded.  Kept for
                                      ///< readers of the old field.
  std::uint64_t helpers_granted = 0;  ///< Always 0, as nested_splits.
  std::size_t items_ok = 0;      ///< Items that decomposed successfully.
  std::size_t items_failed = 0;  ///< Items whose engine threw (every item
                                 ///< still runs; see error contract below).
  double wall_s = 0.0;           ///< Pool spawn-to-join wall clock.
  std::vector<double> worker_busy_s;  ///< Per pool worker: time inside items.
  std::vector<double> worker_idle_s;  ///< Per pool worker: wall_s - busy.
};

/// Decomposes every matrix of a batch, spreading the work across a
/// work-stealing thread pool — the serving-shaped workload of many small
/// independent problems.  Matrices are seeded onto per-worker deques by
/// deterministic cost-based LPT sharding (arch::shard_by_cost, the
/// multi-engine dispatch rule); an idle worker steals from the victim with
/// the greatest remaining estimated cost, so mixed-size batches keep every
/// worker fed even when the cost model misjudges convergence.  Every item
/// runs single-threaded on one pool worker (kPlainHestenes runs its rounds
/// inline there).  Stealing never changes the arithmetic: results[i] is
/// bitwise identical to svd(batch[i], options) at every thread count.
/// `threads` = 0 means std::thread::hardware_concurrency() (at least 1).
///
/// Error contract: the whole batch is validated before any work starts
/// (shape and method constraints, e.g. square-only for kTwoSidedJacobi),
/// so a malformed batch throws without computing anything.  Data-dependent
/// failures (e.g. non-finite entries) surface from the engine mid-run; the
/// remaining items still run to completion, and the rethrown hjsvd::Error
/// is deterministically the *lowest-index* failure, prefixed with
/// "svd_batch: item <i>".  `stats` (optional) receives scheduler counters
/// even when an error is rethrown.
std::vector<SvdResult> svd_batch(const std::vector<Matrix>& batch,
                                 const SvdOptions& options = {},
                                 std::size_t threads = 0,
                                 SvdBatchStats* stats = nullptr);

/// Human-readable method name (for reports).
const char* svd_method_name(SvdMethod method);

/// Canonical short token of a method — the shared vocabulary of the CLI's
/// --method flag and the serve protocol's "method" field: hestenes | plain
/// | two-sided | golub-kahan.
const char* svd_method_token(SvdMethod method);

/// Inverse of svd_method_token, also accepting the historical aliases:
/// modified, parallel-modified and block (hestenes), parallel (plain),
/// twosided and gk.  The aliases of retired engines return the bits those
/// engines returned: each was bitwise equal to its round-robin counterpart.
/// The retired mixed-precision engine's tokens (mixed-modified, mixed) are
/// unknown: its results differed from every remaining engine's.  Returns
/// false on an unknown token so
/// each caller can raise its own error flavor (usage error in the CLI,
/// bad_request in the serve protocol).
bool svd_method_from_token(const std::string& token, SvdMethod* method);

}  // namespace hjsvd
