// Numerical-health probes: sampled, zero-perturbation observers of the
// quantities the convergence argument rests on but the timing-oriented obs
// layer never surfaced — rotation-angle distribution, catastrophic
// cancellation on the rotation inputs, column-norm exponent watermarks,
// non-finite detection, a running condition estimate, and (at finalize,
// off the hot path) V-orthogonality drift and a backward-error estimate.
//
// Contract, same as every other sink in src/obs/:
//
//  * Read-only.  A probe never writes into engine state and never calls
//    anything that can throw on engine data (in particular it never calls
//    compute_rotation, whose finiteness guard throws — the probe derives
//    the rotation angle itself as theta = atan2(2|cov|, |djj - dii|) / 2
//    and counts non-finite inputs instead of faulting on them).  Engine
//    results are bitwise identical with probes attached, detached, or
//    compiled out (HJSVD_OBS=0).
//
//  * Sampled.  Per-pair observation sites fire only every `stride`-th
//    rotation pair (deterministic pair-sequence sampling, never random),
//    so the obs-overhead guardrail's 5% bound holds at the default stride.
//    Sweep and finalize sites always fire — they are O(1) per sweep / per
//    run.
//
//  * Order-independent aggregates.  Everything accumulated per pair
//    (counters, histogram buckets, min/max watermarks) commutes, so the
//    published svd.num.* values are deterministic across engines' internal
//    scheduling.  All per-pair sites in the shipping engines are serial
//    (sequential loop, blocked generate phase); the mutex exists for
//    svd_batch, where pool workers share one probe.
//
// Verdicts: observe_sweep feeds nothing (the Watchdog gets the off-diagonal
// series directly via record_sweep_metrics and flags divergence itself);
// observe_finalize flags Watchdog::flag_orthogonality when the measured
// V-orthogonality drift exceeds Config::orthogonality_tol.
//
// The full metric catalogue lives in docs/OBSERVABILITY.md
// ("Numerical-health telemetry").
#pragma once

#include <array>
#include <cstdint>
#include <mutex>

#include "linalg/residuals.hpp"

namespace hjsvd::obs {

class MetricsRegistry;
class TraceRecorder;
class Watchdog;

class NumericsProbe {
 public:
  /// Fixed-width rotation-angle histogram over [0, pi/4] (the range of the
  /// one-sided Jacobi angle): bucket b covers [b, b+1) * (pi/4) / kBuckets.
  static constexpr std::size_t kAngleBuckets = 8;

  struct Config {
    /// Sample every stride-th rotation pair (>= 1; 1 = every pair).
    std::size_t stride = 8;
    /// |djj - dii| / max(|dii|, |djj|) below this counts as catastrophic
    /// cancellation on the rotation inputs (the hardware formula divides by
    /// this difference).
    double cancellation_rel = 1e-8;
    /// Angles below this many radians count as "tiny" (pair effectively
    /// converged).
    double tiny_angle_rad = 1e-8;
    /// Angles above this fraction of pi/4 count as "near pi/4"
    /// (ill-separated column pair).
    double near_pi4_frac = 0.9;
    /// V-orthogonality drift above this at finalize flags the watchdog's
    /// sticky obs.watchdog.orthogonality verdict.
    double orthogonality_tol = 1e-8;
  };

  explicit NumericsProbe(const Config& config,
                         MetricsRegistry* metrics = nullptr,
                         TraceRecorder* trace = nullptr,
                         Watchdog* watchdog = nullptr);

  std::size_t stride() const { return config_.stride; }

  /// Deterministic sampling decision for the pair-sequence index the engine
  /// maintains (monotone per engine run, independent of thread count).
  bool want(std::uint64_t pair_seq) const {
    return pair_seq % config_.stride == 0;
  }

  /// One sampled rotation pair, observed *before* the rotation is applied:
  /// the two Gram diagonal entries (squared column norms) and their
  /// covariance.  Non-finite inputs are counted, never propagated.
  void observe_pair(double dii, double djj, double cov);

  /// One completed sweep's off-diagonal Frobenius mass (fed by
  /// detail::record_sweep_metrics).  Publishes the accumulated per-pair
  /// aggregates — per-sweep, never per-pair, publication cost.
  void observe_sweep(std::size_t sweep, double offdiag_frobenius);

  /// End-of-run accuracy probes, off the hot path: V-orthogonality drift
  /// ||V^T V - I||_max (when V was computed), backward error
  /// ||A - U S V^T||_F / ||A||_F (when U and V were computed), and the
  /// sigma-based condition number.  Flags the watchdog orthogonality
  /// verdict when drift exceeds Config::orthogonality_tol.
  void observe_finalize(const Matrix& a, const SvdResult& result);

  // --- Inspection (CLI summary line, tests) --------------------------------
  std::uint64_t samples() const;
  std::uint64_t cancellation_events() const;
  std::uint64_t nonfinite_events() const;
  std::uint64_t divergence_events() const;
  std::array<std::uint64_t, kAngleBuckets> angle_histogram() const;
  /// Fraction of finite sampled pairs with angle < tiny_angle_rad.
  double tiny_angle_frac() const;
  /// Fraction of finite sampled pairs with angle > near_pi4_frac * pi/4.
  double near_pi4_frac() const;
  /// Fraction of finite sampled pairs flagged as cancellation.
  double cancellation_frac() const;
  /// Running sqrt(max/min) over sampled positive Gram diagonal entries —
  /// a cheap condition estimate from current column norms; 1.0 before any
  /// sample.
  double condition_estimate() const;
  /// sigma_max / sigma_min from the finalized spectrum; -1 before finalize.
  double condition_sigma() const;
  /// ||V^T V - I||_max at finalize; -1 when V was not computed.
  double orthogonality_drift() const;
  /// ||A - U S V^T||_F / ||A||_F at finalize; -1 when U or V was absent.
  double backward_error() const;

 private:
  void publish_locked();
  std::uint32_t trace_tid_locked();

  Config config_;
  MetricsRegistry* metrics_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  Watchdog* watchdog_ = nullptr;

  mutable std::mutex mu_;
  bool trace_registered_ = false;
  std::uint32_t trace_tid_ = 0;

  // Per-pair aggregates (order-independent).
  std::uint64_t samples_ = 0;
  std::uint64_t nonfinite_events_ = 0;
  std::uint64_t cancellation_events_ = 0;
  std::uint64_t tiny_angle_count_ = 0;
  std::uint64_t near_pi4_count_ = 0;
  std::array<std::uint64_t, kAngleBuckets> angle_hist_{};
  double worst_cancellation_rel_ = 1.0;  // 1.0 = none observed
  double diag_min_ = 0.0;                // over positive sampled diagonals
  double diag_max_ = 0.0;
  int norm_exp_min_ = 0;  // ilogb watermarks of the sampled column norms
  int norm_exp_max_ = 0;
  bool has_diag_ = false;

  // Sweep-level state.
  bool has_last_offdiag_ = false;
  double last_offdiag_ = 0.0;
  std::uint64_t divergence_events_ = 0;
  std::uint64_t sweeps_observed_ = 0;

  // Finalize results (-1 = not available).
  double condition_sigma_ = -1.0;
  double orthogonality_drift_ = -1.0;
  double backward_error_ = -1.0;

  // Counter deltas already pushed to the registry (observe_sweep and
  // observe_finalize may both publish; counters must only ever add the
  // unpublished remainder).
  std::uint64_t pub_samples_ = 0;
  std::uint64_t pub_nonfinite_ = 0;
  std::uint64_t pub_cancellation_ = 0;
  std::uint64_t pub_divergence_ = 0;
  std::array<std::uint64_t, kAngleBuckets> pub_angle_hist_{};
};

}  // namespace hjsvd::obs
