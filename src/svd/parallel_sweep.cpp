#include "svd/parallel_sweep.hpp"

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/pool.hpp"
#include "linalg/kernels.hpp"
#include "svd/hestenes_impl.hpp"
#include "svd/obs_hooks.hpp"
#include "svd/plain_hestenes_impl.hpp"

namespace hjsvd {
namespace {

/// Runs fn(i) for every i in [0, count): on the pool when there is one,
/// inline otherwise.
template <class Fn>
void for_each_index(WorkStealingPool* pool, std::size_t count, Fn&& fn) {
  if (pool != nullptr) {
    pool->fork_join(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

/// Canonical upper-triangle location of the covariance between x and y.
inline double& cov_at(Matrix& d, std::size_t x, std::size_t y) {
  return x < y ? d(x, y) : d(y, x);
}

/// One rotation's update of the covariance pair with free index k — the
/// same arithmetic detail::rotate_covariances performs for that k, via the
/// canonical storage locations (docs/ALGORITHM.md §4).
inline void update_cov_entry(Matrix& d, std::size_t k, std::size_t i,
                             std::size_t j, double c, double s,
                             fp::NativeOps ops) {
  double& di = cov_at(d, k, i);
  double& dj = cov_at(d, k, j);
  const double x = di;
  const double y = dj;
  di = ops.sub(ops.mul(x, c), ops.mul(y, s));
  dj = ops.add(ops.mul(x, s), ops.mul(y, c));
}

/// A round slot: one disjoint pair of the round, or one idle column (the
/// round-robin bye for odd n).  Pair slots come first, in round order — the
/// order the sequential algorithm applies the rotations in.
struct Slot {
  std::size_t cols[2];
  std::size_t count = 0;
};

/// Rotation parameters generated for a pair slot (identity when skipped).
struct SlotRotation {
  double c = 1.0;
  double s = 0.0;
  bool active = false;
};

/// Static decomposition of one round: slots plus the cross-task list.  A
/// task (a, b) owns every covariance entry with one index in slot a and one
/// in slot b, and applies slot a's rotation before slot b's — the order the
/// sequential sweep would touch those entries in.  Each entry of D belongs
/// to exactly one task (or to the serial diagonal step), so the schedule is
/// race-free and bitwise deterministic.
struct RoundPlan {
  std::vector<Slot> slots;
  std::size_t pair_slots = 0;  // slots [0, pair_slots) rotate
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tasks;
  std::vector<std::uint32_t> slot_of;  // column index -> slot index
};

RoundPlan plan_round(const std::vector<Pair>& round, std::size_t n) {
  RoundPlan plan;
  constexpr auto kUncovered = static_cast<std::uint32_t>(-1);
  plan.slot_of.assign(n, kUncovered);
  for (const auto& [i, j] : round) {
    Slot s;
    s.cols[0] = i;
    s.cols[1] = j;
    s.count = 2;
    plan.slot_of[i] = plan.slot_of[j] =
        static_cast<std::uint32_t>(plan.slots.size());
    plan.slots.push_back(s);
  }
  plan.pair_slots = plan.slots.size();
  for (std::size_t c = 0; c < n; ++c) {
    if (plan.slot_of[c] != kUncovered) continue;
    Slot s;
    s.cols[0] = c;
    s.count = 1;
    plan.slot_of[c] = static_cast<std::uint32_t>(plan.slots.size());
    plan.slots.push_back(s);
  }
  // Cross tasks: every slot pair with at least one rotating member.  Idle
  // slots pair only with rotating slots (an idle-idle block has no work).
  const std::size_t total = plan.slots.size();
  for (std::size_t a = 0; a < plan.pair_slots; ++a)
    for (std::size_t b = a + 1; b < total; ++b)
      plan.tasks.emplace_back(static_cast<std::uint32_t>(a),
                              static_cast<std::uint32_t>(b));
  return plan;
}

}  // namespace

SvdResult parallel_modified_hestenes_svd(const Matrix& a,
                                         const HestenesConfig& cfg,
                                         const ParallelSweepConfig& par,
                                         HestenesStats* stats) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HJSVD_ENSURE(m > 0 && n > 0, "matrix must be non-empty");
  HJSVD_ENSURE(cfg.max_sweeps > 0, "need at least one sweep");
  HJSVD_ENSURE(all_finite(a), "input matrix must be finite (no NaN/inf)");
  const fp::NativeOps ops;

  auto* trace = obs::active(cfg.obs.trace);
  auto* metrics = obs::active(cfg.obs.metrics);
  auto* watchdog = obs::active(cfg.obs.watchdog);
  auto* deadline = obs::active(cfg.obs.deadline);
  auto* numerics = obs::active(cfg.obs.numerics);
  const std::uint32_t tid =
      trace != nullptr ? trace->register_thread("blocked engine (coordinator)")
                       : 0;

  obs::Span gram_span;
  if (trace != nullptr)
    gram_span =
        obs::Span(trace, tid, "svd", "gram",
                  obs::ArgsBuilder().add("rows", m).add("cols", n).str());
  Matrix d = cfg.simd_relaxed && cfg.gram_chunk_rows == 1
                 ? gram_upper_relaxed(a)
                 : gram_upper_ops(a, ops, cfg.gram_chunk_rows);
  gram_span.end();
  const bool need_v = cfg.compute_u || cfg.compute_v;
  Matrix v;
  if (need_v) v = Matrix::identity(n);

  const auto rounds = round_robin_rounds(n);
  std::vector<RoundPlan> plans;
  plans.reserve(rounds.size());
  for (const auto& round : rounds) plans.push_back(plan_round(round, n));

  SvdResult result;
  if (stats != nullptr) *stats = HestenesStats{};
  std::vector<SlotRotation> rot;
  // Scratch for the lockstep batched rotation generation (hardware formula
  // only): per-round compacted SoA inputs/outputs of the post-threshold
  // pair slots.
  std::vector<std::size_t> gen_slots;
  std::vector<double> batch_njj, batch_nii, batch_cov;
  std::vector<double> batch_t, batch_c, batch_s;
  std::vector<std::uint8_t> batch_rotate;

  std::size_t sweeps_done = 0;
  std::uint64_t total_rotations = 0, total_skipped = 0;
  std::uint64_t pair_seq = 0;  // numerics-probe sampling index
  for (std::size_t sweep = 0; sweep < cfg.max_sweeps; ++sweep) {
    obs::Span sweep_span;
    if (trace != nullptr)
      sweep_span = obs::Span(trace, tid, "svd", "sweep",
                             obs::ArgsBuilder().add("sweep", sweep).str());
    std::uint64_t rotations = 0, skipped = 0;
    for (std::size_t r = 0; r < plans.size(); ++r) {
      const auto& plan = plans[r];
      obs::Span generate_span;
      if (trace != nullptr)
        generate_span =
            obs::Span(trace, tid, "pipeline", "generate",
                      obs::ArgsBuilder().add("round", r).str());
      // --- Rotation component (serial): parameters and diagonal updates.
      // Within a round no pair touches another pair's D(i,i), D(j,j) or
      // D(i,j), so generating every parameter up front reads exactly the
      // values the sequential sweep would.
      rot.assign(plan.slots.size(), SlotRotation{});
      if (cfg.formula == RotationFormula::kHardware) {
        // Lockstep batched generation (4 lanes per vector op when the AVX2
        // backend is active).  Within a round the pairs are disjoint and
        // each rotation only updates its own D(i,i), D(j,j), D(i,j), so
        // gathering every input before any update reads exactly the values
        // the serial loop would; lane arithmetic is bitwise
        // rotation_hardware<NativeOps>.  Threshold skips are compacted out
        // first so skip semantics (including a NaN inside a skipped pair)
        // match the serial loop; the batch validates its lanes lowest-first,
        // preserving the deterministic first-bad-pair error.
        gen_slots.clear();
        batch_njj.clear();
        batch_nii.clear();
        batch_cov.clear();
        for (std::size_t p = 0; p < plan.pair_slots; ++p) {
          const std::size_t i = plan.slots[p].cols[0];
          const std::size_t j = plan.slots[p].cols[1];
          const double cov = d(i, j);
          // The generate phase is serial and reads pre-update values:
          // exactly the sampling site the probe wants.
          if (numerics != nullptr && numerics->want(pair_seq))
            numerics->observe_pair(d(i, i), d(j, j), cov);
          ++pair_seq;
          if (detail::below_threshold(cov, d(i, i), d(j, j),
                                      cfg.rotation_threshold)) {
            ++skipped;
            continue;
          }
          gen_slots.push_back(p);
          batch_njj.push_back(d(j, j));
          batch_nii.push_back(d(i, i));
          batch_cov.push_back(cov);
        }
        batch_t.resize(gen_slots.size());
        batch_c.resize(gen_slots.size());
        batch_s.resize(gen_slots.size());
        batch_rotate.resize(gen_slots.size());
        rotation_hardware_batch(batch_njj, batch_nii, batch_cov, batch_t,
                                batch_c, batch_s, batch_rotate);
        for (std::size_t g = 0; g < gen_slots.size(); ++g) {
          // below_threshold already skipped cov == 0, so every lane rotates.
          const std::size_t p = gen_slots[g];
          const std::size_t i = plan.slots[p].cols[0];
          const std::size_t j = plan.slots[p].cols[1];
          const double tc = ops.mul(batch_t[g], batch_cov[g]);
          d(j, j) = ops.add(d(j, j), tc);  // Algorithm 1 line 15
          d(i, i) = ops.sub(d(i, i), tc);  // line 16
          d(i, j) = 0.0;                   // line 17
          rot[p] = SlotRotation{batch_c[g], batch_s[g], true};
          ++rotations;
        }
      } else {
        for (std::size_t p = 0; p < plan.pair_slots; ++p) {
          const std::size_t i = plan.slots[p].cols[0];
          const std::size_t j = plan.slots[p].cols[1];
          const double cov = d(i, j);
          if (numerics != nullptr && numerics->want(pair_seq))
            numerics->observe_pair(d(i, i), d(j, j), cov);
          ++pair_seq;
          if (detail::below_threshold(cov, d(i, i), d(j, j),
                                      cfg.rotation_threshold)) {
            ++skipped;
            continue;
          }
          const RotationParams rp =
              compute_rotation(cfg.formula, d(j, j), d(i, i), cov, ops);
          if (!rp.rotate) {
            ++skipped;
            continue;
          }
          const double tc = ops.mul(rp.t, cov);
          d(j, j) = ops.add(d(j, j), tc);  // Algorithm 1 line 15
          d(i, i) = ops.sub(d(i, i), tc);  // line 16
          d(i, j) = 0.0;                   // line 17
          rot[p] = SlotRotation{rp.cos, rp.sin, true};
          ++rotations;
        }
      }
      generate_span.end();

      // --- Update array (parallel): cross-block covariance updates, then
      // the V column pairs (disjoint from D and from each other), all in
      // one fork-join.
      obs::Span update_span;
      if (trace != nullptr)
        update_span = obs::Span(trace, tid, "pipeline", "update",
                                obs::ArgsBuilder().add("round", r).str());
      const std::size_t ntasks = plan.tasks.size();
      const std::size_t nv = need_v ? plan.pair_slots : 0;
      for_each_index(par.pool, ntasks + nv, [&](std::size_t t) {
        if (t >= ntasks) {
          const std::size_t p = t - ntasks;
          if (!rot[p].active) return;
          const Slot& s = plan.slots[p];
          detail::rotate_columns(v, s.cols[0], s.cols[1], rot[p].c, rot[p].s,
                                 ops);
          return;
        }
        const auto [sa, sb] = plan.tasks[t];
        const Slot& slot_a = plan.slots[sa];
        const Slot& slot_b = plan.slots[sb];
        if (rot[sa].active) {
          for (std::size_t c = 0; c < slot_b.count; ++c)
            update_cov_entry(d, slot_b.cols[c], slot_a.cols[0],
                             slot_a.cols[1], rot[sa].c, rot[sa].s, ops);
        }
        if (sb < plan.pair_slots && rot[sb].active) {
          for (std::size_t c = 0; c < slot_a.count; ++c)
            update_cov_entry(d, slot_a.cols[c], slot_b.cols[0],
                             slot_b.cols[1], rot[sb].c, rot[sb].s, ops);
        }
      });
      update_span.end();
    }
    ++sweeps_done;
    total_rotations += rotations;
    total_skipped += skipped;
    if (stats != nullptr) {
      stats->total_rotations += rotations;
      stats->total_skipped += skipped;
      if (cfg.track_convergence)
        stats->sweeps.push_back(detail::make_record(d, rotations, skipped));
    }
    detail::record_sweep_metrics(metrics, watchdog, deadline, numerics, sweep, d,
                                 rotations, skipped);
    if (cfg.tolerance > 0.0 && max_relative_offdiag(d) < cfg.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.sweeps = sweeps_done;
  if (cfg.tolerance == 0.0) {
    result.converged = max_relative_offdiag(d) < 1e-10;
  }

  obs::Span finalize_span;
  if (trace != nullptr)
    finalize_span = obs::Span(trace, tid, "svd", "finalize");
  detail::finalize_gram_result(a, d, v, cfg, result, ops, cfg.workspace);
  finalize_span.end();
  if (numerics != nullptr) numerics->observe_finalize(a, result);
  detail::record_run_metrics(metrics, m, n, sweeps_done, total_rotations,
                             total_skipped, result.converged);
  return result;
}

SvdResult parallel_plain_hestenes_svd(const Matrix& a,
                                      const HestenesConfig& cfg,
                                      const ParallelSweepConfig& par,
                                      HestenesStats* stats) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  HJSVD_ENSURE(m > 0 && n > 0, "matrix must be non-empty");
  HJSVD_ENSURE(cfg.max_sweeps > 0, "need at least one sweep");
  HJSVD_ENSURE(all_finite(a), "input matrix must be finite (no NaN/inf)");
  const fp::NativeOps ops;

  Matrix r = a;
  const bool need_v = cfg.compute_v;
  Matrix v;
  if (need_v) v = Matrix::identity(n);

  const auto rounds = round_robin_rounds(n);
  SvdResult result;
  if (stats != nullptr) *stats = HestenesStats{};
  auto* metrics = obs::active(cfg.obs.metrics);
  auto* watchdog = obs::active(cfg.obs.watchdog);
  auto* deadline = obs::active(cfg.obs.deadline);
  // Per-pair norms live inside the parallel region here, so the plain
  // engine feeds the probe at sweep/finalize granularity only.
  auto* numerics = obs::active(cfg.obs.numerics);

  std::size_t sweeps_done = 0;
  std::uint64_t total_rotations = 0, total_skipped = 0;
  for (std::size_t sweep = 0; sweep < cfg.max_sweeps; ++sweep) {
    std::atomic<std::uint64_t> rotations{0}, skipped{0};
    for (const auto& round : rounds) {
      // All pairs in a round touch disjoint columns: embarrassingly
      // parallel, and bit-identical to sequential execution.  The
      // fork-join's return is the round synchronization.
      for_each_index(par.pool, round.size(), [&](std::size_t p) {
        const auto [i, j] = round[p];
        const double norm_ii =
            detail::dot_maybe_relaxed(r.col(i), r.col(i), cfg, ops);
        const double norm_jj =
            detail::dot_maybe_relaxed(r.col(j), r.col(j), cfg, ops);
        const double cov =
            detail::dot_maybe_relaxed(r.col(i), r.col(j), cfg, ops);
        if (detail::below_threshold(cov, norm_ii, norm_jj,
                                    cfg.rotation_threshold)) {
          skipped.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const RotationParams rp =
            compute_rotation(cfg.formula, norm_jj, norm_ii, cov, ops);
        if (!rp.rotate) {
          skipped.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        detail::rotate_columns(r, i, j, rp.cos, rp.sin, ops);
        if (need_v) detail::rotate_columns(v, i, j, rp.cos, rp.sin, ops);
        rotations.fetch_add(1, std::memory_order_relaxed);
      });
    }
    ++sweeps_done;
    total_rotations += rotations.load();
    total_skipped += skipped.load();
    Matrix d;
    const bool need_gram = (stats != nullptr && cfg.track_convergence) ||
                           metrics != nullptr || watchdog != nullptr ||
                           numerics != nullptr || cfg.tolerance > 0.0;
    if (need_gram) d = detail::gram_upper_maybe_relaxed(r, cfg, ops);
    detail::record_sweep_metrics(metrics, watchdog, deadline, numerics, sweep, d,
                                 rotations.load(), skipped.load());
    if (stats != nullptr) {
      stats->total_rotations += rotations.load();
      stats->total_skipped += skipped.load();
      if (cfg.track_convergence)
        stats->sweeps.push_back(
            detail::make_record(d, rotations.load(), skipped.load()));
    }
    if (cfg.tolerance > 0.0 && max_relative_offdiag(d) < cfg.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.sweeps = sweeps_done;
  if (cfg.tolerance == 0.0) {
    result.converged =
        max_relative_offdiag(detail::gram_upper_maybe_relaxed(r, cfg, ops)) <
        1e-10;
  }
  detail::record_run_metrics(metrics, m, n, sweeps_done, total_rotations,
                             total_skipped, result.converged);

  detail::finalize_column_result(r, v, cfg, result, ops);
  if (numerics != nullptr) numerics->observe_finalize(a, result);
  return result;
}

}  // namespace hjsvd
