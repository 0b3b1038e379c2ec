// Shared plumbing for the benchmark harnesses that regenerate the paper's
// tables and figures: deterministic workload generation, robust wall-clock
// timing of the software baselines, and environment reporting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "linalg/matrix.hpp"

namespace hjsvd::report {

/// Deterministic gaussian test matrix for experiment (m, n); the seed mixes
/// the dimensions so every cell of a sweep gets distinct, repeatable data
/// (the paper uses "randomly generated datasets").
Matrix experiment_matrix(std::size_t m, std::size_t n,
                         std::uint64_t seed = 2014);

/// Runs `fn` repeatedly until at least `min_seconds` have elapsed (capped at
/// `max_reps`) and returns the best single-run time — the usual protocol for
/// stable wall-clock numbers on a shared machine.
double time_best(const std::function<void()>& fn, double min_seconds = 0.2,
                 std::size_t max_reps = 5);

/// Wall-clock seconds of the Golub-Kahan baseline (singular values only,
/// matching `sigma = svd(A)` in the paper's MATLAB benchmark).
double golub_kahan_seconds(const Matrix& a);

/// Wall-clock seconds of the pool-parallel group Hestenes baseline (the
/// GPU-like comparator), 6 sweeps, values only.
double parallel_hestenes_seconds(const Matrix& a);

/// One-line description of the host (threads, compiler) for report headers.
std::string host_description();

}  // namespace hjsvd::report
