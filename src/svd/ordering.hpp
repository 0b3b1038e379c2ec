// Vector-pair orderings for one-sided Jacobi sweeps.
//
// A sweep must orthogonalize every pair of columns exactly once.  The paper
// (Section V.D, Fig. 6) uses the classic cyclic/round-robin tournament
// ordering: n-1 rounds of n/2 disjoint pairs, with indexes rotating around a
// fixed slot; disjoint pairs within a round can be rotated in parallel, and
// the hardware processes them in groups of 8 (the dashed box in Fig. 6).
// Algorithm 1's pseudocode iterates row-cyclically (i outer, j inner); both
// orderings are provided, plus odd-even for the ordering ablation.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace hjsvd {

/// A column pair (i, j) with i < j.
using Pair = std::pair<std::size_t, std::size_t>;

enum class Ordering {
  kRowCyclic,   // (0,1), (0,2), ..., (0,n-1), (1,2), ... — Algorithm 1
  kRoundRobin,  // tournament rounds of disjoint pairs — Fig. 6, the hardware
  kOddEven,     // alternating odd/even neighbor exchanges (ablation)
};

/// All pairs of a row-cyclic sweep, in order.
std::vector<Pair> row_cyclic_sweep(std::size_t n);

/// Round-robin tournament: n-1 rounds (n even; n odd gets a bye), each a set
/// of disjoint pairs covering every pair exactly once across the sweep.
std::vector<std::vector<Pair>> round_robin_rounds(std::size_t n);

/// Odd-even transposition ordering: n rounds alternating (0,1)(2,3)... and
/// (1,2)(3,4)...; a full sweep of n rounds does NOT cover all pairs once —
/// it is a neighbor-exchange scheme, listed for the convergence ablation.
std::vector<std::vector<Pair>> odd_even_rounds(std::size_t n);

/// One sweep as rounds of disjoint pairs: the round-robin and odd-even
/// rounds as above, and one single-pair round per pair for row-cyclic
/// (its consecutive pairs share a column, so none can run together).
std::vector<std::vector<Pair>> sweep_rounds(Ordering ordering, std::size_t n);

/// Flattened sweep for the given ordering (rounds concatenated in order).
std::vector<Pair> sweep_pairs(Ordering ordering, std::size_t n);

/// Splits one round's disjoint pairs into hardware groups of at most
/// `group_size` (the paper uses 8 concurrent rotations per group).
std::vector<std::vector<Pair>> chunk_groups(const std::vector<Pair>& round,
                                            std::size_t group_size);

}  // namespace hjsvd
