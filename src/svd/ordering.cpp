#include "svd/ordering.hpp"

#include "common/error.hpp"

namespace hjsvd {

std::vector<Pair> row_cyclic_sweep(std::size_t n) {
  std::vector<Pair> pairs;
  if (n < 2) return pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i + 1 < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  return pairs;
}

std::vector<std::vector<Pair>> round_robin_rounds(std::size_t n) {
  std::vector<std::vector<Pair>> rounds;
  if (n < 2) return rounds;
  // Circle method: slot 0 is fixed; the remaining n-1 (or n, with a bye
  // sentinel for odd n) indexes rotate one position per round.
  const std::size_t slots = n % 2 == 0 ? n : n + 1;
  const std::size_t bye = n;  // sentinel for odd n
  std::vector<std::size_t> ring(slots);
  for (std::size_t i = 0; i < slots; ++i) ring[i] = i < n ? i : bye;
  rounds.reserve(slots - 1);
  for (std::size_t r = 0; r + 1 < slots; ++r) {
    std::vector<Pair> round;
    round.reserve(slots / 2);
    for (std::size_t k = 0; k < slots / 2; ++k) {
      std::size_t a = ring[k];
      std::size_t b = ring[slots - 1 - k];
      if (a == bye || b == bye) continue;
      if (a > b) std::swap(a, b);
      round.emplace_back(a, b);
    }
    rounds.push_back(std::move(round));
    // Rotate positions 1..slots-1 by one.
    const std::size_t last = ring[slots - 1];
    for (std::size_t k = slots - 1; k > 1; --k) ring[k] = ring[k - 1];
    ring[1] = last;
  }
  return rounds;
}

std::vector<std::vector<Pair>> odd_even_rounds(std::size_t n) {
  std::vector<std::vector<Pair>> rounds;
  if (n < 2) return rounds;
  rounds.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<Pair> round;
    for (std::size_t i = r % 2; i + 1 < n; i += 2) round.emplace_back(i, i + 1);
    rounds.push_back(std::move(round));
  }
  return rounds;
}

std::vector<std::vector<Pair>> sweep_rounds(Ordering ordering, std::size_t n) {
  switch (ordering) {
    case Ordering::kRowCyclic: {
      std::vector<std::vector<Pair>> rounds;
      for (const Pair& p : row_cyclic_sweep(n)) rounds.push_back({p});
      return rounds;
    }
    case Ordering::kRoundRobin:
      return round_robin_rounds(n);
    case Ordering::kOddEven:
      return odd_even_rounds(n);
  }
  throw Error("unknown ordering");
}

std::vector<Pair> sweep_pairs(Ordering ordering, std::size_t n) {
  if (ordering == Ordering::kRowCyclic) return row_cyclic_sweep(n);
  std::vector<Pair> flat;
  for (const auto& round : sweep_rounds(ordering, n))
    flat.insert(flat.end(), round.begin(), round.end());
  return flat;
}

std::vector<std::vector<Pair>> chunk_groups(const std::vector<Pair>& round,
                                            std::size_t group_size) {
  HJSVD_ENSURE(group_size > 0, "group size must be positive");
  std::vector<std::vector<Pair>> groups;
  for (std::size_t begin = 0; begin < round.size(); begin += group_size) {
    const std::size_t end = std::min(begin + group_size, round.size());
    groups.emplace_back(round.begin() + begin, round.begin() + end);
  }
  return groups;
}

}  // namespace hjsvd
