// Workspace arena: slot reuse accounting, zeroing, and the bitwise-identity
// contract of arena-backed decompositions.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "api/svd.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "linalg/matrix.hpp"
#include "svd/workspace.hpp"

namespace hjsvd {
namespace {

TEST(MatrixReshape, ReportsCapacityReuse) {
  Matrix m;
  EXPECT_FALSE(m.reshape(4, 4));  // cold: vector must grow
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_TRUE(m.reshape(2, 3));   // smaller fits in place
  EXPECT_TRUE(m.reshape(4, 4));   // capacity was retained
  EXPECT_FALSE(m.reshape(8, 8));  // larger grows again
}

TEST(MatrixReshape, ZeroesEveryEntry) {
  Matrix m(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) m(i, j) = 7.0;
  m.reshape(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Workspace, CountsAllocationsAndReuses) {
  Workspace ws;
  EXPECT_EQ(ws.alloc_total(), 0u);
  EXPECT_EQ(ws.reuse_total(), 0u);

  Matrix& a = ws.acquire(Workspace::Slot::kGram, 6, 6);
  EXPECT_EQ(ws.alloc_total(), 1u);
  EXPECT_EQ(ws.reuse_total(), 0u);
  a(0, 0) = 3.0;

  // Same slot, same shape: warm, and handed back zeroed.
  Matrix& b = ws.acquire(Workspace::Slot::kGram, 6, 6);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(ws.alloc_total(), 1u);
  EXPECT_EQ(ws.reuse_total(), 1u);
  EXPECT_EQ(b(0, 0), 0.0);

  // Smaller shape reuses; larger one re-allocates.
  ws.acquire(Workspace::Slot::kGram, 2, 3);
  EXPECT_EQ(ws.reuse_total(), 2u);
  ws.acquire(Workspace::Slot::kGram, 9, 9);
  EXPECT_EQ(ws.alloc_total(), 2u);

  // Slots are independent.
  ws.acquire(Workspace::Slot::kFinalizeB, 4, 4);
  EXPECT_EQ(ws.alloc_total(), 3u);
}

TEST(Workspace, ClearReleasesRetainedBuffersAndCounters) {
  Workspace ws;
  ws.acquire(Workspace::Slot::kGram, 8, 8);
  ws.acquire(Workspace::Slot::kGram, 8, 8);
  ws.clear();
  EXPECT_EQ(ws.alloc_total(), 0u);
  EXPECT_EQ(ws.reuse_total(), 0u);
  // The cleared slot dropped its storage, so the next acquire is cold.
  ws.acquire(Workspace::Slot::kGram, 8, 8);
  EXPECT_EQ(ws.alloc_total(), 1u);
  EXPECT_EQ(ws.reuse_total(), 0u);
}

/// Arena-backed svd() must be bitwise identical to the allocating path,
/// including on the second (warm) run where every buffer is reused.
TEST(Workspace, SvdIsBitwiseIdenticalWarmAndCold) {
  Rng rng(77);
  const Matrix a = random_gaussian(18, 12, rng);
  for (const bool vectors : {false, true}) {
    SvdOptions plain;
    plain.compute_u = vectors;
    plain.compute_v = vectors;
    const SvdResult ref = svd(a, plain);

    Workspace ws;
    SvdOptions arena = plain;
    arena.workspace = &ws;
    for (int run = 0; run < 3; ++run) {
      const SvdResult got = svd(a, arena);
      ASSERT_EQ(got.singular_values.size(), ref.singular_values.size());
      for (std::size_t i = 0; i < ref.singular_values.size(); ++i)
        EXPECT_EQ(got.singular_values[i], ref.singular_values[i])
            << "run " << run << " sv " << i << " vectors=" << vectors;
      if (vectors) {
        for (std::size_t j = 0; j < ref.v.cols(); ++j)
          for (std::size_t i = 0; i < ref.v.rows(); ++i)
            ASSERT_EQ(got.v(i, j), ref.v(i, j)) << "run " << run;
        for (std::size_t j = 0; j < ref.u.cols(); ++j)
          for (std::size_t i = 0; i < ref.u.rows(); ++i)
            ASSERT_EQ(got.u(i, j), ref.u(i, j)) << "run " << run;
      }
    }
    EXPECT_GT(ws.reuse_total(), 0u) << "repeat runs must go warm";
  }
}

/// After the first same-shape decomposition, repeat calls are allocation
/// free: alloc_total stays flat while reuse_total grows.  The Gram slot
/// holds D padded to padded_ld(n) x n (n = 10 -> 16, n = 64 -> 72), so
/// this also checks that the padding is sized once per n.
TEST(Workspace, WarmRunsAreAllocationFree) {
  Rng rng(5);
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{16, 10},
                             std::pair<std::size_t, std::size_t>{70, 64}}) {
    const Matrix a = random_gaussian(m, n, rng);
    Workspace ws;
    SvdOptions opt;
    opt.compute_u = true;
    opt.compute_v = true;
    opt.workspace = &ws;
    (void)svd(a, opt);
    const std::uint64_t cold_allocs = ws.alloc_total();
    EXPECT_GT(cold_allocs, 0u) << "n=" << n;
    const std::uint64_t warm_start_reuse = ws.reuse_total();
    for (int run = 0; run < 4; ++run) (void)svd(a, opt);
    EXPECT_EQ(ws.alloc_total(), cold_allocs) << "n=" << n;
    EXPECT_GT(ws.reuse_total(), warm_start_reuse) << "n=" << n;
  }
}

}  // namespace
}  // namespace hjsvd
