// Randomized reference-model test: the Fifo must behave exactly like a
// std::deque bounded by its capacity, under an arbitrary push/pop schedule.
#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"
#include "hwsim/fifo.hpp"

namespace hjsvd::hwsim {
namespace {

class FifoModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FifoModel, MatchesReferenceDeque) {
  Rng rng(GetParam());
  const std::size_t capacity = 1 + rng.bounded(16);
  Fifo<int> fifo(capacity);
  std::deque<int> model;
  std::uint64_t expect_push_stalls = 0, expect_pop_stalls = 0;
  std::size_t expect_high_water = 0;
  int next_value = 0;

  for (int step = 0; step < 5000; ++step) {
    if (rng.bounded(2) == 0) {
      const bool ok = fifo.try_push(next_value);
      if (model.size() >= capacity) {
        ASSERT_FALSE(ok);
        ++expect_push_stalls;
      } else {
        ASSERT_TRUE(ok);
        model.push_back(next_value);
        expect_high_water = std::max(expect_high_water, model.size());
      }
      ++next_value;
    } else {
      int out = -1;
      const bool ok = fifo.try_pop(out);
      if (model.empty()) {
        ASSERT_FALSE(ok);
        ++expect_pop_stalls;
      } else {
        ASSERT_TRUE(ok);
        ASSERT_EQ(out, model.front());
        model.pop_front();
      }
    }
    ASSERT_EQ(fifo.size(), model.size());
    ASSERT_EQ(fifo.empty(), model.empty());
    ASSERT_EQ(fifo.full(), model.size() >= capacity);
    if (!model.empty()) {
      ASSERT_EQ(fifo.front(), model.front());
    }
  }
  EXPECT_EQ(fifo.push_stalls(), expect_push_stalls);
  EXPECT_EQ(fifo.pop_stalls(), expect_pop_stalls);
  EXPECT_EQ(fifo.high_water(), expect_high_water);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoModel,
                         ::testing::Values(7u, 13u, 29u, 31u, 57u));

TEST(FifoModel, FrontOnEmptyThrows) {
  Fifo<int> fifo(2);
  EXPECT_THROW((void)fifo.front(), Error);
}

}  // namespace
}  // namespace hjsvd::hwsim
