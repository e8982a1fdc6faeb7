#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace hrmc::sim {
namespace {

TEST(CounterSet, IncrementAndQuery) {
  CounterSet c;
  EXPECT_EQ(c.get("missing"), 0u);
  c.inc("a");
  c.inc("a", 4);
  c.inc("b");
  EXPECT_EQ(c.get("a"), 5u);
  EXPECT_EQ(c.get("b"), 1u);
  EXPECT_EQ(c.all().size(), 2u);
  c.reset();
  EXPECT_EQ(c.get("a"), 0u);
}

}  // namespace
}  // namespace hrmc::sim
