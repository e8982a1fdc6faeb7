// Replay and no-perturbation tests compare two runs' counters as whole
// structs, so a counter added later is checked with no edit here.
#pragma once

#include <gtest/gtest.h>

#include "harness/scenario.hpp"

namespace hrmc::harness {

inline void expect_same_counters(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.sender, b.sender);
  EXPECT_EQ(a.per_receiver, b.per_receiver);
  EXPECT_EQ(a.sender_nic, b.sender_nic);
  EXPECT_EQ(a.receiver_nics, b.receiver_nics);
  EXPECT_EQ(a.routers, b.routers);
  EXPECT_EQ(a.sender_host, b.sender_host);
  EXPECT_EQ(a.receiver_hosts, b.receiver_hosts);
}

}  // namespace hrmc::harness
