#include "broadcast/parallel_broadcast.h"

#include <gtest/gtest.h>

namespace simulcast::broadcast {
namespace {

TEST(ParallelBroadcastHelpers, ExtractAndCorrectness) {
  sim::ExecutionResult result;
  result.outputs.resize(3);
  result.outputs[0] = BitVec::from_string("101");
  result.outputs[2] = BitVec::from_string("101");
  const auto announced = extract_announced(result, {1});
  EXPECT_TRUE(announced.consistent);
  EXPECT_EQ(announced.w.to_string(), "101");
  EXPECT_TRUE(correct_for_honest(announced, BitVec::from_string("111"), {1}));
  EXPECT_FALSE(correct_for_honest(announced, BitVec::from_string("011"), {1}));
}

TEST(ParallelBroadcastHelpers, InconsistentOutputsFlagged) {
  sim::ExecutionResult result;
  result.outputs.resize(2);
  result.outputs[0] = BitVec::from_string("10");
  result.outputs[1] = BitVec::from_string("01");
  const auto announced = extract_announced(result, {});
  EXPECT_FALSE(announced.consistent);
  EXPECT_FALSE(correct_for_honest(announced, BitVec::from_string("10"), {}));
}

}  // namespace
}  // namespace simulcast::broadcast
