#include "flexopt/util/stat.hpp"

#include <gtest/gtest.h>

#include "flexopt/util/bitset.hpp"

namespace flexopt {
namespace {

TEST(Histogram, StartsEmpty) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.max_bucket(), -1);
  for (const auto b : h.buckets()) EXPECT_EQ(b, 0u);
}

TEST(Histogram, BucketOfFollowsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  // Values past the last bucket boundary all land in the final bucket.
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 40), Histogram::kBuckets - 1);
}

TEST(Histogram, BucketBoundsAreInclusiveUppers) {
  EXPECT_EQ(Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_bound(Histogram::kBuckets - 1), ~std::uint64_t{0});
  // Every representable value falls inside its own bucket's bound.
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 5ull, 63ull, 64ull, 1000ull}) {
    EXPECT_LE(v, Histogram::bucket_bound(Histogram::bucket_of(v))) << v;
  }
}

TEST(Histogram, RecordAccumulatesCountSumAndBuckets) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(1);
  h.record(6);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.max_bucket(), 3);
}

TEST(Histogram, MergeAddsElementwise) {
  Histogram a;
  a.record(1);
  a.record(4);
  Histogram b;
  b.record(4);
  b.record(100);
  a += b;
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 109u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[3], 2u);
  EXPECT_EQ(a.buckets()[7], 1u);
}

TEST(Histogram, SinceDiffsSnapshots) {
  Histogram h;
  h.record(2);
  h.record(9);
  const Histogram before = h;
  h.record(9);
  h.record(3);
  const Histogram delta = h.since(before);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_EQ(delta.sum(), 12u);
  EXPECT_EQ(delta.buckets()[2], 1u);
  EXPECT_EQ(delta.buckets()[4], 1u);
  EXPECT_EQ(delta.buckets()[1], 0u);
}

TEST(IndexBitset, ResetClearsAndSizes) {
  IndexBitset s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.any());
  s.reset(130);
  EXPECT_EQ(s.size(), 130u);
  EXPECT_FALSE(s.any());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(s.test(i));
}

TEST(IndexBitset, SetTestAndResetBit) {
  IndexBitset s;
  s.reset(100);
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(99);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(99));
  EXPECT_FALSE(s.test(1));
  EXPECT_FALSE(s.test(65));
  EXPECT_TRUE(s.any());
  s.reset_bit(63);
  EXPECT_FALSE(s.test(63));
  EXPECT_TRUE(s.test(64));
}

TEST(IndexBitset, ClearKeepsSize) {
  IndexBitset s;
  s.reset(70);
  s.set(5);
  s.set(69);
  s.clear();
  EXPECT_EQ(s.size(), 70u);
  EXPECT_FALSE(s.any());
}

TEST(IndexBitset, ResetShrinksAndRegrows) {
  IndexBitset s;
  s.reset(200);
  for (std::size_t i = 0; i < 200; ++i) s.set(i);
  s.reset(40);
  EXPECT_EQ(s.size(), 40u);
  EXPECT_FALSE(s.any());
  s.reset(200);
  EXPECT_FALSE(s.any());
}

}  // namespace
}  // namespace flexopt
