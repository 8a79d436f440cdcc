/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

using namespace shrimp::stats;

TEST(Scalar, AccumulatesAndResets)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Average, TracksMeanMinMaxCount)
{
    Average a;
    a.sample(10);
    a.sample(2);
    a.sample(6);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 6.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 10.0);
    EXPECT_DOUBLE_EQ(a.sum(), 18.0);
}

TEST(Average, EmptyMeanIsZero)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

TEST(Average, ResetClears)
{
    Average a;
    a.sample(5);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    a.sample(-3);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
    EXPECT_DOUBLE_EQ(a.max(), -3.0);
}

TEST(Histogram, BucketsSamplesUniformly)
{
    Histogram h(0, 100, 10);
    for (int v = 0; v < 100; ++v)
        h.sample(v);
    for (std::size_t b = 0; b < h.buckets(); ++b)
        EXPECT_EQ(h.bucket(b), 10u) << "bucket " << b;
    EXPECT_EQ(h.underflows(), 0u);
    EXPECT_EQ(h.overflows(), 0u);
}

TEST(Histogram, UnderOverflowCounted)
{
    Histogram h(10, 20, 2);
    h.sample(5);
    h.sample(25);
    h.sample(20); // hi is exclusive
    h.sample(10); // lo is inclusive
    EXPECT_EQ(h.underflows(), 1u);
    EXPECT_EQ(h.overflows(), 2u);
    EXPECT_EQ(h.bucket(0), 1u);
}

TEST(Histogram, BucketBoundaries)
{
    Histogram h(0, 10, 5);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(4), 8.0);
    h.sample(1.999);
    h.sample(2.0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
}

TEST(Histogram, SummaryTracksAllSamples)
{
    Histogram h(0, 10, 2);
    h.sample(-5);
    h.sample(15);
    EXPECT_EQ(h.summary().count(), 2u);
    EXPECT_DOUBLE_EQ(h.summary().mean(), 5.0);
}
