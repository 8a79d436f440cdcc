/**
 * @file
 * Tests for the streaming JSON writer and StatGroup::writeJson.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "../support/mini_json.hh"
#include "sim/json.hh"
#include "sim/stats.hh"

using namespace shrimp;
using namespace shrimp::stats;

namespace
{

/** @p g written as the one member of a standalone JSON document. */
std::string
groupJson(const StatGroup &g)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    g.writeJson(w);
    w.endObject();
    w.finish();
    return os.str();
}

} // namespace

TEST(JsonWriter, WritesNestedDocument)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    w.field("name", "bench");
    w.field("count", std::uint64_t(3));
    w.field("ratio", 0.5);
    w.field("flag", true);
    w.key("list");
    w.beginArray();
    w.value(std::uint64_t(1));
    w.value(std::uint64_t(2));
    w.endArray();
    w.key("nested");
    w.beginObject();
    w.field("x", -1.25);
    w.endObject();
    w.endObject();
    w.finish();

    minijson::Value doc;
    std::string err;
    ASSERT_TRUE(minijson::parse(os.str(), doc, &err)) << err;
    EXPECT_EQ(doc.path("name")->str, "bench");
    EXPECT_EQ(doc.path("count")->number, 3.0);
    EXPECT_DOUBLE_EQ(doc.path("ratio")->number, 0.5);
    EXPECT_TRUE(doc.path("flag")->boolean);
    ASSERT_EQ(doc.path("list")->array.size(), 2u);
    EXPECT_DOUBLE_EQ(doc.path("nested.x")->number, -1.25);
}

TEST(JsonWriter, EscapesStrings)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    w.field("s", "a\"b\\c\nd\te");
    w.endObject();
    w.finish();

    minijson::Value doc;
    std::string err;
    ASSERT_TRUE(minijson::parse(os.str(), doc, &err)) << err;
    EXPECT_EQ(doc.path("s")->str, "a\"b\\c\nd\te");
}

TEST(JsonWriter, NonFiniteDoublesBecomeZero)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    w.field("nan", 0.0 / 0.0);
    w.endObject();
    w.finish();

    minijson::Value doc;
    ASSERT_TRUE(minijson::parse(os.str(), doc, nullptr));
    EXPECT_EQ(doc.path("nan")->number, 0.0);
}

TEST(StatGroup, DumpJsonIsValidWithStableKeyOrder)
{
    StatGroup g("kernel");
    Scalar zulu, alpha;
    zulu += 9;
    alpha += 4;
    // Registration order, not alphabetical order, must be preserved.
    g.addScalar("zulu", &zulu);
    g.addScalar("alpha", &alpha);
    Formula f;
    f = [] { return 42.0; };
    g.addFormula("answer", &f);

    const std::string json = groupJson(g);
    minijson::Value doc;
    std::string err;
    ASSERT_TRUE(minijson::parse(json, doc, &err)) << err;
    const minijson::Value *grp = doc.find("kernel");
    ASSERT_NE(grp, nullptr);
    ASSERT_TRUE(grp->isObject());
    ASSERT_GE(grp->object.size(), 3u);
    EXPECT_EQ(grp->object[0].first, "zulu");
    EXPECT_EQ(grp->object[1].first, "alpha");
    EXPECT_EQ(grp->path("zulu")->number, 9.0);
    EXPECT_EQ(grp->path("answer")->number, 42.0);

    // Identical state twice -> byte-identical output (stable order).
    EXPECT_EQ(json, groupJson(g));
}

TEST(StatGroup, HistogramBucketsRoundTripThroughJson)
{
    StatGroup g("bus");
    Histogram h(0, 40, 4);
    h.sample(-1);         // underflow
    h.sample(5);          // bucket 0
    h.sample(15);         // bucket 1
    h.sample(15);         // bucket 1
    h.sample(39);         // bucket 3
    h.sample(40);         // overflow (hi exclusive)
    g.addHistogram("burst_bytes", &h);

    minijson::Value doc;
    std::string err;
    ASSERT_TRUE(minijson::parse(groupJson(g), doc, &err)) << err;
    const minijson::Value *hist = doc.path("bus.burst_bytes");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->path("type")->str, "histogram");
    EXPECT_EQ(hist->path("count")->number, 6.0);
    EXPECT_EQ(hist->path("lo")->number, 0.0);
    EXPECT_EQ(hist->path("hi")->number, 40.0);
    EXPECT_EQ(hist->path("bucket_width")->number, 10.0);
    EXPECT_EQ(hist->path("underflows")->number, 1.0);
    EXPECT_EQ(hist->path("overflows")->number, 1.0);
    const minijson::Value *buckets = hist->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->array.size(), h.buckets());
    for (std::size_t b = 0; b < h.buckets(); ++b) {
        EXPECT_EQ(buckets->array[b].number, double(h.bucket(b)))
            << "bucket " << b;
    }
}
