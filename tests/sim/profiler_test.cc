/**
 * @file
 * Unit tests for the shard time-budget profiler: bucket accumulation,
 * idle-window classification, skip counting, the JSON block, and the
 * TraceSink mirroring of noted phases.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../support/mini_json.hh"
#include "sim/json.hh"
#include "sim/profiler.hh"
#include "sim/trace_sink.hh"

using namespace shrimp::sim;

TEST(ShardProfilerTest, BucketsAccumulatePerWorker)
{
    ShardProfiler prof(2);
    prof.beginRun();
    prof.notePlan(0, 0, 10);
    prof.noteExecute(0, 10, 40, /*events_fired=*/5);
    prof.noteSync(0, 40, 55);
    prof.noteDrain(0, 55, 70, /*drained=*/3);
    prof.noteExecute(0, 70, 90, /*events_fired=*/0); // idle window
    prof.noteSpawn(0, 90, 100);
    prof.notePlan(1, 0, 25);
    prof.noteDrain(1, 25, 30, 9);
    prof.endRun();

    const ShardProfiler::Slot &s0 = prof.slot(0);
    EXPECT_EQ(s0.planNs, 10u);
    EXPECT_EQ(s0.executeNs, 30u);
    EXPECT_EQ(s0.syncNs, 15u);
    EXPECT_EQ(s0.drainNs, 15u);
    EXPECT_EQ(s0.idleNs, 20u);
    EXPECT_EQ(s0.spawnNs, 10u);
    EXPECT_EQ(s0.windows, 2u);
    EXPECT_EQ(s0.idleWindows, 1u);
    EXPECT_EQ(s0.events, 5u);
    EXPECT_EQ(s0.drained, 3u);
    EXPECT_EQ(s0.maxDrainBatch, 3u);
    EXPECT_EQ(s0.accountedNs(), 100u);

    ShardProfiler::Slot tot = prof.totals();
    EXPECT_EQ(tot.planNs, 35u);
    EXPECT_EQ(tot.drained, 12u);
    EXPECT_EQ(tot.maxDrainBatch, 9u);
    EXPECT_EQ(tot.windows, 2u);
    EXPECT_GT(prof.wallNs(), 0u);
}

TEST(ShardProfilerTest, BeginRunResetsState)
{
    ShardProfiler prof(1);
    prof.beginRun();
    prof.noteExecute(0, 0, 100, 1);
    prof.noteWindowSkip();
    prof.endRun();
    EXPECT_EQ(prof.slot(0).executeNs, 100u);
    EXPECT_EQ(prof.skippedWindowRuns(), 1u);

    prof.beginRun();
    EXPECT_TRUE(prof.running());
    EXPECT_EQ(prof.slot(0).executeNs, 0u);
    EXPECT_EQ(prof.skippedWindowRuns(), 0u);
    prof.endRun();
    EXPECT_FALSE(prof.running());
}

TEST(ShardProfilerTest, JsonBlockCarriesTheFullBudget)
{
    ShardProfiler prof(2);
    prof.beginRun();
    prof.noteExecute(0, 0, 40, 7);
    prof.noteDrain(1, 0, 10, 2);
    prof.noteSpawn(1, 10, 14);
    prof.noteWindowSkip();
    prof.endRun();

    std::ostringstream os;
    JsonWriter w(os);
    prof.dumpJson(w);
    w.finish();

    minijson::Value doc;
    std::string err;
    ASSERT_TRUE(minijson::parse(os.str(), doc, &err)) << err;

    const minijson::Value *shards = doc.find("shards");
    ASSERT_NE(shards, nullptr);
    EXPECT_EQ(shards->number, 2.0);
    ASSERT_NE(doc.find("wall_ns"), nullptr);
    ASSERT_NE(doc.find("accounted_frac"), nullptr);
    const minijson::Value *skips = doc.find("skipped_window_runs");
    ASSERT_NE(skips, nullptr);
    EXPECT_EQ(skips->number, 1.0);
    const minijson::Value *exec = doc.path("totals_ns.execute");
    ASSERT_NE(exec, nullptr);
    EXPECT_EQ(exec->number, 40.0);
    const minijson::Value *spawn = doc.path("totals_ns.spawn");
    ASSERT_NE(spawn, nullptr);
    EXPECT_EQ(spawn->number, 4.0);
    const minijson::Value *per = doc.find("per_shard");
    ASSERT_NE(per, nullptr);
    ASSERT_TRUE(per->isArray());
    ASSERT_EQ(per->array.size(), 2u);
    const minijson::Value *ev = per->array[0].find("events");
    ASSERT_NE(ev, nullptr);
    EXPECT_EQ(ev->number, 7.0);
}

TEST(ShardProfilerTest, TableListsEveryShardAndTheTotals)
{
    ShardProfiler prof(2);
    prof.beginRun();
    prof.noteExecute(0, 0, 50, 3);
    prof.noteExecute(1, 0, 20, 0);
    prof.endRun();

    std::ostringstream os;
    prof.writeTable(os);
    const std::string table = os.str();
    EXPECT_NE(table.find("shard time budget"), std::string::npos);
    EXPECT_NE(table.find("execute"), std::string::npos);
    EXPECT_NE(table.find("all"), std::string::npos);
    EXPECT_NE(table.find("idle windows: 1 of 2"), std::string::npos);
}

TEST(ShardProfilerTest, NotesAreDroppedWhenNotRunning)
{
    ShardProfiler prof(1);
    prof.noteExecute(0, 0, 100, 1); // before beginRun: recorded into
                                    // the slot but wiped by beginRun
    prof.beginRun();
    prof.endRun();
    EXPECT_EQ(prof.slot(0).executeNs, 0u);
    EXPECT_EQ(prof.totals().accountedNs(), 0u);
    EXPECT_EQ(prof.accountedFraction(), 0.0);
}

TEST(ShardProfilerTest, PhasesMirrorIntoTheTraceSink)
{
    TraceSink sink(2);
    ShardProfiler prof(2);
    prof.setTraceSink(&sink);
    prof.beginRun();
    prof.notePlan(0, 0, 10);
    prof.noteExecute(0, 10, 30, 4);
    prof.noteSync(0, 30, 35);
    prof.noteDrain(0, 35, 45, 1);
    prof.noteExecute(1, 0, 15, 0); // "idle" slice
    prof.noteSpawn(1, 15, 20);
    prof.endRun();

    // Six noted phases -> six wall slices -> twelve B/E events.
    EXPECT_EQ(sink.eventCount(), 12u);

    std::ostringstream os;
    sink.write(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"execute\""), std::string::npos);
    EXPECT_NE(text.find("\"idle\""), std::string::npos);
    EXPECT_NE(text.find("\"barrier.plan\""), std::string::npos);
    EXPECT_NE(text.find("\"barrier.sync\""), std::string::npos);
    EXPECT_NE(text.find("\"drain\""), std::string::npos);
    EXPECT_NE(text.find("\"spawn\""), std::string::npos);
}
