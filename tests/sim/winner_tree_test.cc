/**
 * @file
 * The sharded engine's merged in-shard event selection: a tournament
 * tree over cached (tick, priority) keys must pick exactly what a
 * linear min-scan picks — smallest key, ties to the lowest index —
 * after every operation the engine performs on it (rebuild, refresh
 * of the stepped leaf, post()'s decrease-key), including the
 * empty-queue maxTick sentinel and equal keys across indices.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/sharded.hh"

using namespace shrimp;
using namespace shrimp::sim;

namespace
{

using Key = WinnerTree::Key;

/** The reference: the scan the tree replaces. */
std::size_t
scanPick(const std::vector<Key> &keys)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < keys.size(); ++i) {
        if (keys[i] < keys[best])
            best = i;
    }
    return best;
}

/** A key from a deliberately tiny domain, so equal (tick, prio) pairs
 *  across indices are common; about one in eight is the sentinel. */
Key
randomKey(Random &rng)
{
    if (rng.below(8) == 0)
        return {maxTick, 0};
    return {Tick(rng.below(7)), std::int32_t(rng.below(3)) - 1};
}

void
expectAgrees(const WinnerTree &tree, const std::vector<Key> &ref,
             const char *op, int step)
{
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(tree.key(i), ref[i]) << op << " step " << step;
    ASSERT_EQ(tree.top(), scanPick(ref))
        << op << " step " << step << ", size " << ref.size();
    ASSERT_EQ(tree.topKey(), ref[scanPick(ref)]);
}

} // namespace

TEST(WinnerTree, MatchesTheLinearScanUnderRandomOperations)
{
    for (std::size_t n : {1u, 2u, 3u, 5u, 16u, 17u, 64u, 256u}) {
        Random rng(0x5eed0000 + n);
        WinnerTree tree(n);
        std::vector<Key> ref(n, Key{maxTick, 0});
        expectAgrees(tree, ref, "reset", 0);
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t op = rng.below(10);
            if (op == 0) {
                // Rebuild from scratch, as executeShard's entry does.
                for (auto &k : ref)
                    k = randomKey(rng);
                tree.rebuild([&ref](std::size_t i) { return ref[i]; });
                expectAgrees(tree, ref, "rebuild", step);
            } else if (op <= 5) {
                // Refresh the stepped leaf: the current winner (what
                // the engine steps) most of the time, any leaf else.
                const std::size_t i =
                    op <= 3 ? tree.top() : std::size_t(rng.below(n));
                ref[i] = randomKey(rng);
                tree.set(i, ref[i]);
                expectAgrees(tree, ref, "set", step);
            } else {
                // post()'s same-shard decrease-key: lowers only.
                const std::size_t i = std::size_t(rng.below(n));
                const Key k = randomKey(rng);
                if (k < ref[i])
                    ref[i] = k;
                tree.lower(i, k);
                expectAgrees(tree, ref, "lower", step);
            }
        }
    }
}

TEST(WinnerTree, EqualKeysGoToTheLowestIndex)
{
    WinnerTree tree(17);
    tree.rebuild([](std::size_t) { return Key{5, 0}; });
    EXPECT_EQ(tree.top(), 0u);
    tree.set(0, {maxTick, 0});
    EXPECT_EQ(tree.top(), 1u);
    // Lowering a higher index to the same key must not steal the win.
    tree.lower(9, {5, 0});
    EXPECT_EQ(tree.top(), 1u);
    tree.lower(16, {5, -1});
    EXPECT_EQ(tree.top(), 16u) << "a strictly smaller priority wins";
    tree.set(16, {maxTick, 0});
    EXPECT_EQ(tree.top(), 1u);
}

TEST(WinnerTree, AllSentinelsLeaveIndexZeroOnTop)
{
    for (std::size_t n : {1u, 3u, 64u}) {
        WinnerTree tree(n);
        EXPECT_EQ(tree.top(), 0u);
        EXPECT_EQ(tree.topKey().first, maxTick);
    }
}
