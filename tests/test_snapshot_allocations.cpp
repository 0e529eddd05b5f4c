// Allocation budget of a TopologySnapshot.  The snapshot classifies the
// topology in one pass over flat arrays, so its allocations grow with the
// buffer view it returns (two adjacency lists per actor) and not with
// per-node hash sets or repeated digraph builds.  This binary replaces the
// global operator new to count allocations; the budgets sit well above
// today's counts (MP3 49, random chains of 8-64 actors 122 on average)
// and well below those of a classification that rebuilds the data
// digraph per check (197 and ~1000).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "analysis/snapshot.hpp"
#include "models/mp3.hpp"
#include "models/synthetic.hpp"
#include "util/error.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace vrdf::analysis {
namespace {

std::size_t snapshot_allocations(const dataflow::VrdfGraph& graph) {
  const std::size_t before = g_allocations.load();
  {
    const TopologySnapshot snapshot(graph);
    EXPECT_TRUE(snapshot.ok());
  }
  return g_allocations.load() - before;
}

TEST(SnapshotAllocations, Mp3StaysWithinBudget) {
  EXPECT_LE(snapshot_allocations(models::make_mp3_playback().graph), 80u);
}

TEST(SnapshotAllocations, RandomChainsStayWithinBudgetOnAverage) {
  std::size_t total = 0;
  std::size_t chains = 0;
  for (std::size_t length = 8; length <= 64; length += 8) {
    models::RandomChainSpec spec;
    spec.length = length;
    for (spec.seed = 1;; ++spec.seed) {
      try {
        const models::SyntheticChain chain = models::make_random_chain(spec);
        total += snapshot_allocations(chain.graph);
        ++chains;
        break;
      } catch (const OverflowError&) {
        // Long chains overflow on some seeds; take the next one.
      }
    }
  }
  ASSERT_EQ(chains, 8u);
  EXPECT_LE(total / chains, 200u);
}

}  // namespace
}  // namespace vrdf::analysis
