// SeparationCache keying and eviction behavior.
//
// The cache keys entries on a *content* hash of the influence matrix. The
// regression suite here pins down two past hazards: the ABA stale-hit bug
// (an address-x-revision key resurrected a destroyed model's entry when the
// allocator reused its address at the same revision count) and the LRU
// bookkeeping around capacity overflow and slot reuse.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/influence.h"
#include "core/separation.h"

namespace fcm::core {
namespace {

// A two-member model whose only coupling is p1 -> p2 with the given direct
// influence; its order-1 separation is exactly 1 - weight.
std::unique_ptr<InfluenceModel> make_pair_model(double weight) {
  auto model = std::make_unique<InfluenceModel>();
  model->add_member(FcmId(1), "p1");
  model->add_member(FcmId(2), "p2");
  model->set_direct(FcmId(1), FcmId(2), Probability(weight));
  return model;
}

SeparationOptions order_one() {
  SeparationOptions options;
  options.max_order = 1;
  return options;
}

TEST(SeparationCache, NoStaleHitWhenModelAddressIsReused) {
  // ABA regression: construct and destroy models that share the same
  // mutation sequence (hence the same revision counter) until the allocator
  // hands a later model the address of an earlier, destroyed one. Keying on
  // address x revision returned the dead model's analysis; content keying
  // must recompute for the new model's different weights.
  SeparationCache cache(64);
  bool address_reused = false;
  std::vector<const InfluenceModel*> seen;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    // Weight varies per attempt, so every model has distinct content but an
    // identical revision count.
    const double weight = 0.1 + 0.8 * (attempt / 1000.0);
    const auto model = make_pair_model(weight);
    const SeparationAnalysis& analysis = cache.get(*model, order_one());
    EXPECT_DOUBLE_EQ(analysis.separation(0, 1).value(), 1.0 - weight)
        << "stale analysis served for model at reused address "
        << static_cast<const void*>(model.get());
    for (const InfluenceModel* prior : seen) {
      if (prior == model.get()) address_reused = true;
    }
    seen.push_back(model.get());
    if (address_reused && attempt > 8) break;  // hazard exercised; done
  }
  if (!address_reused) {
    GTEST_SKIP() << "allocator never reused a model address; ABA hazard not "
                    "reachable on this platform";
  }
}

TEST(SeparationCache, EqualContentSharesOneEntryAcrossDistinctObjects) {
  SeparationCache cache(8);
  const auto a = make_pair_model(0.3);
  const auto b = make_pair_model(0.3);
  cache.get(*a, order_one());
  cache.get(*b, order_one());  // same content, different object: a hit
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SeparationCache, MutationChangesContentAndMisses) {
  SeparationCache cache(8);
  auto model = make_pair_model(0.3);
  EXPECT_DOUBLE_EQ(cache.get(*model, order_one()).separation(0, 1).value(),
                   0.7);
  model->set_direct(FcmId(1), FcmId(2), Probability(0.6));
  EXPECT_DOUBLE_EQ(cache.get(*model, order_one()).separation(0, 1).value(),
                   0.4);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SeparationCache, EvictsLeastRecentlyUsedOnOverflow) {
  SeparationCache cache(2);
  const auto a = make_pair_model(0.1);
  const auto b = make_pair_model(0.2);
  const auto c = make_pair_model(0.3);
  cache.get(*a, order_one());          // miss, slot 0
  cache.get(*b, order_one());          // miss, slot 1
  cache.get(*a, order_one());          // hit: a is now the most recent
  cache.get(*c, order_one());          // miss, evicts b (LRU)
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.get(*a, order_one());          // still resident
  cache.get(*c, order_one());          // still resident
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
  cache.get(*b, order_one());          // evicted above: must recompute
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(SeparationCache, SlotReuseKeepsIndexConsistent) {
  // Roll many distinct models through a tiny cache so every slot is
  // reused repeatedly; each returned analysis must match its own model,
  // proving the key->slot index never points at an overwritten entry.
  SeparationCache cache(2);
  for (int round = 0; round < 50; ++round) {
    const double weight = 0.01 + 0.019 * round;
    const auto model = make_pair_model(weight);
    EXPECT_DOUBLE_EQ(cache.get(*model, order_one()).separation(0, 1).value(),
                     1.0 - weight);
  }
  EXPECT_EQ(cache.stats().misses, 50u);
  EXPECT_EQ(cache.stats().evictions, 48u);
}

TEST(SeparationCache, HitAfterEvictAndReinsert) {
  SeparationCache cache(2);
  const auto a = make_pair_model(0.25);
  const auto b = make_pair_model(0.5);
  const auto c = make_pair_model(0.75);
  cache.get(*a, order_one());
  cache.get(*b, order_one());
  cache.get(*c, order_one());  // evicts a
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Reinsert a (miss, evicts b), then query it again: must hit the
  // reinserted entry and return the right analysis.
  EXPECT_DOUBLE_EQ(cache.get(*a, order_one()).separation(0, 1).value(), 0.75);
  const std::uint64_t misses_after_reinsert = cache.stats().misses;
  EXPECT_DOUBLE_EQ(cache.get(*a, order_one()).separation(0, 1).value(), 0.75);
  EXPECT_EQ(cache.stats().misses, misses_after_reinsert);
  EXPECT_GE(cache.stats().hits, 1u);
}

TEST(SeparationCache, DifferentOptionsAreDistinctEntries) {
  SeparationCache cache(8);
  const auto model = make_pair_model(0.3);
  SeparationOptions deep;
  deep.max_order = 6;
  cache.get(*model, order_one());
  cache.get(*model, deep);
  EXPECT_EQ(cache.stats().misses, 2u);
}

}  // namespace
}  // namespace fcm::core
