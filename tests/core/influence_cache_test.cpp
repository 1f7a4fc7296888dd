// Correctness of the influence values the caches are built on, the Eq. 3
// SeparationCache (content-keyed, so model mutations miss), and the
// hierarchy revision counter that tracks structural mutations (R1-R5).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/influence.h"
#include "core/integration.h"
#include "core/separation.h"

namespace fcm::core {
namespace {

InfluenceFactor random_factor(Rng& rng) {
  InfluenceFactor factor;
  factor.occurrence = Probability(rng.uniform());
  factor.transmission = Probability(rng.uniform());
  factor.effect = Probability(rng.uniform());
  return factor;
}

TEST(InfluenceCache, CachedValuesMatchClosedFormAcross1000RandomModels) {
  Rng rng(211);
  for (int iter = 0; iter < 1000; ++iter) {
    const std::uint32_t n = 2 + rng.below(5);
    InfluenceModel model;
    for (std::uint32_t i = 0; i < n; ++i) {
      model.add_member(FcmId(i), "m" + std::to_string(i));
    }
    // Reference closed form tracked independently of the model.
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> none;
    const std::uint32_t factors = 1 + rng.below(3 * n);
    for (std::uint32_t f = 0; f < factors; ++f) {
      const std::uint32_t from = rng.below(n);
      std::uint32_t to = rng.below(n);
      if (to == from) to = (to + 1) % n;
      const InfluenceFactor factor = random_factor(rng);
      auto [it, inserted] = none.try_emplace({from, to}, 1.0);
      it->second *= 1.0 - factor.probability().value();
      model.add_factor(FcmId(from), FcmId(to), factor);
    }
    for (std::uint32_t from = 0; from < n; ++from) {
      for (std::uint32_t to = 0; to < n; ++to) {
        if (from == to) continue;
        const auto it = none.find({from, to});
        const double expected =
            it == none.end()
                ? 0.0
                : Probability::clamped(1.0 - it->second).value();
        EXPECT_DOUBLE_EQ(model.influence(FcmId(from), FcmId(to)).value(),
                         expected);
      }
    }
  }
}

TEST(InfluenceCache, MutationInvalidatesOnlyTheAffectedPair) {
  InfluenceModel model;
  for (std::uint32_t i = 0; i < 3; ++i) {
    model.add_member(FcmId(i), "m" + std::to_string(i));
  }
  InfluenceFactor factor;
  factor.occurrence = Probability(0.9);
  factor.transmission = Probability(0.9);
  factor.effect = Probability(0.9);
  model.add_factor(FcmId(0), FcmId(1), factor);
  model.add_factor(FcmId(1), FcmId(2), factor);
  const double before_01 = model.influence(FcmId(0), FcmId(1)).value();
  const double before_12 = model.influence(FcmId(1), FcmId(2)).value();

  // A second factor on (0,1) raises that pair's influence only.
  model.add_factor(FcmId(0), FcmId(1), factor);
  EXPECT_GT(model.influence(FcmId(0), FcmId(1)).value(), before_01);
  EXPECT_EQ(model.influence(FcmId(1), FcmId(2)).value(), before_12);
}

TEST(InfluenceCache, SetDirectReplacesTheMemoizedValue) {
  InfluenceModel model;
  model.add_member(FcmId(0), "a");
  model.add_member(FcmId(1), "b");
  model.set_direct(FcmId(0), FcmId(1), Probability(0.25));
  EXPECT_DOUBLE_EQ(model.influence(FcmId(0), FcmId(1)).value(), 0.25);
  model.set_direct(FcmId(0), FcmId(1), Probability(0.75));
  EXPECT_DOUBLE_EQ(model.influence(FcmId(0), FcmId(1)).value(), 0.75);
}

TEST(SeparationCacheTest, HitsOnRepeatMissesAfterModelMutation) {
  InfluenceModel model;
  model.add_member(FcmId(0), "a");
  model.add_member(FcmId(1), "b");
  model.set_direct(FcmId(0), FcmId(1), Probability(0.4));

  SeparationCache cache;
  const double first = cache.get(model).separation(0, 1).value();
  const double second = cache.get(model).separation(0, 1).value();
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  model.set_direct(FcmId(0), FcmId(1), Probability(0.8));
  const double after = cache.get(model).separation(0, 1).value();
  EXPECT_EQ(cache.stats().misses, 2u);  // content changed -> recompute
  const SeparationAnalysis fresh(model);
  EXPECT_DOUBLE_EQ(after, fresh.separation(0, 1).value());
}

TEST(SeparationCacheTest, MatrixKeyIsContentBased) {
  graph::Matrix a(3), b(3);
  a.at(0, 1) = b.at(0, 1) = 0.3;
  a.at(1, 2) = b.at(1, 2) = 0.6;

  SeparationCache cache;
  (void)cache.get(a);
  (void)cache.get(b);  // identical content, distinct object: still a hit
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  b.at(2, 0) = 0.1;
  (void)cache.get(b);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SeparationCacheTest, DistinctOptionsAreDistinctEntries) {
  graph::Matrix m(2);
  m.at(0, 1) = 0.9;
  m.at(1, 0) = 0.9;
  SeparationCache cache;
  SeparationOptions deep, shallow;
  shallow.max_order = 1;
  const double with_deep = cache.get(m, deep).interaction(0, 1);
  const double with_shallow = cache.get(m, shallow).interaction(0, 1);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_GT(with_deep, with_shallow);  // transitive term 0->1->0->1 counted
}

TEST(SeparationCacheTest, LruEvictionIsCounted) {
  SeparationCache cache(1);
  graph::Matrix a(2), b(2);
  a.at(0, 1) = 0.2;
  b.at(0, 1) = 0.7;
  (void)cache.get(a);
  (void)cache.get(b);  // capacity 1: evicts a
  EXPECT_EQ(cache.stats().evictions, 1u);
  (void)cache.get(a);  // recomputed after eviction
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_DOUBLE_EQ(cache.get(a).separation(0, 1).value(), 0.8);
}

TEST(HierarchyRevision, StructuralMutationsBumpTheCounter) {
  FcmHierarchy hierarchy;
  std::uint64_t last = hierarchy.revision();

  const FcmId p1 = hierarchy.create("p1", Level::kProcess);
  EXPECT_GT(hierarchy.revision(), last);
  last = hierarchy.revision();

  const FcmId t1 = hierarchy.create("t1", Level::kTask);
  const FcmId t2 = hierarchy.create("t2", Level::kTask);
  last = hierarchy.revision();
  hierarchy.attach(t1, p1);  // grouping per R1
  EXPECT_GT(hierarchy.revision(), last);
  last = hierarchy.revision();
  hierarchy.attach(t2, p1);
  EXPECT_GT(hierarchy.revision(), last);
  last = hierarchy.revision();

  (void)hierarchy.get_mutable(t1);  // writable access presumes mutation
  EXPECT_GT(hierarchy.revision(), last);
  last = hierarchy.revision();

  // R3 merge through the Integrator: siblings t1 and t2 collapse.
  Integrator integrator(hierarchy);
  (void)integrator.merge(t1, t2);
  EXPECT_GT(hierarchy.revision(), last);

  // Read-only traversal must NOT bump the revision.
  last = hierarchy.revision();
  (void)hierarchy.get(t1);
  (void)hierarchy.children(p1);
  (void)hierarchy.size();
  EXPECT_EQ(hierarchy.revision(), last);
}

}  // namespace
}  // namespace fcm::core
