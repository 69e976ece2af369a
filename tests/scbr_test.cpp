// SCBR tests: values/constraints, filter matching + containment, both
// matching engines (equivalence + pruning), the secure router
// (encryption, signatures, authorization), and the workload generator.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <tuple>

#include "scbr/naive_engine.hpp"
#include "scbr/poset_engine.hpp"
#include "scbr/router.hpp"
#include "scbr/sharded_engine.hpp"
#include "scbr/workload.hpp"
#include "sgx/platform.hpp"

namespace securecloud::scbr {
namespace {

using crypto::DeterministicEntropy;

// -------------------------------------------------------------------- Value

TEST(Value, TypedComparisons) {
  EXPECT_TRUE(Value::of(std::int64_t{5}) == Value::of(5.0));  // cross-numeric
  EXPECT_TRUE(Value::of(std::int64_t{3}) < Value::of(3.5));
  EXPECT_TRUE(Value::of(std::string("a")) < Value::of(std::string("b")));
  EXPECT_FALSE(Value::of(std::string("5")) == Value::of(std::int64_t{5}));
  EXPECT_FALSE(Value::of(std::string("x")).comparable(Value::of(std::int64_t{1})));
}

TEST(Value, SerializationRoundTrip) {
  for (const Value& v : {Value::of(std::int64_t{-42}), Value::of(2.75),
                         Value::of(std::string("hello"))}) {
    Bytes b;
    v.serialize_to(b);
    ByteReader r(b);
    auto parsed = Value::deserialize(r);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(*parsed == v);
  }
}

TEST(Constraint, AllOperators) {
  const Value ten = Value::of(std::int64_t{10});
  EXPECT_TRUE((Constraint{"a", Op::kEq, ten}.matches(Value::of(std::int64_t{10}))));
  EXPECT_FALSE((Constraint{"a", Op::kEq, ten}.matches(Value::of(std::int64_t{11}))));
  EXPECT_TRUE((Constraint{"a", Op::kNe, ten}.matches(Value::of(std::int64_t{11}))));
  EXPECT_TRUE((Constraint{"a", Op::kLt, ten}.matches(Value::of(std::int64_t{9}))));
  EXPECT_FALSE((Constraint{"a", Op::kLt, ten}.matches(Value::of(std::int64_t{10}))));
  EXPECT_TRUE((Constraint{"a", Op::kLe, ten}.matches(Value::of(std::int64_t{10}))));
  EXPECT_TRUE((Constraint{"a", Op::kGt, ten}.matches(Value::of(std::int64_t{11}))));
  EXPECT_TRUE((Constraint{"a", Op::kGe, ten}.matches(Value::of(std::int64_t{10}))));
  EXPECT_FALSE((Constraint{"a", Op::kGe, ten}.matches(Value::of(std::int64_t{9}))));
}

// ------------------------------------------------------------------- Filter

TEST(Filter, ConjunctionSemantics) {
  Filter f;
  f.where("temp", Op::kGe, Value::of(std::int64_t{20}))
      .where("temp", Op::kLe, Value::of(std::int64_t{30}))
      .where("city", Op::kEq, Value::of(std::string("zurich")));

  Event in_range;
  in_range.set("temp", std::int64_t{25});
  in_range.set("city", "zurich");
  EXPECT_TRUE(f.matches(in_range));

  Event wrong_city = in_range;
  wrong_city.set("city", "basel");
  EXPECT_FALSE(f.matches(wrong_city));

  Event missing_attr;
  missing_attr.set("temp", std::int64_t{25});
  EXPECT_FALSE(f.matches(missing_attr));  // absent attribute fails
}

TEST(Filter, MatchCountsComparisons) {
  Filter f;
  f.where("a", Op::kGe, Value::of(std::int64_t{0}))
      .where("b", Op::kGe, Value::of(std::int64_t{0}));
  Event e;
  e.set("a", std::int64_t{1});
  e.set("b", std::int64_t{1});
  std::uint64_t comparisons = 0;
  EXPECT_TRUE(f.matches(e, &comparisons));
  EXPECT_EQ(comparisons, 2u);

  // Short-circuits on first failure.
  Event bad;
  bad.set("a", std::int64_t{-1});
  bad.set("b", std::int64_t{1});
  comparisons = 0;
  EXPECT_FALSE(f.matches(bad, &comparisons));
  EXPECT_EQ(comparisons, 1u);
}

TEST(Filter, CoversRangeContainment) {
  Filter broad, narrow;
  broad.where("x", Op::kGe, Value::of(std::int64_t{0}))
      .where("x", Op::kLe, Value::of(std::int64_t{100}));
  narrow.where("x", Op::kGe, Value::of(std::int64_t{10}))
      .where("x", Op::kLe, Value::of(std::int64_t{90}));
  EXPECT_TRUE(broad.covers(narrow));
  EXPECT_FALSE(narrow.covers(broad));
  EXPECT_TRUE(broad.covers(broad));
}

TEST(Filter, CoversEqualityPin) {
  Filter range, pin;
  range.where("x", Op::kGe, Value::of(std::int64_t{0}))
      .where("x", Op::kLe, Value::of(std::int64_t{100}));
  pin.where("x", Op::kEq, Value::of(std::int64_t{50}));
  EXPECT_TRUE(range.covers(pin));
  EXPECT_FALSE(pin.covers(range));

  Filter pin_outside;
  pin_outside.where("x", Op::kEq, Value::of(std::int64_t{200}));
  EXPECT_FALSE(range.covers(pin_outside));
}

TEST(Filter, CoversStrictnessMatters) {
  Filter open_filter, closed;
  open_filter.where("x", Op::kGt, Value::of(std::int64_t{10}));
  closed.where("x", Op::kGe, Value::of(std::int64_t{10}));
  EXPECT_TRUE(closed.covers(open_filter));   // (10,inf) ⊆ [10,inf)
  EXPECT_FALSE(open_filter.covers(closed));  // 10 itself not admitted
}

TEST(Filter, CoversRequiresAttributeConstrainedInInner) {
  Filter outer, inner;
  outer.where("x", Op::kGe, Value::of(std::int64_t{0}));
  inner.where("y", Op::kGe, Value::of(std::int64_t{0}));
  // inner admits events without attribute x; outer does not.
  EXPECT_FALSE(outer.covers(inner));
  // More attributes constrained = narrower.
  Filter both;
  both.where("x", Op::kGe, Value::of(std::int64_t{5}))
      .where("y", Op::kGe, Value::of(std::int64_t{5}));
  EXPECT_TRUE(outer.covers(both));
}

TEST(Filter, CoversStringEquality) {
  Filter any_city, zurich;
  any_city.where("city", Op::kNe, Value::of(std::string("geneva")));
  zurich.where("city", Op::kEq, Value::of(std::string("zurich")));
  EXPECT_TRUE(any_city.covers(zurich));
  Filter geneva;
  geneva.where("city", Op::kEq, Value::of(std::string("geneva")));
  EXPECT_FALSE(any_city.covers(geneva));
}

TEST(Filter, CoversIsSoundOnRandomPairs) {
  // Soundness property: whenever covers() says yes, every matching event
  // of the inner filter must match the outer one.
  ScbrWorkload workload({.attribute_universe = 4,
                         .attributes_per_filter = 2,
                         .value_range = 50,
                         .width_fraction = 0.5,
                         .hierarchy_fraction = 0.6,
                         .parent_pool = 64},
                        7);
  std::vector<Filter> filters;
  for (int i = 0; i < 60; ++i) filters.push_back(workload.next_filter());

  Rng rng(3);
  std::uint64_t cover_pairs = 0;
  for (const auto& outer : filters) {
    for (const auto& inner : filters) {
      if (!outer.covers(inner)) continue;
      ++cover_pairs;
      for (int trial = 0; trial < 40; ++trial) {
        Event e;
        for (int a = 0; a < 4; ++a) {
          e.set("attr" + std::to_string(a), rng.uniform_in(0, 50));
        }
        if (inner.matches(e)) {
          EXPECT_TRUE(outer.matches(e)) << "covers() unsound";
        }
      }
    }
  }
  EXPECT_GT(cover_pairs, 60u);  // hierarchy produces plenty of containment
}

// Minimized regressions for covers() type confusion. Constraint::matches
// is type-gated — a numeric constraint never matches a string event value
// and vice versa, for every operator including != — so a != of one kind
// cannot cover a range of the other kind, and a string bound must not
// leak into the numeric interval as 0.
TEST(Filter, CoversRejectsKindMismatchedNe) {
  Filter not_foo, ge5;
  not_foo.where("x", Op::kNe, Value::of(std::string("foo")));
  ge5.where("x", Op::kGe, Value::of(std::int64_t{5}));
  Event e;
  e.set("x", std::int64_t{7});
  EXPECT_TRUE(ge5.matches(e));
  EXPECT_FALSE(not_foo.matches(e));  // 7 is not comparable to "foo"
  EXPECT_FALSE(not_foo.covers(ge5));

  Filter not_five, is_bar;
  not_five.where("x", Op::kNe, Value::of(std::int64_t{5}));
  is_bar.where("x", Op::kEq, Value::of(std::string("bar")));
  Event s;
  s.set("x", "bar");
  EXPECT_TRUE(is_bar.matches(s));
  EXPECT_FALSE(not_five.matches(s));
  EXPECT_FALSE(not_five.covers(is_bar));
}

TEST(Filter, CoversStringBoundIsNotNumericZero) {
  Filter below_z, minus_five;
  below_z.where("x", Op::kLt, Value::of(std::string("z")));
  minus_five.where("x", Op::kEq, Value::of(std::int64_t{-5}));
  Event e;
  e.set("x", std::int64_t{-5});
  EXPECT_TRUE(minus_five.matches(e));
  EXPECT_FALSE(below_z.matches(e));  // numeric -5 not comparable to "z"
  EXPECT_FALSE(below_z.covers(minus_five));
}

TEST(Filter, CoversStringRangeContainment) {
  // Lexicographic bounds participate in containment instead of being
  // conservatively rejected (or mis-modelled as numeric zeroes).
  Filter broad, narrow;
  broad.where("s", Op::kGe, Value::of(std::string("b")))
      .where("s", Op::kLe, Value::of(std::string("x")));
  narrow.where("s", Op::kGe, Value::of(std::string("c")))
      .where("s", Op::kLt, Value::of(std::string("m")));
  EXPECT_TRUE(broad.covers(narrow));
  EXPECT_FALSE(narrow.covers(broad));
  Filter edge;
  edge.where("s", Op::kGt, Value::of(std::string("b")));
  EXPECT_TRUE(broad.covers(broad));
  EXPECT_FALSE(edge.covers(broad));  // "b" itself admitted only by broad
}

TEST(Filter, CoversSoundnessFuzzMixedTypes) {
  // Seeded property fuzz across all six operators with int, double, and
  // string values sharing attribute names, so kind collisions, boundary
  // strictness, and non-finite values are exercised:
  //   covers(f, g) && g.matches(e)  ⟹  f.matches(e).
  Rng rng(0xC0BE5);
  const std::array<Op, 6> ops = {Op::kEq, Op::kNe, Op::kLt,
                                 Op::kLe, Op::kGt, Op::kGe};
  const std::array<const char*, 2> attrs = {"x", "y"};

  auto random_value = [&rng]() {
    switch (rng.uniform(6)) {
      case 0: return Value::of(rng.uniform_in(-3, 3));
      case 1: return Value::of(static_cast<double>(rng.uniform_in(-6, 6)) / 2.0);
      case 2:
        return Value::of(std::string(1, static_cast<char>('a' + rng.uniform(4))));
      case 3:
        return Value::of(std::numeric_limits<double>::infinity() *
                         (rng.chance(0.5) ? 1.0 : -1.0));
      case 4: return Value::of(std::numeric_limits<double>::quiet_NaN());
      default: return Value::of(rng.uniform_in(-40, 40));
    }
  };
  auto random_filter = [&]() {
    Filter f;
    const std::uint64_t n = 1 + rng.uniform(3);
    for (std::uint64_t i = 0; i < n; ++i) {
      f.where(attrs[rng.uniform(attrs.size())], ops[rng.uniform(ops.size())],
              random_value());
    }
    return f;
  };
  auto describe = [](const Filter& f) {
    std::string out;
    for (const auto& c : f.constraints()) {
      out += c.attribute;
      out += to_string(c.op);
      if (c.value.type() == Value::Type::kString) {
        out += "\"" + c.value.as_string() + "\"";
      } else {
        out += std::to_string(c.value.numeric());
      }
      out += " ";
    }
    return out;
  };

  std::uint64_t cover_pairs = 0;
  std::uint64_t implications_checked = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const Filter f = random_filter();
    const Filter g = random_filter();
    if (!f.covers(g)) continue;
    ++cover_pairs;
    for (int trial = 0; trial < 25; ++trial) {
      Event e;
      for (const char* attr : attrs) {
        if (rng.chance(0.85)) e.attributes[attr] = random_value();
      }
      if (!g.matches(e)) continue;
      ++implications_checked;
      ASSERT_TRUE(f.matches(e))
          << "covers() unsound: outer {" << describe(f) << "} claims to cover {"
          << describe(g) << "} but misses a matching event";
    }
  }
  // The generator must actually produce containment and matching events,
  // or the property above is vacuous.
  EXPECT_GT(cover_pairs, 50u);
  EXPECT_GT(implications_checked, 100u);
}

TEST(Filter, SerializationRoundTrip) {
  Filter f;
  f.where("temp", Op::kGt, Value::of(3.5))
      .where("city", Op::kEq, Value::of(std::string("bern")));
  auto parsed = Filter::deserialize(f.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->constraints().size(), 2u);
  EXPECT_EQ(parsed->constraints()[1].attribute, "city");
}

TEST(Event, SerializationRoundTrip) {
  Event e;
  e.set("a", std::int64_t{1});
  e.set("b", 2.5);
  e.set("c", "three");
  auto parsed = Event::deserialize(e.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed->find("a") == Value::of(std::int64_t{1}));
  EXPECT_TRUE(*parsed->find("c") == Value::of(std::string("three")));
  EXPECT_EQ(parsed->find("zzz"), nullptr);
}

// ------------------------------------------------------------------ Engines

Filter range_filter(const std::string& attr, std::int64_t lo, std::int64_t hi) {
  Filter f;
  f.where(attr, Op::kGe, Value::of(lo)).where(attr, Op::kLe, Value::of(hi));
  return f;
}

Event point_event(const std::string& attr, std::int64_t v) {
  Event e;
  e.set(attr, v);
  return e;
}

TEST(NaiveEngine, MatchesAndUnsubscribes) {
  NaiveEngine engine;
  engine.subscribe(1, range_filter("x", 0, 10));
  engine.subscribe(2, range_filter("x", 5, 15));
  engine.subscribe(3, range_filter("y", 0, 10));

  auto matched = engine.match(point_event("x", 7));
  std::sort(matched.begin(), matched.end());
  EXPECT_EQ(matched, (std::vector<SubscriptionId>{1, 2}));

  EXPECT_TRUE(engine.unsubscribe(2));
  EXPECT_FALSE(engine.unsubscribe(2));
  matched = engine.match(point_event("x", 7));
  EXPECT_EQ(matched, (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(engine.size(), 2u);
}

TEST(PosetEngine, BuildsContainmentHierarchy) {
  PosetEngine engine;
  engine.subscribe(1, range_filter("x", 0, 100));   // root
  engine.subscribe(2, range_filter("x", 10, 90));   // child of 1
  engine.subscribe(3, range_filter("x", 20, 80));   // child of 2
  engine.subscribe(4, range_filter("y", 0, 10));    // separate root

  EXPECT_EQ(engine.root_count(), 2u);
  EXPECT_EQ(engine.max_depth(), 3u);
  EXPECT_TRUE(engine.check_invariants());
}

TEST(PosetEngine, AdoptsCoveredSiblingsOnInsert) {
  PosetEngine engine;
  engine.subscribe(1, range_filter("x", 10, 20));
  engine.subscribe(2, range_filter("x", 30, 40));
  EXPECT_EQ(engine.root_count(), 2u);
  // A broad filter covering both becomes their parent.
  engine.subscribe(3, range_filter("x", 0, 100));
  EXPECT_EQ(engine.root_count(), 1u);
  EXPECT_EQ(engine.max_depth(), 2u);
  EXPECT_TRUE(engine.check_invariants());
}

TEST(PosetEngine, PruningSkipsCoveredSubtrees) {
  PosetEngine engine;
  engine.subscribe(1, range_filter("x", 0, 10));
  for (SubscriptionId id = 2; id <= 50; ++id) {
    engine.subscribe(id, range_filter("x", 1, 5));  // all under 1
  }
  engine.reset_stats();
  // Event outside the root range: only the root is inspected.
  auto matched = engine.match(point_event("x", 999));
  EXPECT_TRUE(matched.empty());
  EXPECT_EQ(engine.stats().nodes_visited, 1u);
}

TEST(PosetEngine, UnsubscribeSplicesChildren) {
  PosetEngine engine;
  engine.subscribe(1, range_filter("x", 0, 100));
  engine.subscribe(2, range_filter("x", 10, 90));
  engine.subscribe(3, range_filter("x", 20, 80));
  ASSERT_TRUE(engine.unsubscribe(2));  // middle node
  EXPECT_TRUE(engine.check_invariants());

  auto matched = engine.match(point_event("x", 50));
  std::sort(matched.begin(), matched.end());
  EXPECT_EQ(matched, (std::vector<SubscriptionId>{1, 3}));
}

TEST(PosetEngine, MatchesEquivalentToNaiveOnRandomWorkload) {
  ScbrWorkload workload({.attribute_universe = 6,
                         .attributes_per_filter = 2,
                         .value_range = 200,
                         .width_fraction = 0.4,
                         .hierarchy_fraction = 0.5,
                         .parent_pool = 128},
                        11);
  NaiveEngine naive;
  PosetEngine poset;
  for (SubscriptionId id = 1; id <= 300; ++id) {
    const Filter f = workload.next_filter();
    naive.subscribe(id, f);
    poset.subscribe(id, f);
  }
  ASSERT_TRUE(poset.check_invariants());

  for (int i = 0; i < 200; ++i) {
    const Event e = workload.next_event();
    auto a = naive.match(e);
    auto b = poset.match(e);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "engines disagree on event " << i;
  }
}

TEST(PosetEngine, EquivalenceSurvivesChurn) {
  ScbrWorkload workload({.attribute_universe = 5,
                         .attributes_per_filter = 2,
                         .value_range = 100,
                         .width_fraction = 0.5,
                         .hierarchy_fraction = 0.6,
                         .parent_pool = 64},
                        13);
  NaiveEngine naive;
  PosetEngine poset;
  Rng rng(17);
  std::vector<SubscriptionId> live;
  SubscriptionId next_id = 1;

  for (int round = 0; round < 500; ++round) {
    if (live.empty() || rng.chance(0.7)) {
      const Filter f = workload.next_filter();
      naive.subscribe(next_id, f);
      poset.subscribe(next_id, f);
      live.push_back(next_id++);
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform(live.size()));
      const SubscriptionId id = live[pick];
      EXPECT_TRUE(naive.unsubscribe(id));
      EXPECT_TRUE(poset.unsubscribe(id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (round % 50 == 0) {
      ASSERT_TRUE(poset.check_invariants()) << "round " << round;
      const Event e = workload.next_event();
      auto a = naive.match(e);
      auto b = poset.match(e);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b) << "round " << round;
    }
  }
}

TEST(PosetEngine, FewerComparisonsThanNaiveOnHierarchicalWorkload) {
  ScbrWorkload workload({.attribute_universe = 8,
                         .attributes_per_filter = 3,
                         .value_range = 1000,
                         .width_fraction = 0.2,
                         .hierarchy_fraction = 0.8,
                         .parent_pool = 512},
                        19);
  NaiveEngine naive;
  PosetEngine poset;
  for (SubscriptionId id = 1; id <= 2000; ++id) {
    const Filter f = workload.next_filter();
    naive.subscribe(id, f);
    poset.subscribe(id, f);
  }
  for (int i = 0; i < 100; ++i) {
    const Event e = workload.next_event();
    (void)naive.match(e);
    (void)poset.match(e);
  }
  EXPECT_LT(poset.stats().nodes_visited, naive.stats().nodes_visited / 2)
      << "poset should prune at least half the inspections";
}

TEST(Engines, DatabaseBytesTracksSubscriptions) {
  NaiveEngine engine;
  EXPECT_EQ(engine.database_bytes(), 0u);
  engine.subscribe(1, range_filter("x", 0, 10));
  const std::size_t one = engine.database_bytes();
  EXPECT_GT(one, 0u);
  engine.subscribe(2, range_filter("x", 0, 10));
  EXPECT_EQ(engine.database_bytes(), 2 * one);
  engine.unsubscribe(1);
  EXPECT_EQ(engine.database_bytes(), one);
}

// ----------------------------------------------------------- Sharded engine

TEST(ShardedEngine, EquivalentToNaiveUnderChurn) {
  ScbrWorkload workload({.attribute_universe = 6,
                         .attributes_per_filter = 2,
                         .value_range = 200,
                         .width_fraction = 0.4,
                         .hierarchy_fraction = 0.6,
                         .parent_pool = 128},
                        23);
  NaiveEngine naive;
  ShardedPosetEngine sharded;
  Rng rng(29);
  std::vector<SubscriptionId> live;
  SubscriptionId next_id = 1;

  for (int round = 0; round < 600; ++round) {
    if (live.empty() || rng.chance(0.7)) {
      const Filter f = workload.next_filter();
      naive.subscribe(next_id, f);
      sharded.subscribe(next_id, f);
      live.push_back(next_id++);
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform(live.size()));
      const SubscriptionId id = live[pick];
      EXPECT_TRUE(naive.unsubscribe(id));
      EXPECT_TRUE(sharded.unsubscribe(id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (round % 60 == 0) {
      ASSERT_TRUE(sharded.check_invariants()) << "round " << round;
      const Event e = workload.next_event();
      auto a = naive.match(e);
      auto b = sharded.match(e);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b) << "round " << round;
      EXPECT_EQ(sharded.matches_any(e), !a.empty()) << "round " << round;
    }
  }
  EXPECT_EQ(sharded.size(), live.size());
  EXPECT_GT(sharded.shard_count(), 1u);
}

TEST(ShardedEngine, CoveredByAnyCrossesShards) {
  ShardedPosetEngine engine;
  // Coverer over {x} lives in a different shard than probes over {x,y}.
  Filter broad;
  broad.where("x", Op::kGe, Value::of(std::int64_t{0}))
      .where("x", Op::kLe, Value::of(std::int64_t{100}));
  engine.subscribe(1, broad);

  Filter narrow;
  narrow.where("x", Op::kGe, Value::of(std::int64_t{10}))
      .where("x", Op::kLe, Value::of(std::int64_t{20}))
      .where("y", Op::kEq, Value::of(std::int64_t{5}));
  EXPECT_TRUE(engine.covered_by_any(narrow));

  Filter outside;
  outside.where("x", Op::kGe, Value::of(std::int64_t{200}))
      .where("y", Op::kEq, Value::of(std::int64_t{5}));
  EXPECT_FALSE(engine.covered_by_any(outside));

  Filter other_attr;
  other_attr.where("z", Op::kEq, Value::of(std::int64_t{1}));
  EXPECT_FALSE(engine.covered_by_any(other_attr));

  EXPECT_TRUE(engine.unsubscribe(1));
  EXPECT_FALSE(engine.covered_by_any(narrow));
}

TEST(ShardedEngine, FindAndForEachAreDeterministic) {
  ShardedPosetEngine engine;
  engine.subscribe(7, range_filter("a", 0, 10));
  engine.subscribe(3, range_filter("b", 0, 10));
  engine.subscribe(5, range_filter("a", 2, 8));
  ASSERT_NE(engine.find(7), nullptr);
  EXPECT_EQ(engine.find(99), nullptr);

  std::vector<SubscriptionId> seen;
  engine.for_each([&](SubscriptionId id, const Filter&) { seen.push_back(id); });
  // Shards iterate in signature order ("a" before "b"), slots in
  // insertion order within a shard.
  EXPECT_EQ(seen, (std::vector<SubscriptionId>{7, 5, 3}));
}

// ------------------------------------------------------------------- Router

struct RouterFixture {
  sgx::Platform platform;
  sgx::AttestationService attestation;
  DeterministicEntropy entropy{55};
  KeyService keys{attestation, entropy};

  sgx::Enclave* enclave = nullptr;

  RouterFixture() {
    platform.provision(attestation);
    sgx::EnclaveImage image;
    image.name = "scbr-router";
    image.code = to_bytes("router-binary");
    DeterministicEntropy signer(808);
    sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
    auto created = platform.create_enclave(image);
    EXPECT_TRUE(created.ok());
    enclave = *created;
    keys.authorize_router(enclave->mrenclave());
  }

  // Tests hold routers by reference; the fixture keeps each one alive at
  // a stable address.
  std::vector<std::unique_ptr<ScbrRouter>> routers;

  ScbrRouter& make_router() {
    routers.push_back(
        std::make_unique<ScbrRouter>(*enclave, std::make_unique<PosetEngine>()));
    EXPECT_TRUE(routers.back()->provision(keys).ok());
    return *routers.back();
  }
};

TEST(Router, EndToEndEncryptedPubSub) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  auto bob = fx.keys.register_client("bob");
  ScbrRouter& router = fx.make_router();

  // Bob subscribes to temperature alerts.
  Filter f = range_filter("temp", 30, 100);
  auto sub = router.subscribe("bob", encrypt_subscription(bob, f, 1));
  ASSERT_TRUE(sub.ok());

  // Alice publishes a matching event.
  Event e;
  e.set("temp", std::int64_t{42});
  e.set("meter", "m-17");
  auto deliveries = router.publish("alice", encrypt_publication(alice, e, 1));
  ASSERT_TRUE(deliveries.ok());
  ASSERT_EQ(deliveries->size(), 1u);
  EXPECT_EQ((*deliveries)[0].subscriber, "bob");

  // Bob decrypts his delivery; Alice's key cannot.
  auto received = decrypt_delivery(bob, (*deliveries)[0].wire);
  ASSERT_TRUE(received.ok());
  EXPECT_TRUE(*received->find("temp") == Value::of(std::int64_t{42}));
  EXPECT_FALSE(decrypt_delivery(alice, (*deliveries)[0].wire).ok());
}

TEST(Router, NonMatchingEventNotDelivered) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  auto bob = fx.keys.register_client("bob");
  ScbrRouter& router = fx.make_router();
  ASSERT_TRUE(router.subscribe("bob", encrypt_subscription(bob, range_filter("temp", 30, 100), 1)).ok());

  Event cold;
  cold.set("temp", std::int64_t{10});
  auto deliveries = router.publish("alice", encrypt_publication(alice, cold, 1));
  ASSERT_TRUE(deliveries.ok());
  EXPECT_TRUE(deliveries->empty());
}

TEST(Router, RejectsUnknownClient) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  ScbrRouter& router = fx.make_router();  // provisioned before mallory joins

  ClientCredentials mallory;
  mallory.name = "mallory";
  mallory.symmetric_key = Bytes(16, 0x66);
  DeterministicEntropy me(666);
  mallory.signing_key = crypto::ed25519_keypair(me.array<32>());

  auto r = router.subscribe("mallory", encrypt_subscription(mallory, range_filter("x", 0, 1), 1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kPermissionDenied);
}

TEST(Router, RejectsTamperedPublication) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  ScbrRouter& router = fx.make_router();
  Event e;
  e.set("temp", std::int64_t{42});
  Bytes wire = encrypt_publication(alice, e, 1);
  wire[wire.size() / 2] ^= 1;
  auto r = router.publish("alice", wire);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kIntegrityViolation);
}

TEST(Router, RejectsForgedSignature) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  ScbrRouter& router = fx.make_router();

  // Attacker knows Alice's symmetric key (e.g. leaked) but not her
  // signing key: publication must still be rejected.
  ClientCredentials forged = alice;
  DeterministicEntropy fe(4242);
  forged.signing_key = crypto::ed25519_keypair(fe.array<32>());
  Event e;
  e.set("cmd", "open-breaker");
  auto r = router.publish("alice", encrypt_publication(forged, e, 9));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kIntegrityViolation);
}

TEST(Router, UnsubscribeEnforcesOwnership) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  auto bob = fx.keys.register_client("bob");
  ScbrRouter& router = fx.make_router();
  auto sub = router.subscribe("bob", encrypt_subscription(bob, range_filter("x", 0, 1), 1));
  ASSERT_TRUE(sub.ok());
  EXPECT_FALSE(router.unsubscribe("alice", *sub).ok());
  EXPECT_TRUE(router.unsubscribe("bob", *sub).ok());
  EXPECT_FALSE(router.unsubscribe("bob", *sub).ok());
}

TEST(Router, UnauthorizedEnclaveCannotBeProvisioned) {
  sgx::Platform platform;
  sgx::AttestationService attestation;
  platform.provision(attestation);
  DeterministicEntropy entropy(77);
  KeyService keys(attestation, entropy);
  // No authorize_router() call: a valid enclave, but not a router build.
  sgx::EnclaveImage image;
  image.name = "impostor";
  image.code = to_bytes("not-a-router");
  DeterministicEntropy signer(9);
  sign_image(image, crypto::ed25519_keypair(signer.array<32>()));
  auto enclave = platform.create_enclave(image);
  ASSERT_TRUE(enclave.ok());

  ScbrRouter router(**enclave, std::make_unique<PosetEngine>());
  auto r = router.provision(keys);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kPermissionDenied);
}

TEST(Router, RejectsReplayedPublication) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  auto bob = fx.keys.register_client("bob");
  ScbrRouter& router = fx.make_router();
  ASSERT_TRUE(router.subscribe("bob", encrypt_subscription(bob, range_filter("temp", 0, 100), 1)).ok());

  Event e;
  e.set("temp", std::int64_t{42});
  const Bytes wire = encrypt_publication(alice, e, 5);
  auto first = router.publish("alice", wire);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 1u);

  // Captured wire replayed verbatim: rejected, no duplicate delivery.
  auto replay = router.publish("alice", wire);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, ErrorCode::kProtocolError);

  // Stale (lower) counters are rejected too.
  auto stale = router.publish("alice", encrypt_publication(alice, e, 3));
  EXPECT_FALSE(stale.ok());
  // Fresh counters keep working.
  EXPECT_TRUE(router.publish("alice", encrypt_publication(alice, e, 6)).ok());
}

TEST(Router, ReplayedSubscriptionRejected) {
  RouterFixture fx;
  auto bob = fx.keys.register_client("bob");
  ScbrRouter& router = fx.make_router();
  const Bytes wire = encrypt_subscription(bob, range_filter("x", 0, 1), 7);
  ASSERT_TRUE(router.subscribe("bob", wire).ok());
  EXPECT_FALSE(router.subscribe("bob", wire).ok());
  EXPECT_EQ(router.engine().size(), 1u);  // no duplicate subscription
}

TEST(Router, CounterSpacesPerClientIndependent) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  auto carol = fx.keys.register_client("carol");
  ScbrRouter& router = fx.make_router();
  Event e;
  e.set("x", std::int64_t{1});
  // Both clients can use counter 1: replay state is per client.
  EXPECT_TRUE(router.publish("alice", encrypt_publication(alice, e, 1)).ok());
  EXPECT_TRUE(router.publish("carol", encrypt_publication(carol, e, 1)).ok());
}

TEST(Router, MetricsTrackOperationsAndAttacks) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  auto bob = fx.keys.register_client("bob");
  ScbrRouter& router = fx.make_router();

  ASSERT_TRUE(router.subscribe("bob", encrypt_subscription(bob, range_filter("x", 0, 100), 1)).ok());
  Event e;
  e.set("x", std::int64_t{5});
  const Bytes wire = encrypt_publication(alice, e, 1);
  ASSERT_TRUE(router.publish("alice", wire).ok());
  (void)router.publish("alice", wire);  // replay
  Bytes tampered = encrypt_publication(alice, e, 2);
  tampered[tampered.size() / 2] ^= 1;
  (void)router.publish("alice", tampered);  // auth failure

  const RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.subscriptions, 1u);
  EXPECT_EQ(m.publications, 1u);
  EXPECT_EQ(m.deliveries, 1u);
  EXPECT_EQ(m.replays_blocked, 1u);
  EXPECT_EQ(m.auth_failures, 1u);
}

TEST(Router, SubscribeBatchMatchesSequentialAtAnyThreadCount) {
  // The same mixed batch — valid subscriptions, a tampered wire, a
  // replayed counter, an unknown client — must produce identical ids,
  // metrics, and engine state whether applied via subscribe() calls,
  // an inline batch, or a pooled batch.
  RouterFixture fx;
  auto bob = fx.keys.register_client("bob");
  auto carol = fx.keys.register_client("carol");

  std::vector<ScbrRouter::SubscribeRequest> batch;
  for (std::uint64_t i = 0; i < 8; ++i) {
    batch.push_back({i % 2 ? "bob" : "carol",
                     encrypt_subscription(i % 2 ? bob : carol,
                                          range_filter("x", 10 * i, 10 * i + 100),
                                          i / 2 + 1)});
  }
  batch[3].wire[batch[3].wire.size() / 2] ^= 1;          // tampered
  batch.push_back({"bob", batch[1].wire});               // replayed counter
  batch.push_back({"mallory", batch[0].wire});           // unknown client

  ScbrRouter& sequential = fx.make_router();
  std::vector<Result<SubscriptionId>> want;
  for (const auto& req : batch) {
    want.push_back(sequential.subscribe(req.client, req.wire));
  }

  common::ThreadPool pool(4);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
    ScbrRouter& batched = fx.make_router();
    auto got = batched.subscribe_batch(batch, p);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].ok(), want[i].ok()) << "slot " << i;
      if (want[i].ok()) {
        EXPECT_EQ(*got[i], *want[i]) << "slot " << i;
      } else {
        EXPECT_EQ(got[i].error().code, want[i].error().code) << "slot " << i;
      }
    }
    EXPECT_EQ(batched.engine().size(), sequential.engine().size());
    EXPECT_EQ(batched.metrics().subscriptions, sequential.metrics().subscriptions);
    EXPECT_EQ(batched.metrics().auth_failures, sequential.metrics().auth_failures);
    EXPECT_EQ(batched.metrics().replays_blocked,
              sequential.metrics().replays_blocked);

    // The installed table routes: a publication matches the same set.
    Event e;
    e.set("x", std::int64_t{15});
    auto deliveries =
        batched.publish("carol", encrypt_publication(carol, e, 50 + (p != nullptr)));
    ASSERT_TRUE(deliveries.ok());
    auto want_deliveries = sequential.publish(
        "carol", encrypt_publication(carol, e, 50 + (p != nullptr)));
    ASSERT_TRUE(want_deliveries.ok());
    ASSERT_EQ(deliveries->size(), want_deliveries->size());
    for (std::size_t d = 0; d < deliveries->size(); ++d) {
      EXPECT_EQ((*deliveries)[d].subscription, (*want_deliveries)[d].subscription);
      EXPECT_EQ((*deliveries)[d].subscriber, (*want_deliveries)[d].subscriber);
    }
  }
}

// Deliveries of one publish_batch, flattened for comparison: for each
// publication, ok-ness and then (subscription, subscriber, wire) per
// delivery.
using DeliveryLog = std::vector<std::tuple<SubscriptionId, std::string, Bytes>>;
DeliveryLog log_of(const std::vector<Result<std::vector<Delivery>>>& results) {
  DeliveryLog log;
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok());
    if (!r.ok()) continue;
    log.emplace_back(0, "publication", Bytes{});
    for (const auto& d : *r) log.emplace_back(d.subscription, d.subscriber, d.wire);
  }
  return log;
}

void expect_same_metrics(const RouterMetrics& got, const RouterMetrics& want) {
  EXPECT_EQ(got.publications, want.publications);
  EXPECT_EQ(got.subscriptions, want.subscriptions);
  EXPECT_EQ(got.deliveries, want.deliveries);
  EXPECT_EQ(got.auth_failures, want.auth_failures);
  EXPECT_EQ(got.replays_blocked, want.replays_blocked);
}

TEST(Router, PerCallSubscribesMatchBatchInstallAtAnyThreadCount) {
  // Router A grows its table one per-call subscribe at a time, with
  // unsubscribes and pooled publishes read in between; router B installs
  // the same subscriptions with one subscribe_batch. Eight groups of
  // three nested ranges on x: group g's member m covers
  // [100g, 100g + 50 - 10m]. After a group completes, its middle member
  // is unsubscribed, so every probe of a completed group sees its final
  // state and both routers must agree byte for byte.
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  auto bob = fx.keys.register_client("bob");
  auto carol = fx.keys.register_client("carol");

  constexpr std::int64_t kGroups = 8;
  std::vector<ScbrRouter::SubscribeRequest> subs;
  for (std::int64_t i = 0; i < 3 * kGroups; ++i) {
    const std::int64_t g = i / 3, m = i % 3;
    const auto& owner = i % 2 ? bob : carol;
    subs.push_back({owner.name,
                    encrypt_subscription(owner, range_filter("x", 100 * g, 100 * g + 50 - 10 * m),
                                         static_cast<std::uint64_t>(i / 2 + 1))});
  }
  subs[11].wire[subs[11].wire.size() / 2] ^= 1;  // group 3 loses its narrowest member

  // Probe batches: after odd group g completes, one event hitting every
  // live member and one hitting only the widest member, per completed group.
  std::uint64_t pub_counter = 0;
  std::map<std::int64_t, std::vector<ScbrRouter::PublishRequest>> probes;
  for (std::int64_t g = 1; g < kGroups; g += 2) {
    for (std::int64_t done = 0; done <= g; ++done) {
      for (const std::int64_t offset : {5, 45}) {
        Event e;
        e.set("x", 100 * done + offset);
        probes[g].push_back({"alice", encrypt_publication(alice, e, ++pub_counter)});
      }
    }
  }
  std::vector<ScbrRouter::PublishRequest> final_probe;
  for (std::int64_t g = 0; g < kGroups; ++g) {
    Event e;
    e.set("x", 100 * g + 25);
    final_probe.push_back({"alice", encrypt_publication(alice, e, ++pub_counter)});
  }

  common::ThreadPool pool(4);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "4 threads");
    ScbrRouter& per_call = fx.make_router();
    std::vector<Result<SubscriptionId>> per_call_ids;
    std::vector<std::pair<std::string, SubscriptionId>> removed;
    std::vector<DeliveryLog> per_call_logs;
    for (std::size_t i = 0; i < subs.size(); ++i) {
      per_call_ids.push_back(per_call.subscribe(subs[i].client, subs[i].wire));
      if (i % 3 != 2) continue;
      const auto& middle = per_call_ids[i - 1];
      ASSERT_TRUE(middle.ok());
      removed.emplace_back(subs[i - 1].client, *middle);
      ASSERT_TRUE(per_call.unsubscribe(subs[i - 1].client, *middle).ok());
      const std::int64_t g = static_cast<std::int64_t>(i / 3);
      if (probes.count(g) != 0) {
        per_call_logs.push_back(log_of(per_call.publish_batch(probes[g], p)));
      }
    }
    per_call_logs.push_back(log_of(per_call.publish_batch(final_probe, p)));

    ScbrRouter& batched = fx.make_router();
    auto batch_ids = batched.subscribe_batch(subs, p);
    for (const auto& [owner, id] : removed) {
      ASSERT_TRUE(batched.unsubscribe(owner, id).ok());
    }
    std::vector<DeliveryLog> batch_logs;
    for (auto& [g, probe] : probes) batch_logs.push_back(log_of(batched.publish_batch(probe, p)));
    batch_logs.push_back(log_of(batched.publish_batch(final_probe, p)));

    ASSERT_EQ(batch_ids.size(), per_call_ids.size());
    for (std::size_t i = 0; i < subs.size(); ++i) {
      ASSERT_EQ(batch_ids[i].ok(), per_call_ids[i].ok()) << "slot " << i;
      if (per_call_ids[i].ok()) {
        EXPECT_EQ(*batch_ids[i], *per_call_ids[i]) << "slot " << i;
      }
    }
    EXPECT_FALSE(per_call_ids[11].ok());
    EXPECT_EQ(batch_logs, per_call_logs);
    expect_same_metrics(batched.metrics(), per_call.metrics());
    EXPECT_GT(per_call.metrics().deliveries, 0u);
    for (const auto& log : per_call_logs) {
      for (const auto& [id, subscriber, wire] : log) {
        for (const auto& gone : removed) EXPECT_NE(id, gone.second);
      }
    }

    // Same sealed state, and a router restored from it routes alike.
    const Bytes sealed = per_call.seal_state();
    auto per_call_state = fx.enclave->unseal(sealed);
    auto batch_state = fx.enclave->unseal(batched.seal_state());
    ASSERT_TRUE(per_call_state.ok());
    ASSERT_TRUE(batch_state.ok());
    EXPECT_EQ(*batch_state, *per_call_state);

    ScbrRouter& restored = fx.make_router();
    ASSERT_TRUE(restored.restore_state(sealed).ok());
    std::vector<ScbrRouter::PublishRequest> after;
    for (std::int64_t g = 0; g < kGroups; ++g) {
      Event e;
      e.set("x", 100 * g + 15);
      after.push_back({"alice", encrypt_publication(alice, e, pub_counter + 1 + g)});
    }
    EXPECT_EQ(log_of(restored.publish_batch(after, p)), log_of(per_call.publish_batch(after, p)));
  }
}

// Seals a hand-built SCBRSTATE1 plaintext under the router enclave's
// MRENCLAVE key, as seal_state would.
struct CraftedEntry {
  std::uint64_t id;
  std::string owner;
};
Bytes seal_crafted_state(const sgx::Enclave& enclave, std::uint64_t next_id,
                         const std::vector<CraftedEntry>& entries,
                         std::uint32_t count_override = 0) {
  Bytes plain;
  put_str(plain, "SCBRSTATE1");
  put_u64(plain, next_id);
  put_u64(plain, 0);  // delivery counter
  put_u32(plain, count_override != 0 ? count_override
                                     : static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    put_u64(plain, e.id);
    put_str(plain, e.owner);
    put_blob(plain, range_filter("x", 0, 100).serialize());
  }
  return enclave.seal(plain, sgx::SealPolicy::kMrEnclave);
}

TEST(Router, RestoreStateRejectsMalformedIdsAndKeepsTable) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  auto bob = fx.keys.register_client("bob");
  ScbrRouter& router = fx.make_router();
  ASSERT_TRUE(router.subscribe("bob", encrypt_subscription(bob, range_filter("x", 0, 10), 1)).ok());
  ASSERT_TRUE(router.subscribe("bob", encrypt_subscription(bob, range_filter("x", 5, 9), 2)).ok());
  auto before = fx.enclave->unseal(router.seal_state());
  ASSERT_TRUE(before.ok());

  // A well-formed crafted blob restores: the helper itself is sound.
  ScbrRouter& control = fx.make_router();
  ASSERT_TRUE(control.restore_state(seal_crafted_state(*fx.enclave, 9, {{2, "bob"}, {8, "bob"}}))
                  .ok());
  EXPECT_EQ(control.engine().size(), 2u);

  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::pair<const char*, Bytes>> cases = {
      {"id zero", seal_crafted_state(*fx.enclave, 9, {{0, "bob"}})},
      {"id equal to next_id", seal_crafted_state(*fx.enclave, 9, {{9, "bob"}})},
      {"id 2^40", seal_crafted_state(*fx.enclave, 9, {{std::uint64_t{1} << 40, "bob"}})},
      {"id UINT64_MAX", seal_crafted_state(*fx.enclave, 9, {{kMax, "bob"}})},
      {"id 2^40 under next_id 2^40", seal_crafted_state(*fx.enclave, std::uint64_t{1} << 40,
                                                        {{std::uint64_t{1} << 40, "bob"}})},
      {"descending ids", seal_crafted_state(*fx.enclave, 9, {{4, "bob"}, {3, "bob"}})},
      {"repeated id", seal_crafted_state(*fx.enclave, 9, {{4, "bob"}, {4, "bob"}})},
      {"next_id zero", seal_crafted_state(*fx.enclave, 0, {})},
      {"next_id UINT64_MAX", seal_crafted_state(*fx.enclave, kMax, {})},
      {"count beyond the blob", seal_crafted_state(*fx.enclave, 9, {{1, "bob"}}, 0xFFFFFFFFu)},
  };
  for (const auto& [name, blob] : cases) {
    SCOPED_TRACE(name);
    Status restored = router.restore_state(blob);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.error().code, ErrorCode::kProtocolError);
    EXPECT_EQ(router.engine().size(), 2u);
    auto after = fx.enclave->unseal(router.seal_state());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *before);
  }

  // The kept table still routes and issues fresh ids.
  Event e;
  e.set("x", std::int64_t{7});
  auto deliveries = router.publish("alice", encrypt_publication(alice, e, 1));
  ASSERT_TRUE(deliveries.ok());
  EXPECT_EQ(deliveries->size(), 2u);
  auto next = router.subscribe("bob", encrypt_subscription(bob, range_filter("x", 0, 1), 3));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);
}

TEST(Router, WireCarriesNoPlaintext) {
  RouterFixture fx;
  auto alice = fx.keys.register_client("alice");
  Event e;
  e.set("customer", "ACME-CORP-SECRET");
  const Bytes wire = encrypt_publication(alice, e, 1);
  const std::string s(wire.begin(), wire.end());
  EXPECT_EQ(s.find("ACME-CORP-SECRET"), std::string::npos);
}

// ----------------------------------------------------------------- Workload

TEST(Workload, HierarchyFractionProducesContainment) {
  ScbrWorkload workload({.attribute_universe = 8,
                         .attributes_per_filter = 3,
                         .value_range = 1000,
                         .width_fraction = 0.3,
                         .hierarchy_fraction = 1.0,  // everything narrows
                         .parent_pool = 100},
                        23);
  std::vector<Filter> filters;
  for (int i = 0; i < 50; ++i) filters.push_back(workload.next_filter());
  // Each filter after the first must be covered by at least one other.
  std::size_t covered = 0;
  for (std::size_t i = 1; i < filters.size(); ++i) {
    for (std::size_t j = 0; j < filters.size(); ++j) {
      if (i != j && filters[j].covers(filters[i])) {
        ++covered;
        break;
      }
    }
  }
  EXPECT_EQ(covered, filters.size() - 1);
}

TEST(Workload, EventsCoverAttributeUniverse) {
  ScbrWorkload workload({.attribute_universe = 5,
                         .attributes_per_filter = 2,
                         .value_range = 10,
                         .width_fraction = 0.5,
                         .hierarchy_fraction = 0.0,
                         .parent_pool = 10},
                        29);
  const Event e = workload.next_event();
  EXPECT_EQ(e.attributes.size(), 5u);
  for (const auto& [name, value] : e.attributes) {
    EXPECT_GE(value.as_int(), 0);
    EXPECT_LE(value.as_int(), 10);
  }
}

TEST(Workload, DeterministicForSameSeed) {
  WorkloadConfig config;
  ScbrWorkload a(config, 99), b(config, 99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.next_filter().serialize(), b.next_filter().serialize());
    EXPECT_EQ(a.next_event().serialize(), b.next_event().serialize());
  }
}

}  // namespace
}  // namespace securecloud::scbr
