// Golden-model fuzzing: long random operation sequences applied in
// lockstep to a secure component and a trivially correct in-memory
// reference; any divergence is a bug. Parameterized over seeds so each
// instantiation explores a different trajectory.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bigdata/codec.hpp"
#include "bigdata/table.hpp"
#include "bigdata/kvstore.hpp"
#include "common/rng.hpp"
#include "scone/fs_protection.hpp"

namespace securecloud {
namespace {

using crypto::DeterministicEntropy;

// ------------------------------------------------- ShieldedFileSystem fuzz

class ShieldedFsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShieldedFsFuzz, MatchesReferenceModel) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  scone::UntrustedFileSystem host;
  DeterministicEntropy entropy(seed + 1000);
  scone::ShieldedFileSystem fs(host, scone::FsProtection{}, entropy);

  // Reference: plain byte vectors.
  std::map<std::string, Bytes> model;
  const std::vector<std::string> paths = {"/a", "/b", "/dir/c"};
  const std::uint32_t chunk_sizes[] = {16, 64, 256};

  for (int op = 0; op < 600; ++op) {
    const std::string& path = paths[rng.uniform(paths.size())];
    const bool exists = model.count(path) > 0;
    switch (rng.uniform(6)) {
      case 0: {  // create
        const auto created = fs.create(path, chunk_sizes[rng.uniform(3)]);
        EXPECT_EQ(created.ok(), !exists) << "op " << op;
        if (created.ok()) model[path] = {};
        break;
      }
      case 1: {  // remove
        const auto removed = fs.remove(path);
        EXPECT_EQ(removed.ok(), exists) << "op " << op;
        model.erase(path);
        break;
      }
      case 2: {  // write at random offset
        if (!exists) break;
        const std::uint64_t offset = rng.uniform(1200);
        Bytes data(rng.uniform(300) + 1);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
        ASSERT_TRUE(fs.write(path, offset, data).ok()) << "op " << op;
        Bytes& ref = model[path];
        if (ref.size() < offset + data.size()) ref.resize(offset + data.size(), 0);
        std::copy(data.begin(), data.end(), ref.begin() + static_cast<std::ptrdiff_t>(offset));
        break;
      }
      case 3: {  // write_all (truncate)
        if (!exists) break;
        Bytes data(rng.uniform(800));
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
        ASSERT_TRUE(fs.write_all(path, data).ok()) << "op " << op;
        model[path] = data;
        break;
      }
      case 4: {  // random read
        if (!exists) break;
        const Bytes& ref = model[path];
        const std::uint64_t offset = rng.uniform(ref.size() + 10);
        const std::size_t len = rng.uniform(400);
        auto got = fs.read(path, offset, len);
        if (offset > ref.size()) {
          EXPECT_FALSE(got.ok()) << "op " << op;
        } else {
          ASSERT_TRUE(got.ok()) << "op " << op;
          const std::size_t expect_len = std::min<std::size_t>(len, ref.size() - offset);
          ASSERT_EQ(got->size(), expect_len) << "op " << op;
          EXPECT_TRUE(std::equal(got->begin(), got->end(),
                                 ref.begin() + static_cast<std::ptrdiff_t>(offset)))
              << "op " << op;
        }
        break;
      }
      case 5: {  // full read + size check
        if (!exists) break;
        auto got = fs.read_all(path);
        ASSERT_TRUE(got.ok()) << "op " << op;
        EXPECT_EQ(*got, model[path]) << "op " << op;
        auto size = fs.size_of(path);
        ASSERT_TRUE(size.ok());
        EXPECT_EQ(*size, model[path].size());
        break;
      }
    }
  }

  // Final sweep: every live file matches; every dead file is gone.
  for (const auto& path : paths) {
    if (model.count(path)) {
      auto got = fs.read_all(path);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, model[path]);
    } else {
      EXPECT_FALSE(fs.exists(path));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShieldedFsFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------- SecureKvStore fuzz

class KvStoreFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KvStoreFuzz, MatchesReferenceModel) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  scone::UntrustedFileSystem storage;
  DeterministicEntropy entropy(seed + 2000);
  bigdata::SecureKvStore store(storage, Bytes(16, 0x5e), "fuzz", entropy);
  std::map<std::string, Bytes> model;

  auto random_key = [&] { return "key-" + std::to_string(rng.uniform(40)); };

  for (int op = 0; op < 800; ++op) {
    const std::string key = random_key();
    switch (rng.uniform(4)) {
      case 0: {  // put
        Bytes value(rng.uniform(200));
        for (auto& b : value) b = static_cast<std::uint8_t>(rng.next());
        ASSERT_TRUE(store.put(key, value).ok());
        model[key] = value;
        break;
      }
      case 1: {  // get
        auto got = store.get(key);
        if (model.count(key)) {
          ASSERT_TRUE(got.ok()) << "op " << op;
          EXPECT_EQ(*got, model[key]) << "op " << op;
        } else {
          EXPECT_FALSE(got.ok()) << "op " << op;
        }
        break;
      }
      case 2: {  // remove
        EXPECT_EQ(store.remove(key).ok(), model.count(key) > 0) << "op " << op;
        model.erase(key);
        break;
      }
      case 3: {  // prefix scan equivalence
        const std::string prefix = "key-" + std::to_string(rng.uniform(4));
        const auto got = store.scan_prefix(prefix);
        std::vector<std::string> expected;
        for (const auto& [k, v] : model) {
          if (k.rfind(prefix, 0) == 0) expected.push_back(k);
        }
        EXPECT_EQ(got, expected) << "op " << op;
        break;
      }
    }
    EXPECT_EQ(store.size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvStoreFuzz, ::testing::Values(7, 17, 27, 37));

// ------------------------------------------------------ SecureTable fuzz

class TableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TableFuzz, MatchesReferenceModel) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  scone::UntrustedFileSystem storage;
  DeterministicEntropy entropy(seed + 3000);
  bigdata::TableSchema schema;
  schema.name = "fuzz";
  schema.primary_key = "id";
  schema.columns = {{"id", scbr::Value::Type::kInt, true},
                    {"score", scbr::Value::Type::kInt, true},
                    {"tag", scbr::Value::Type::kString, false}};
  auto table = bigdata::SecureTable::create(storage, Bytes(16, 0x71), schema, entropy);
  ASSERT_TRUE(table.ok());

  struct Ref {
    std::int64_t score;
    std::string tag;
  };
  std::map<std::int64_t, Ref> model;

  for (int op = 0; op < 500; ++op) {
    const std::int64_t id = rng.uniform_in(0, 30);
    switch (rng.uniform(3)) {
      case 0: {  // upsert
        const std::int64_t score = rng.uniform_in(-100, 100);
        const std::string tag = "t" + std::to_string(rng.uniform(5));
        ASSERT_TRUE(table
                        ->upsert({{"id", scbr::Value::of(id)},
                                  {"score", scbr::Value::of(score)},
                                  {"tag", scbr::Value::of(tag)}})
                        .ok());
        model[id] = {score, tag};
        break;
      }
      case 1: {  // erase
        EXPECT_EQ(table->erase(scbr::Value::of(id)).ok(), model.count(id) > 0);
        model.erase(id);
        break;
      }
      case 2: {  // score range scan vs reference
        std::int64_t lo = rng.uniform_in(-100, 100);
        std::int64_t hi = rng.uniform_in(-100, 100);
        if (lo > hi) std::swap(lo, hi);
        auto rows = table->scan("score", scbr::Value::of(lo), scbr::Value::of(hi));
        ASSERT_TRUE(rows.ok()) << "op " << op;
        std::multiset<std::int64_t> got, expected;
        for (const auto& row : *rows) got.insert(row.at("id").as_int());
        for (const auto& [rid, ref] : model) {
          if (ref.score >= lo && ref.score <= hi) expected.insert(rid);
        }
        EXPECT_EQ(got, expected) << "op " << op;
        break;
      }
    }
    EXPECT_EQ(table->size(), model.size());
  }

  // Final verification of every row.
  for (const auto& [id, ref] : model) {
    auto row = table->get(scbr::Value::of(id));
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->at("score").as_int(), ref.score);
    EXPECT_EQ(row->at("tag").as_string(), ref.tag);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableFuzz, ::testing::Values(41, 42, 43, 44));

// ------------------------------------------------------ series codec fuzz

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, SeriesRoundTripsArbitraryWalks) {
  Rng rng(GetParam() + 99);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::int64_t> series;
    std::int64_t v = rng.uniform_in(-1'000'000, 1'000'000);
    const std::size_t n = rng.uniform(2'000);
    for (std::size_t i = 0; i < n; ++i) {
      v += rng.uniform_in(-100'000, 100'000);
      series.push_back(v);
    }
    auto back = bigdata::decode_series(bigdata::encode_series(series));
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(*back, series) << "trial " << trial;
  }
}

TEST_P(CodecFuzz, DecompressorSurvivesGarbage) {
  // Malformed input must error out, never crash or hang.
  Rng rng(GetParam() + 7);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes garbage(rng.uniform(100));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    (void)bigdata::decode_series(garbage);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace securecloud
