#include "wire/serde.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"
#include "rel/generator.h"

namespace p2prange {
namespace wire {
namespace {

TEST(VarintTest, RoundTripsRepresentativeValues) {
  Encoder enc;
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             300,
                             16383,
                             16384,
                             (1ULL << 32) - 1,
                             1ULL << 32,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.buffer());
  for (uint64_t v : values) {
    auto got = dec.Varint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(dec.AtEnd());
}

TEST(VarintTest, SmallValuesAreOneByte) {
  Encoder enc;
  enc.PutVarint(5);
  EXPECT_EQ(enc.size(), 1u);
  enc.PutVarint(127);
  EXPECT_EQ(enc.size(), 2u);
  enc.PutVarint(128);
  EXPECT_EQ(enc.size(), 4u);  // 128 takes two bytes
}

TEST(ZigZagTest, RoundTripsSignedValues) {
  const int64_t values[] = {0, -1, 1, -2, 2, 1000, -1000,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  for (int64_t v : values) {
    EXPECT_EQ(Decoder::UnZigZag(Encoder::ZigZag(v)), v) << v;
  }
}

TEST(DecoderTest, TruncatedBuffersFailCleanly) {
  Encoder enc;
  enc.PutString("hello world");
  const std::string& full = enc.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Decoder dec(std::string_view(full).substr(0, cut));
    EXPECT_FALSE(dec.String().ok()) << "cut at " << cut;
  }
}

TEST(DecoderTest, StringViewPointsIntoTheBufferAndFailsLikeString) {
  Encoder enc;
  enc.PutString("first");
  enc.PutString("");
  enc.PutString("third");
  const std::string& full = enc.buffer();
  Decoder dec(full);
  auto first = dec.StringView();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "first");
  EXPECT_GE(first->data(), full.data());
  EXPECT_LE(first->data() + first->size(), full.data() + full.size());
  auto empty = dec.StringView();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto third = dec.String();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, "third");
  EXPECT_TRUE(dec.AtEnd());

  for (size_t cut = 0; cut < full.size(); ++cut) {
    Decoder truncated(std::string_view(full).substr(0, cut));
    Status failed;
    for (int i = 0; i < 3 && failed.ok(); ++i) {
      failed = truncated.StringView().status();
    }
    EXPECT_FALSE(failed.ok()) << "cut at " << cut;
  }
}

TEST(DecoderTest, OverlongVarintRejected) {
  // 11 continuation bytes exceed 64 bits of payload.
  std::string bad(11, static_cast<char>(0x80));
  bad.push_back(0x01);
  Decoder dec(bad);
  EXPECT_FALSE(dec.Varint().ok());
}

TEST(ValueSerdeTest, RoundTripsEveryType) {
  const Value values[] = {
      Value(int64_t{0}), Value(int64_t{-123456789}), Value(int64_t{1} << 60),
      Value(0.0), Value(-3.25), Value(1e300),
      Value(""), Value("Glaucoma"), Value(std::string(1000, 'x')),
      Value(MakeDate(1970, 1, 1)), Value(MakeDate(2002, 12, 31)),
      Value(Date{-400000}),
  };
  for (const Value& v : values) {
    Encoder enc;
    EncodeValue(v, &enc);
    Decoder dec(enc.buffer());
    auto got = DecodeValue(&dec);
    ASSERT_TRUE(got.ok()) << v.ToString();
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(ValueSerdeTest, UnknownTagRejected) {
  std::string bad = "\x09";
  Decoder dec(bad);
  EXPECT_TRUE(DecodeValue(&dec).status().IsInvalidArgument());
}

TEST(SchemaSerdeTest, RoundTripsWithAndWithoutDomains) {
  const Schema schema({Field{"id", ValueType::kInt64, AttributeDomain{-5, 1000}},
                       Field{"name", ValueType::kString, std::nullopt},
                       Field{"when", ValueType::kDate,
                             AttributeDomain{MakeDate(1990, 1, 1).days,
                                             MakeDate(2009, 12, 31).days}}});
  Encoder enc;
  EncodeSchema(schema, &enc);
  Decoder dec(enc.buffer());
  auto got = DecodeSchema(&dec);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, schema);
}

TEST(SchemaSerdeTest, CorruptDomainRejected) {
  Encoder enc;
  EncodeSchema(Schema({Field{"a", ValueType::kInt64, AttributeDomain{5, 3}}}),
               &enc);
  // lo > hi on the wire (we intentionally encoded garbage).
  Decoder dec(enc.buffer());
  EXPECT_FALSE(DecodeSchema(&dec).ok());
}

TEST(RelationSerdeTest, RoundTripsMedicalData) {
  Catalog cat = MakeMedicalCatalog();
  MedicalDataSpec spec;
  spec.num_patients = 60;
  spec.num_prescriptions = 80;
  spec.num_diagnoses = 90;
  spec.num_physicians = 5;
  ASSERT_TRUE(PopulateMedicalData(spec, &cat).ok());
  for (const char* rel : {"Patient", "Diagnosis", "Physician", "Prescription"}) {
    const Relation* original = *cat.GetBaseData(rel);
    Encoder enc;
    EncodeRelation(*original, &enc);
    Decoder dec(enc.buffer());
    auto got = DecodeRelation(&dec);
    ASSERT_TRUE(got.ok()) << rel << ": " << got.status();
    EXPECT_EQ(got->name(), original->name());
    EXPECT_EQ(got->schema(), original->schema());
    ASSERT_EQ(got->num_rows(), original->num_rows());
    for (size_t i = 0; i < got->num_rows(); ++i) {
      EXPECT_EQ(got->rows()[i], original->rows()[i]) << rel << " row " << i;
    }
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(RelationSerdeTest, EmptyRelationRoundTrips) {
  const Relation empty("Empty", Schema({Field{"a", ValueType::kInt64,
                                              std::nullopt}}));
  Encoder enc;
  EncodeRelation(empty, &enc);
  Decoder dec(enc.buffer());
  auto got = DecodeRelation(&dec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_rows(), 0u);
}

TEST(RelationSerdeTest, TruncationAtEveryPrefixFails) {
  Catalog cat = MakeNumbersCatalog(20, 0, 100, 3);
  const Relation* rel = *cat.GetBaseData("Numbers");
  Encoder enc;
  EncodeRelation(*rel, &enc);
  const std::string& full = enc.buffer();
  Rng rng(9);
  for (int trial = 0; trial < 64; ++trial) {
    const size_t cut = rng.NextBounded(full.size());
    Decoder dec(std::string_view(full).substr(0, cut));
    EXPECT_FALSE(DecodeRelation(&dec).ok()) << "cut at " << cut;
  }
}

TEST(PartitionKeySerdeTest, RoundTrips) {
  const PartitionKey key{"Patient", "age", Range(30, 50)};
  Encoder enc;
  EncodePartitionKey(key, &enc);
  Decoder dec(enc.buffer());
  auto got = DecodePartitionKey(&dec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, key);
}

TEST(RelationWireSizeTest, GrowsWithRows) {
  Catalog small = MakeNumbersCatalog(10, 0, 100, 3);
  Catalog large = MakeNumbersCatalog(1000, 0, 100, 3);
  EXPECT_LT(RelationWireSize(**small.GetBaseData("Numbers")),
            RelationWireSize(**large.GetBaseData("Numbers")));
}

}  // namespace
}  // namespace wire
}  // namespace p2prange
