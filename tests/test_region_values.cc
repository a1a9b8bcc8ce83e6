#include "standoff/region_index.h"
#include "tests/harness.h"
#include "tests/oracle.h"

using namespace standoff;

static void TestPlainNumbers() {
  int64_t v = -1;
  CHECK(so::ParseRegionValue("0", &v));
  CHECK_EQ(v, int64_t{0});
  CHECK(so::ParseRegionValue("12345", &v));
  CHECK_EQ(v, int64_t{12345});
  CHECK(so::ParseRegionValue(" 42 ", &v));
  CHECK_EQ(v, int64_t{42});
  CHECK(so::ParseRegionValue("3.7", &v));
  CHECK_EQ(v, int64_t{4});  // rounded
}

static void TestTimecodes() {
  int64_t v = -1;
  CHECK(so::ParseRegionValue("0:00", &v));
  CHECK_EQ(v, int64_t{0});
  CHECK(so::ParseRegionValue("0:08", &v));
  CHECK_EQ(v, int64_t{8});
  CHECK(so::ParseRegionValue("1:04", &v));
  CHECK_EQ(v, int64_t{64});
  CHECK(so::ParseRegionValue("1:34", &v));
  CHECK_EQ(v, int64_t{94});
  CHECK(so::ParseRegionValue("1:02:03", &v));
  CHECK_EQ(v, int64_t{3723});
  // Fractional parts keep their scale (1.5 minutes = 90 seconds).
  CHECK(so::ParseRegionValue("1.5:00", &v));
  CHECK_EQ(v, int64_t{90});
  CHECK(so::ParseRegionValue("0:07.6", &v));
  CHECK_EQ(v, int64_t{8});
}

static void TestRejects() {
  int64_t v = -1;
  CHECK(!so::ParseRegionValue("", &v));
  CHECK(!so::ParseRegionValue("abc", &v));
  CHECK(!so::ParseRegionValue("1:xx", &v));
  CHECK(!so::ParseRegionValue("12 34", &v));
}

static void TestNegativeBoundaries() {
  int64_t v = 0;
  CHECK(so::ParseRegionValue("-5", &v));
  CHECK_EQ(v, int64_t{-5});
  CHECK(so::ParseRegionValue("-0", &v));
  CHECK_EQ(v, int64_t{0});
  CHECK(so::ParseRegionValue("-3.6", &v));
  CHECK_EQ(v, int64_t{-4});  // rounds away from zero, like llround
  // A negative leading timecode part is allowed (a signed offset)...
  CHECK(so::ParseRegionValue("-1:30", &v));
  CHECK_EQ(v, int64_t{-30});  // -1 * 60 + 30
  // ...but negative sub-unit parts are malformed.
  CHECK(!so::ParseRegionValue("1:-30", &v));
}

static void TestInt64Bounds() {
  int64_t v = 0;
  // Exact bounds parse exactly — the double path alone would lose
  // precision past 2^53.
  CHECK(so::ParseRegionValue("9223372036854775807", &v));
  CHECK_EQ(v, INT64_MAX);
  CHECK(so::ParseRegionValue("-9223372036854775808", &v));
  CHECK_EQ(v, INT64_MIN);
  CHECK(so::ParseRegionValue("9223372036854775806", &v));
  CHECK_EQ(v, int64_t{9223372036854775806LL});
  // One past either bound overflows: rejected, not wrapped or clamped.
  CHECK(!so::ParseRegionValue("9223372036854775808", &v));
  CHECK(!so::ParseRegionValue("-9223372036854775809", &v));
  CHECK(!so::ParseRegionValue("92233720368547758070000", &v));
  // Fractional and timecode forms overflow through the double path.
  CHECK(!so::ParseRegionValue("1.0e300", &v));
  CHECK(!so::ParseRegionValue("9223372036854775807:00", &v));
}

static void TestFractionalTruncation() {
  int64_t v = 0;
  CHECK(so::ParseRegionValue("2.4", &v));
  CHECK_EQ(v, int64_t{2});
  CHECK(so::ParseRegionValue("2.5", &v));
  CHECK_EQ(v, int64_t{3});  // half away from zero
  CHECK(so::ParseRegionValue("-2.5", &v));
  CHECK_EQ(v, int64_t{-3});
  CHECK(so::ParseRegionValue("0.49999", &v));
  CHECK_EQ(v, int64_t{0});
  // Sub-unit fractions inside timecodes keep their scale before the
  // single final rounding.
  CHECK(so::ParseRegionValue("0:59.4", &v));
  CHECK_EQ(v, int64_t{59});
  CHECK(so::ParseRegionValue("0:59.6", &v));
  CHECK_EQ(v, int64_t{60});
}

static void TestMalformedTimecodes() {
  int64_t v = 0;
  // Sub-unit parts must be < 60: "1:99:00" is not 99 minutes.
  CHECK(!so::ParseRegionValue("1:99:00", &v));
  CHECK(!so::ParseRegionValue("0:60", &v));
  CHECK(so::ParseRegionValue("0:59.9", &v));  // < 60: fine
  // Empty parts are malformed wherever they sit.
  CHECK(!so::ParseRegionValue("::", &v));
  CHECK(!so::ParseRegionValue(":", &v));
  CHECK(!so::ParseRegionValue("1:", &v));
  CHECK(!so::ParseRegionValue(":30", &v));
  CHECK(!so::ParseRegionValue("1::30", &v));
  // The leading (most significant) part has no upper bound.
  CHECK(so::ParseRegionValue("99:00", &v));
  CHECK_EQ(v, int64_t{5940});
  CHECK(so::ParseRegionValue("100:00:00", &v));
  CHECK_EQ(v, int64_t{360000});
}

static void TestResolve() {
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("d.xml", "<a from=\"1\" to=\"2\"/>"));
  so::StandoffConfig config;
  config.start_attr = "from";
  config.end_attr = "to";
  so::ResolvedConfig resolved = so::Resolve(config, store.names());
  CHECK(resolved.start_attr != storage::kInvalidName);
  CHECK(resolved.end_attr != storage::kInvalidName);
  auto index = so::RegionIndex::Build(store.table(0), resolved);
  CHECK_OK(index);
  CHECK_EQ(index->size(), 1u);
  CHECK(test::Rows(*index)[0] == (so::RegionEntry{1, 2, 1}));

  so::ResolvedConfig unresolved =
      so::Resolve(so::StandoffConfig{}, store.names());
  CHECK(unresolved.start_attr == storage::kInvalidName);
}

int main() {
  RUN_TEST(TestPlainNumbers);
  RUN_TEST(TestTimecodes);
  RUN_TEST(TestRejects);
  RUN_TEST(TestNegativeBoundaries);
  RUN_TEST(TestInt64Bounds);
  RUN_TEST(TestFractionalTruncation);
  RUN_TEST(TestMalformedTimecodes);
  RUN_TEST(TestResolve);
  TEST_MAIN();
}
