#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "standoff/region_index.h"
#include "tests/harness.h"
#include "tests/oracle.h"

using namespace standoff;
using so::RegionEntry;
using storage::Pre;

namespace {

const char* const kVideoXml = R"(<sample>
  <video>
    <shot id="Intro" start="0:00" end="0:08"/>
    <shot id="Interview" start="0:08" end="1:04"/>
    <shot id="Outro" start="1:04" end="1:34"/>
  </video>
  <audio>
    <music artist="U2" start="0:00" end="0:31"/>
    <music artist="Bach" start="0:52" end="1:34"/>
  </audio>
</sample>)";

}  // namespace

static void TestFromEntriesSorts() {
  std::vector<RegionEntry> entries{
      {50, 60, 4}, {10, 20, 2}, {10, 15, 3}, {10, 15, 7}};
  so::RegionIndex index = so::RegionIndex::FromEntries(entries);
  CHECK_EQ(index.size(), 4u);
  CHECK(test::Rows(index)[0] == (RegionEntry{10, 15, 3}));
  CHECK(test::Rows(index)[1] == (RegionEntry{10, 15, 7}));
  CHECK(test::Rows(index)[2] == (RegionEntry{10, 20, 2}));
  CHECK(test::Rows(index)[3] == (RegionEntry{50, 60, 4}));
  // annotated_ids sorted by id, not by start.
  const storage::Span<Pre> ids = index.annotated_ids();
  CHECK_EQ(ids.size(), 4u);
  CHECK_EQ(ids[0], 2u);
  CHECK_EQ(ids[3], 7u);
}

static void TestBuildFromTable() {
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("video.xml", kVideoXml));
  auto index = so::RegionIndex::Build(
      store.table(0), so::Resolve(so::StandoffConfig{}, store.names()));
  CHECK_OK(index);
  // Five annotated elements (3 shots + 2 music); sample/video/audio have
  // no start/end attributes.
  CHECK_EQ(index->size(), 5u);
  // Timecodes parse to seconds and sort by start:
  // Intro[0,8](pre3), U2[0,31](pre7), Interview[8,64](pre4),
  // Bach[52,94](pre8), Outro[64,94](pre5).
  CHECK(test::Rows(*index)[0] == (RegionEntry{0, 8, 3}));
  CHECK(test::Rows(*index)[1] == (RegionEntry{0, 31, 7}));
  CHECK(test::Rows(*index)[2] == (RegionEntry{8, 64, 4}));
  CHECK(test::Rows(*index)[3] == (RegionEntry{52, 94, 8}));
  CHECK(test::Rows(*index)[4] == (RegionEntry{64, 94, 5}));

  std::vector<std::pair<int64_t, int64_t>> regions;
  const auto collect = [&regions](int64_t start, int64_t end) {
    regions.emplace_back(start, end);
  };
  index->ForEachRegionOf(7, collect);
  CHECK_EQ(regions.size(), size_t{1});
  CHECK(regions[0] == std::make_pair(int64_t{0}, int64_t{31}));
  regions.clear();
  index->ForEachRegionOf(1, collect);  // <video> carries no region
  CHECK(regions.empty());
}

static void TestForEachRegionOfMultiRegion() {
  // Id 5 carries two regions, inserted out of start order; ids 3 and 9
  // one each, so lookups sit before and after the surplus row.
  const so::RegionIndex index = so::RegionIndex::FromEntries(
      {RegionEntry{15, 30, 5}, RegionEntry{20, 25, 9}, RegionEntry{0, 10, 5},
       RegionEntry{40, 50, 3}});
  std::vector<std::pair<int64_t, int64_t>> regions;
  const auto collect = [&regions](int64_t start, int64_t end) {
    regions.emplace_back(start, end);
  };
  index.ForEachRegionOf(3, collect);
  CHECK_EQ(regions.size(), size_t{1});
  CHECK(regions[0] == std::make_pair(int64_t{40}, int64_t{50}));
  regions.clear();
  index.ForEachRegionOf(5, collect);
  CHECK_EQ(regions.size(), size_t{2});
  CHECK(regions[0] == std::make_pair(int64_t{0}, int64_t{10}));
  CHECK(regions[1] == std::make_pair(int64_t{15}, int64_t{30}));
  regions.clear();
  index.ForEachRegionOf(9, collect);
  CHECK_EQ(regions.size(), size_t{1});
  CHECK(regions[0] == std::make_pair(int64_t{20}, int64_t{25}));
  regions.clear();
  index.ForEachRegionOf(7, collect);
  CHECK(regions.empty());
}

static void TestIntersectColumns() {
  std::vector<RegionEntry> entries;
  for (Pre id = 2; id < 12; ++id) {
    entries.push_back(RegionEntry{static_cast<int64_t>(id) * 10,
                                  static_cast<int64_t>(id) * 10 + 5, id});
  }
  so::RegionIndex index = so::RegionIndex::FromEntries(entries);
  std::vector<Pre> wanted{3, 7, 11, 99};
  const std::vector<RegionEntry> got =
      test::Rows(index.IntersectColumns(wanted).View());
  CHECK_EQ(got.size(), 3u);
  CHECK_EQ(got[0].id, 3u);
  CHECK_EQ(got[1].id, 7u);
  CHECK_EQ(got[2].id, 11u);
  CHECK_EQ(index.IntersectColumns({}).size(), 0u);
}

static void TestColumnsMirrorEntries() {
  std::vector<RegionEntry> entries{
      {50, 60, 4}, {10, 20, 2}, {10, 15, 3}, {10, 15, 7}};
  so::RegionIndex index = so::RegionIndex::FromEntries(entries);
  const so::RegionColumns cols = index.columns();
  CHECK_EQ(cols.size, test::Rows(index).size());
  CHECK(cols.start_sorted);
  for (size_t i = 0; i < cols.size; ++i) {
    CHECK(cols.row(i) == test::Rows(index)[i]);
  }
  // Slices keep the columnar promise and the row content.
  const so::RegionColumns slice = cols.Slice(1, 3);
  CHECK_EQ(slice.size, 2u);
  CHECK(slice.start_sorted);
  CHECK(slice.row(0) == test::Rows(index)[1]);
  // An empty index yields a valid empty view.
  so::RegionIndex empty;
  CHECK_EQ(empty.columns().size, 0u);
  CHECK(empty.columns().start_sorted);
}

static void TestIntersectMatchesDefinition() {
  // The one output-bounded intersection against the definitional
  // filter, from a single id up to every id: selections mix ids absent
  // from the index, repeated ids and multi-region ids.
  Rng rng(77);
  std::vector<RegionEntry> entries;
  const size_t n = 500;
  for (size_t i = 0; i < n; ++i) {
    const int64_t start = rng.UniformRange(0, 5000);
    // ~20% duplicate ids: multi-region annotations. Ids run 2..501 with
    // gaps, so odd-looking probes below miss.
    const Pre id = static_cast<Pre>(2 + (i % 5 == 0 ? i / 2 : i));
    entries.push_back(RegionEntry{start, start + rng.UniformRange(0, 80), id});
  }
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));

  std::vector<std::vector<Pre>> selections;
  selections.push_back({2});                       // one multi-region id
  selections.push_back({0});                       // one absent id
  selections.push_back({5, 9, 9, 9, 100, 350, 9999});  // sparse + repeats
  std::vector<Pre> every_other, all, all_repeated;
  for (Pre id = 0; id < 600; id += 2) every_other.push_back(id);
  for (Pre id = 0; id < 600; ++id) {
    all.push_back(id);
    all_repeated.push_back(id);
    all_repeated.push_back(id);
  }
  selections.push_back(every_other);
  selections.push_back(all);
  selections.push_back(all_repeated);
  for (size_t k = 0; k < 20; ++k) {  // random sorted selections
    std::vector<Pre> ids;
    const int64_t count = rng.UniformRange(1, 120);
    for (int64_t c = 0; c < count; ++c) {
      ids.push_back(static_cast<Pre>(rng.UniformRange(0, 560)));
    }
    std::sort(ids.begin(), ids.end());
    selections.push_back(std::move(ids));
  }

  for (const std::vector<Pre>& ids : selections) {
    const so::RegionColumnsData cols = index.IntersectColumns(ids);
    std::vector<RegionEntry> expect;
    for (const RegionEntry& e : test::Rows(index)) {
      if (std::binary_search(ids.begin(), ids.end(), e.id)) {
        expect.push_back(e);
      }
    }
    CHECK_EQ(cols.size(), expect.size());
    const so::RegionColumns view = cols.View();
    CHECK(view.start_sorted);
    for (size_t i = 0; i < view.size && i < expect.size(); ++i) {
      CHECK(view.row(i) == expect[i]);
    }
  }
  CHECK_EQ(index.IntersectColumns({}).size(), 0u);
  CHECK_EQ(so::RegionIndex().IntersectColumns(all).size(), 0u);
}

static void TestMissingConfigAttrs() {
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("v.xml", "<a><b start=\"1\" end=\"2\"/></a>"));
  so::StandoffConfig config;
  config.start_attr = "absent";
  auto index =
      so::RegionIndex::Build(store.table(0), so::Resolve(config, store.names()));
  CHECK_OK(index);
  CHECK_EQ(index->size(), 0u);
}

static void TestBadRegionValues() {
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("v.xml", "<a><b start=\"x\" end=\"2\"/></a>"));
  auto index = so::RegionIndex::Build(
      store.table(0), so::Resolve(so::StandoffConfig{}, store.names()));
  CHECK(!index.ok());

  storage::DocumentStore store2;
  CHECK_OK(store2.AddDocumentText("v.xml", "<a><b start=\"9\" end=\"2\"/></a>"));
  auto index2 = so::RegionIndex::Build(
      store2.table(0), so::Resolve(so::StandoffConfig{}, store2.names()));
  CHECK(!index2.ok());
}

static void TestCache() {
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("video.xml", kVideoXml));
  so::RegionIndexCache cache;
  auto first = cache.Get(store, 0, so::StandoffConfig{});
  CHECK_OK(first);
  auto second = cache.Get(store, 0, so::StandoffConfig{});
  CHECK_OK(second);
  CHECK(*first == *second);  // same instance reused
  so::StandoffConfig timecode;
  timecode.type = "timecode";
  auto third = cache.Get(store, 0, timecode);
  CHECK_OK(third);
  CHECK(*first != *third);  // distinct config -> distinct entry
  CHECK(!cache.Get(store, 5, so::StandoffConfig{}).ok());
}

int main() {
  RUN_TEST(TestFromEntriesSorts);
  RUN_TEST(TestBuildFromTable);
  RUN_TEST(TestForEachRegionOfMultiRegion);
  RUN_TEST(TestIntersectColumns);
  RUN_TEST(TestColumnsMirrorEntries);
  RUN_TEST(TestIntersectMatchesDefinition);
  RUN_TEST(TestMissingConfigAttrs);
  RUN_TEST(TestBadRegionValues);
  RUN_TEST(TestCache);
  TEST_MAIN();
}
