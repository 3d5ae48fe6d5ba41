// Search index tests: tokenization, TF-IDF ranking, AND semantics, field and
// date filters, ACL visibility, facets, re-ingest; DataCite schema checks.
#include <gtest/gtest.h>

#include "search/index.hpp"
#include "search/schema.hpp"
#include "util/timefmt.hpp"

namespace pico::search {
namespace {

using util::Json;

Document make_doc(const std::string& id, const std::string& title,
                  const std::string& created,
                  const std::string& type = "hyperspectral") {
  Document d;
  d.id = id;
  d.content = Json::object({
      {"title", title},
      {"dates", Json::object({{"created", created}})},
      {"resource_type", type},
      {"subjects", Json::array({"Au", "Pb"})},
  });
  return d;
}

TEST(Tokenize, SplitsOnNonAlnumAndLowercases) {
  auto toks = tokenize("Gold-Nanoparticle Tracking, #42!");
  EXPECT_EQ(toks, (std::vector<std::string>{"gold", "nanoparticle", "tracking",
                                            "42"}));
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("---").empty());
}

TEST(TokenizeJson, WalksValuesNotKeys) {
  Json j = Json::object({
      {"keyname", "valuetext"},
      {"nested", Json::array({Json::object({{"inner", 42}})})},
  });
  auto toks = tokenize_json(j);
  EXPECT_NE(std::find(toks.begin(), toks.end(), "valuetext"), toks.end());
  EXPECT_NE(std::find(toks.begin(), toks.end(), "42"), toks.end());
  EXPECT_EQ(std::find(toks.begin(), toks.end(), "keyname"), toks.end());
}

TEST(Index, FreeTextSearchFindsDocuments) {
  Index index("test");
  index.ingest(make_doc("d1", "gold nanoparticle tracking", "2023-04-07T10:00:00Z"));
  index.ingest(make_doc("d2", "polyamide film spectrum", "2023-04-07T11:00:00Z"));

  Query q;
  q.text = "nanoparticle";
  auto hits = index.search(q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, "d1");

  q.text = "zeolite";
  EXPECT_TRUE(index.search(q).empty());
}

TEST(Index, AndSemanticsAcrossTerms) {
  Index index("test");
  index.ingest(make_doc("d1", "gold film", "2023-04-07T10:00:00Z"));
  index.ingest(make_doc("d2", "gold nanoparticle", "2023-04-07T10:00:00Z"));
  Query q;
  q.text = "gold nanoparticle";
  auto hits = index.search(q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, "d2");
}

TEST(Index, EmptyQueryReturnsEverythingVisible) {
  Index index("test");
  index.ingest(make_doc("d1", "a", "2023-04-07T10:00:00Z"));
  index.ingest(make_doc("d2", "b", "2023-04-07T10:00:00Z"));
  EXPECT_EQ(index.search(Query{}).size(), 2u);
}

TEST(Index, RareTermsRankHigher) {
  Index index("test");
  // "gold" appears everywhere; "uranium" only in d3.
  index.ingest(make_doc("d1", "gold gold gold", "2023-04-07T10:00:00Z"));
  index.ingest(make_doc("d2", "gold sample", "2023-04-07T10:00:00Z"));
  index.ingest(make_doc("d3", "gold uranium", "2023-04-07T10:00:00Z"));
  Query q;
  q.text = "gold uranium";
  auto hits = index.search(q);
  ASSERT_EQ(hits.size(), 1u);  // AND semantics
  EXPECT_EQ(hits[0].id, "d3");
  // Single common term: d1 has tf=3 so it outranks d2.
  Query q2;
  q2.text = "gold";
  auto hits2 = index.search(q2);
  ASSERT_EQ(hits2.size(), 3u);
  EXPECT_EQ(hits2[0].id, "d1");
}

TEST(Index, FieldFiltersExactAndArrayMembership) {
  Index index("test");
  index.ingest(make_doc("d1", "a", "2023-04-07T10:00:00Z", "hyperspectral"));
  index.ingest(make_doc("d2", "b", "2023-04-07T10:00:00Z", "spatiotemporal"));
  Query q;
  q.field_filters = {{"resource_type", "spatiotemporal"}};
  auto hits = index.search(q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, "d2");

  // Array field: subjects contains "Au".
  Query q2;
  q2.field_filters = {{"subjects", "Au"}};
  EXPECT_EQ(index.search(q2).size(), 2u);
  Query q3;
  q3.field_filters = {{"subjects", "Fe"}};
  EXPECT_TRUE(index.search(q3).empty());
}

TEST(Index, DateRangeFilter) {
  Index index("test");
  index.ingest(make_doc("old", "x", "2023-04-06T10:00:00Z"));
  index.ingest(make_doc("mid", "x", "2023-04-07T10:00:00Z"));
  index.ingest(make_doc("new", "x", "2023-04-08T10:00:00Z"));
  int64_t from = 0, to = 0;
  ASSERT_TRUE(util::parse_iso8601("2023-04-07T00:00:00Z", &from));
  ASSERT_TRUE(util::parse_iso8601("2023-04-07T23:59:59Z", &to));
  Query q;
  q.date_field = "dates.created";
  q.date_from_unix = from;
  q.date_to_unix = to;
  auto hits = index.search(q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, "mid");
}

TEST(Index, VisibilityFiltering) {
  Index index("test");
  Document restricted = make_doc("priv", "secret sample", "2023-04-07T10:00:00Z");
  restricted.visible_to = {"alice@anl.gov"};
  index.ingest(std::move(restricted));
  index.ingest(make_doc("pub", "public sample", "2023-04-07T10:00:00Z"));

  Query q;
  q.text = "sample";
  EXPECT_EQ(index.search(q).size(), 1u);                    // anonymous
  EXPECT_EQ(index.search(q, "alice@anl.gov").size(), 2u);   // owner
  EXPECT_EQ(index.search(q, "bob@anl.gov").size(), 1u);     // other user

  EXPECT_FALSE(index.get("priv"));
  EXPECT_TRUE(index.get("priv", "alice@anl.gov"));
  EXPECT_FALSE(index.get("priv", "bob@anl.gov"));
  EXPECT_EQ(index.all_ids().size(), 1u);
  EXPECT_EQ(index.all_ids("alice@anl.gov").size(), 2u);
}

TEST(Index, ReingestReplacesDocument) {
  Index index("test");
  index.ingest(make_doc("d1", "original title", "2023-04-07T10:00:00Z"));
  index.ingest(make_doc("d1", "replacement words", "2023-04-07T10:00:00Z"));
  EXPECT_EQ(index.size(), 1u);
  Query q;
  q.text = "original";
  EXPECT_TRUE(index.search(q).empty());
  q.text = "replacement";
  EXPECT_EQ(index.search(q).size(), 1u);
}

TEST(Index, RemoveUnindexes) {
  Index index("test");
  index.ingest(make_doc("d1", "findme", "2023-04-07T10:00:00Z"));
  ASSERT_TRUE(index.remove("d1"));
  EXPECT_FALSE(index.remove("d1"));
  Query q;
  q.text = "findme";
  EXPECT_TRUE(index.search(q).empty());
  EXPECT_EQ(index.size(), 0u);
}

TEST(Index, FacetsCountValues) {
  Index index("test");
  index.ingest(make_doc("d1", "a", "2023-04-07T10:00:00Z", "hyperspectral"));
  index.ingest(make_doc("d2", "b", "2023-04-07T11:00:00Z", "hyperspectral"));
  index.ingest(make_doc("d3", "c", "2023-04-08T10:00:00Z", "spatiotemporal"));
  auto facets = index.facet("resource_type");
  EXPECT_EQ(facets["hyperspectral"], 2u);
  EXPECT_EQ(facets["spatiotemporal"], 1u);
  EXPECT_TRUE(index.facet("missing.path").empty());
}

TEST(Index, LimitTruncatesResults) {
  Index index("test");
  for (int i = 0; i < 20; ++i) {
    index.ingest(make_doc("d" + std::to_string(i), "sample data",
                          "2023-04-07T10:00:00Z"));
  }
  Query q;
  q.text = "sample";
  q.limit = 5;
  EXPECT_EQ(index.search(q).size(), 5u);
}

// ---- DataCite schema ----

TEST(Schema, BuildRecordIsValid) {
  RecordInputs in;
  in.title = "Hyperspectral acquisition #1";
  in.creators = {"Dynamic PicoProbe"};
  in.created_iso8601 = "2023-04-07T10:00:00Z";
  in.resource_type = "hyperspectral";
  in.subjects = {"Au", "Pb"};
  in.artifact_paths = {"plot.svg"};
  Json record = build_record(in);
  EXPECT_TRUE(validate_record(record));
  EXPECT_EQ(record.at("creators")[0].at("name").as_string(), "Dynamic PicoProbe");
  EXPECT_EQ(record.at("artifacts")[0].as_string(), "plot.svg");
}

TEST(Schema, ValidationCatchesMissingFields) {
  RecordInputs in;
  in.title = "ok";
  in.creators = {"x"};
  in.created_iso8601 = "2023-04-07T10:00:00Z";
  in.resource_type = "hyperspectral";
  Json good = build_record(in);
  ASSERT_TRUE(validate_record(good));

  Json no_title = good;
  no_title["title"] = "";
  EXPECT_FALSE(validate_record(no_title));

  Json no_creators = good;
  no_creators["creators"] = Json::array();
  EXPECT_FALSE(validate_record(no_creators));

  Json bad_date = good;
  bad_date["dates"]["created"] = "sometime";
  EXPECT_FALSE(validate_record(bad_date));

  Json no_type = good;
  no_type["resource_type"] = "";
  EXPECT_FALSE(validate_record(no_type));

  Json no_subjects = good;
  no_subjects["subjects"] = Json();
  EXPECT_FALSE(validate_record(no_subjects));

  EXPECT_FALSE(validate_record(Json("not an object")));
}

}  // namespace
}  // namespace pico::search

// ------------------------------------------------------------ persistence ----
#include "search/persist.hpp"

namespace pico::search {
namespace {

TEST(Persist, SnapshotRoundTripPreservesEverything) {
  Index index("experiments");
  index.ingest(make_doc("pub1", "public gold scan", "2023-04-07T10:00:00Z"));
  Document restricted =
      make_doc("priv1", "restricted lead scan", "2023-04-08T10:00:00Z");
  restricted.visible_to = {"alice@anl.gov", "bob@anl.gov"};
  restricted.ingested_unix = 1680000000;
  index.ingest(std::move(restricted));

  auto restored = index_from_json(index_to_json(index));
  ASSERT_TRUE(restored);
  Index& r = restored.value();
  EXPECT_EQ(r.name(), "experiments");
  EXPECT_EQ(r.size(), 2u);

  // Content and search behaviour identical.
  Query q;
  q.text = "lead";
  EXPECT_TRUE(r.search(q).empty());                      // ACL holds
  EXPECT_EQ(r.search(q, "alice@anl.gov").size(), 1u);
  auto doc = r.get("priv1", "bob@anl.gov");
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc.value()->ingested_unix, 1680000000);
  // Ingest order preserved (portal listing order).
  auto ids = r.all_ids("alice@anl.gov");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "pub1");
}

TEST(Persist, FileRoundTrip) {
  std::string path = testing::TempDir() + "/search_snapshot_test.json";
  Index index("disk");
  index.ingest(make_doc("d1", "saved record", "2023-04-07T10:00:00Z"));
  ASSERT_TRUE(save_index(index, path));
  auto restored = load_index(path);
  ASSERT_TRUE(restored);
  EXPECT_EQ(restored.value().size(), 1u);
  Query q;
  q.text = "saved";
  EXPECT_EQ(restored.value().search(q).size(), 1u);
  EXPECT_FALSE(load_index(path + ".missing"));
}

TEST(Persist, RejectsForeignDocuments) {
  EXPECT_FALSE(index_from_json("not json"));
  EXPECT_FALSE(index_from_json(R"({"format": "something-else"})"));
  EXPECT_FALSE(index_from_json(
      R"({"format": "picoflow-search-snapshot-1", "index": ""})"));
  EXPECT_FALSE(index_from_json(
      R"({"format": "picoflow-search-snapshot-1", "index": "x",
          "documents": [{"content": {}}]})"));  // missing id
}

TEST(Persist, SnapshotIsAdministrative) {
  Index index("admin");
  Document d = make_doc("secret", "hidden", "2023-04-07T10:00:00Z");
  d.visible_to = {"alice@anl.gov"};
  index.ingest(std::move(d));
  // The snapshot includes restricted documents (unlike all_ids).
  EXPECT_EQ(index.snapshot().size(), 1u);
  EXPECT_TRUE(index.all_ids().empty());
}

}  // namespace
}  // namespace pico::search

// Differential: Index::search (postings-narrowed filters, top-k selection)
// against a reference that applies the per-document semantics to every live
// document and fully sorts. Filtered paths hold every leaf type, including
// strings that render like other types ("true", "-3") and a double (-3.0)
// that renders like an int; documents are tombstoned, re-ingested and ACL'd.
#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <unordered_map>

#include "util/rng.hpp"

namespace pico::search {
namespace {

std::string reference_render(const Json& j) {
  switch (j.type()) {
    case Json::Type::String: return j.as_string();
    case Json::Type::Int: return std::to_string(j.as_int());
    case Json::Type::Bool: return j.as_bool() ? "true" : "false";
    default: return j.dump();
  }
}

bool reference_filter(const Json& content, const std::string& path,
                      const std::string& want) {
  const Json& v = content.at_path(path);
  if (!v.is_array()) return reference_render(v) == want;
  for (const auto& el : v.as_array()) {
    if (reference_render(el) == want) return true;
  }
  return false;
}

/// Every live document with its term counts, and each term's live document
/// frequency.
struct ReferenceCorpus {
  std::vector<const Document*> docs;
  std::vector<std::unordered_map<std::string, uint32_t>> tf;
  std::unordered_map<std::string, uint32_t> df;

  explicit ReferenceCorpus(const Index& index)
      : docs(index.snapshot()), tf(docs.size()) {
    for (size_t i = 0; i < docs.size(); ++i) {
      for (auto& term : tokenize_json(docs[i]->content)) ++tf[i][term];
      for (const auto& [term, n] : tf[i]) ++df[term];
    }
  }
};

std::vector<Hit> reference_search(const ReferenceCorpus& corpus,
                                  const Query& q,
                                  const auth::Identity& caller) {
  const auto& [docs, tf, df] = corpus;
  const auto terms = tokenize(q.text);
  const double n_docs = static_cast<double>(std::max<size_t>(docs.size(), 1));
  std::vector<Hit> hits;
  for (size_t i = 0; i < docs.size(); ++i) {
    const Document& doc = *docs[i];
    if (!doc.visible_to.empty() &&
        (caller.empty() || !doc.visible_to.count(caller))) {
      continue;
    }
    double score = terms.empty() ? 1.0 : 0.0;
    bool all_terms = true;
    for (const auto& term : terms) {
      auto it = tf[i].find(term);
      if (it == tf[i].end()) {
        all_terms = false;
        break;
      }
      const double idf =
          std::log(1.0 + n_docs / static_cast<double>(df.at(term)));
      score += (1.0 + std::log(static_cast<double>(it->second))) * idf;
    }
    if (!all_terms) continue;
    bool keep = true;
    for (const auto& [path, want] : q.field_filters) {
      keep = keep && reference_filter(doc.content, path, want);
    }
    if (!keep) continue;
    if (!q.date_field.empty()) {
      const Json& v = doc.content.at_path(q.date_field);
      int64_t when = 0;
      if (!v.is_string() || !util::parse_iso8601(v.as_string(), &when)) continue;
      if (q.date_from_unix && when < *q.date_from_unix) continue;
    }
    hits.push_back(Hit{doc.id, score});
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  if (hits.size() > q.limit) hits.resize(q.limit);
  return hits;
}

/// Kind of random_leaf() for which the caller leaves the key out.
constexpr int kMissing = 13;

/// A value of a random kind a filtered path can hold.
Json random_leaf(util::Rng& rng, int* kind) {
  *kind = static_cast<int>(rng.uniform_int(0, kMissing));
  switch (*kind) {
    case 0: return "Dynamic PicoProbe";
    case 1: return rng.chance(0.5) ? "alpha" : "picoprobe";
    case 2: return static_cast<int>(rng.uniform_int(0, 3));
    case 3: return -3;
    case 4: return rng.chance(0.5);
    case 5: return rng.chance(0.5) ? 1.5 : -3.0;
    case 6: return nullptr;
    case 7: return Json::object({{"x", "true"}});
    case 8:
      return Json::array({"Dynamic PicoProbe", 1.5, Json::object({{"y", 1}}),
                          true, nullptr, -3, "--", ""});
    case 9: {
      static const char* const kLookalikes[] = {"true", "null", "-3", "1.5",
                                                "",     "--",   "{x}"};
      return kLookalikes[rng.uniform_int(0, 6)];
    }
    case 10: return Json::array({"alpha beta", 2});
    case 11: return "Dynamic  PicoProbe!";  // same tokens, other string
    case 12: return Json::array({Json::array({"Dynamic PicoProbe"})});
    default: return Json();  // kMissing
  }
}

Document random_doc(util::Rng& rng, const std::string& id) {
  Json content = Json::object({
      {"title", rng.chance(0.5) ? "alpha beta sample" : "dynamic sample"},
      {"dates", Json::object({{"created", rng.chance(0.5)
                                              ? "2023-04-07T10:00:00Z"
                                              : "2022-01-01T00:00:00Z"}})},
  });
  int kind = 0;
  Json f = random_leaf(rng, &kind);
  if (kind != kMissing) content["f"] = std::move(f);
  Json kind_leaf = random_leaf(rng, &kind);
  if (kind != kMissing) content["meta"] = Json::object({{"kind", kind_leaf}});
  // A key containing '.': at_path splits on dots, so "a.b" reaches only the
  // nested form.
  Json ab = random_leaf(rng, &kind);
  if (kind != kMissing) {
    if (rng.chance(0.5)) {
      content["a.b"] = std::move(ab);
    } else {
      content["a"] = Json::object({{"b", std::move(ab)}});
    }
  }
  Document doc;
  doc.id = id;
  doc.content = std::move(content);
  if (rng.chance(0.2)) doc.visible_to = {rng.chance(0.5) ? "alice" : "bob"};
  return doc;
}

class SearchNarrowing : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchNarrowing, HitsEqualPerDocumentReference) {
  util::Rng rng(GetParam());
  Index index("diff");
  constexpr int kDocs = 300;
  for (int i = 0; i < kDocs; ++i) {
    index.ingest(random_doc(rng, "d" + std::to_string(i)));
  }
  // Tombstone a third and re-ingest a fifth with fresh content (some of
  // them after their removal), so postings carry dead entries and purges.
  for (int i = 0; i < kDocs; ++i) {
    const std::string id = "d" + std::to_string(i);
    if (rng.chance(0.33)) {
      ASSERT_TRUE(index.remove(id));
      if (rng.chance(0.3)) index.ingest(random_doc(rng, id));
    } else if (rng.chance(0.2)) {
      index.ingest(random_doc(rng, id));
    }
  }

  const ReferenceCorpus corpus(index);
  const std::string nested = Json::object({{"x", "true"}}).dump();
  const std::vector<std::string> values = {
      "true", "false", "null", "-3", "1.5", "0", nested, "",
      "--",   "{x}",   "Dynamic PicoProbe", "Dynamic  PicoProbe!",
      "alpha", "picoprobe", "alpha beta", "absent"};
  const std::vector<std::string> paths = {"f", "meta.kind", "a.b", "missing"};
  const std::vector<std::string> texts = {"", "sample", "alpha beta",
                                          "picoprobe dynamic", "zzz"};
  const std::vector<size_t> limits = {0, 1, 1000};
  const std::vector<auth::Identity> callers = {"", "alice"};

  std::map<std::string, size_t> matched;  // filter value -> hits seen
  auto check = [&](const Query& q) {
    for (const auto& caller : callers) {
      const auto got = index.search(q, caller);
      const auto want = reference_search(corpus, q, caller);
      ASSERT_EQ(got.size(), want.size())
          << "text='" << q.text << "' limit=" << q.limit;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, want[i].id) << i;
        ASSERT_EQ(std::bit_cast<uint64_t>(got[i].score),
                  std::bit_cast<uint64_t>(want[i].score))
            << got[i].id;
      }
      if (!q.field_filters.empty()) {
        matched[q.field_filters.back().second] += got.size();
      }
    }
  };

  for (const auto& text : texts) {
    for (size_t limit : limits) {
      Query q;
      q.text = text;
      q.limit = limit;
      check(q);
      for (const auto& path : paths) {
        for (const auto& value : values) {
          q.field_filters = {{path, value}};
          check(q);
        }
      }
      // Two filters at once, one narrowable and one not, plus a date range.
      q.field_filters = {{"meta.kind", "-3"}, {"f", "Dynamic PicoProbe"}};
      check(q);
      q.date_field = "dates.created";
      util::parse_iso8601("2023-01-01T00:00:00Z", &q.date_from_unix.emplace());
      q.field_filters = {{"f", "alpha"}};
      check(q);
    }
  }
  for (const char* v : {"true", "null", "-3", "1.5", "", "--",
                        "Dynamic PicoProbe", "Dynamic  PicoProbe!", "alpha"}) {
    EXPECT_GT(matched[v], 0u) << "filter value never matched: '" << v << "'";
  }
  EXPECT_GT(matched[nested], 0u);
  EXPECT_EQ(matched["absent"], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchNarrowing, ::testing::Values(5, 77, 2023));

}  // namespace
}  // namespace pico::search
