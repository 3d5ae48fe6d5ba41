#pragma once
// Globus-Search-like metadata index: an inverted index over JSON documents
// with free-text queries, field filters, date ranges, TF-IDF ranking, and
// visibility ACLs (results are filtered to what the caller may discover).
// This is the publication target of every flow (Sec. 2.2.3) and the backing
// store of the DGPF portal.
//
// Storage layout (million-doc control plane):
//   - Documents live in append-only slots (std::deque, so Document* from
//     get()/snapshot() stay stable); a slot is tombstoned on remove/update
//     instead of erased, and `doc_ids_` maps live external ids to slots.
//   - Terms are interned to dense u32 ids. Each term's postings are
//     (slot, tf) pairs sorted by slot: a delta+varint packed segment with a
//     skip entry every 128 postings, plus a small sorted append tail that is
//     merged (a pure append, since new slots are monotonically increasing)
//     once it reaches 64 entries.
//   - Queries intersect rarest-term-first with galloping cursors over the
//     packed segments; scores still accumulate in query-term order, so
//     ranking stays bit-identical to the previous map-of-maps index.
//   - Field filters are checked per candidate document, but a filter value
//     that only a String leaf can render first narrows the candidates to
//     the postings of its tokens (seeding them when there is no text), and
//     only the top `limit` hits are sorted (DESIGN.md §16).
//   - remove() is O(terms of the doc): postings keep tombstoned entries
//     (filtered against the slot alive bit on read, purged once they
//     outnumber live ones) and the ingest-order list marks the position dead
//     via the slot's stored order position instead of an O(n) scan.
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "auth/auth.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace pico::search {

using DocId = std::string;

struct Document {
  DocId id;
  util::Json content;
  /// Identities allowed to see this record; empty = public.
  std::set<auth::Identity> visible_to;
  int64_t ingested_unix = 0;
};

struct Query {
  /// Free text; all terms must match (AND semantics).
  std::string text;
  /// Exact-match filters on dotted JSON paths (value compared as string).
  std::vector<std::pair<std::string, std::string>> field_filters;
  /// Inclusive range filter on a dotted path holding ISO-8601 timestamps.
  std::string date_field;  ///< e.g. "dates.created"; empty = no date filter
  std::optional<int64_t> date_from_unix;
  std::optional<int64_t> date_to_unix;
  size_t limit = 50;
};

struct Hit {
  DocId id;
  double score = 0;
};

class Index {
 public:
  explicit Index(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Insert or replace a document (re-ingest updates the index in place:
  /// the document keeps its original ingest-order position).
  void ingest(Document doc);

  util::Status remove(const DocId& id);

  /// Ranked search, visibility-filtered for `caller` (empty = anonymous: only
  /// public records).
  std::vector<Hit> search(const Query& query,
                          const auth::Identity& caller = "") const;

  util::Result<const Document*> get(const DocId& id,
                                    const auth::Identity& caller = "") const;

  size_t size() const { return live_; }

  /// Distinct values of a dotted string field among visible docs (facets).
  std::map<std::string, size_t> facet(const std::string& dotted_path,
                                      const auth::Identity& caller = "") const;

  /// All visible document ids (portal listing order: ingest order).
  std::vector<DocId> all_ids(const auth::Identity& caller = "") const;

  /// Administrative snapshot: every document in ingest order, bypassing
  /// visibility filtering. For persistence/backup tooling only.
  std::vector<const Document*> snapshot() const;

  /// Content fingerprint: CRC-64 over (id, content) pairs in id order.
  /// Ingest timestamps, arrival order, and ACLs are excluded, so two indexes
  /// that published identical records — regardless of retries, replays, or
  /// chaos-induced timing — fingerprint identically. The byte-identical-
  /// publication acceptance checks compare this value.
  uint64_t fingerprint() const;

 private:
  /// One document slot. Slots are append-only and never reused; a tombstoned
  /// slot keeps its position bookkeeping but drops the document payload.
  struct Slot {
    Document doc;
    bool alive = false;
    uint32_t order_pos = 0;  ///< index into ingest_order_
  };

  /// Postings for one term: packed delta+varint (slot_delta, tf) pairs with
  /// skip entries, plus the sorted append tail awaiting merge.
  struct TermPostings {
    uint32_t df_live = 0;       ///< entries whose slot is still alive
    uint32_t entries = 0;       ///< total entries (packed + tail)
    uint32_t packed_count = 0;  ///< entries in `packed`
    uint32_t packed_last = 0;   ///< slot of the last packed entry
    std::vector<uint8_t> packed;
    /// skips[i] = {slot base, byte offset} of packed entry i*kSkipEvery:
    /// decoding from offset with prev=base yields that block's entries.
    std::vector<std::pair<uint32_t, uint32_t>> skips;
    std::vector<std::pair<uint32_t, uint32_t>> tail;  ///< (slot, tf), sorted
  };

  /// Forward-only reader over one term's postings; seek targets must be
  /// ascending. Skip entries let seek() jump whole blocks (galloping).
  struct Cursor {
    const TermPostings* tp = nullptr;
    size_t off = 0;        ///< byte offset of the next packed entry
    uint32_t prev = 0;     ///< cumulative slot base at `off`
    uint32_t idx = 0;      ///< packed entries consumed
    size_t block = 0;      ///< current skip block
    size_t tail_i = 0;
    bool has_peek = false;
    uint32_t peek_slot = 0;
    uint32_t peek_tf = 0;

    explicit Cursor(const TermPostings& t) : tp(&t) {}
    /// True (with *tf set) iff the term contains `slot`.
    bool seek(uint32_t slot, uint32_t* tf);
    /// Decode the next entry in order; false at end.
    bool next(uint32_t* slot, uint32_t* tf);
  };

  static constexpr uint32_t kSkipEvery = 128;
  static constexpr size_t kTailMerge = 64;

  bool visible(const Document& doc, const auth::Identity& caller) const;
  bool alive(uint32_t slot) const { return slots_[slot].alive; }
  void index_document(uint32_t slot);
  /// Drop the doc from its terms' live counts (entries stay until purge).
  void tombstone_terms(const Document& doc);
  void append_posting(TermPostings& tp, uint32_t slot, uint32_t tf);
  void merge_tail(TermPostings& tp);
  /// Rewrite a term's postings without its dead entries.
  void purge_term(TermPostings& tp);
  void maybe_compact_order();

  std::string name_;
  std::deque<Slot> slots_;
  std::unordered_map<DocId, uint32_t> doc_ids_;  ///< live docs only
  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<TermPostings> terms_;
  std::vector<uint32_t> ingest_order_;  ///< slot per position; dead skipped
  uint32_t order_dead_ = 0;             ///< tombstoned positions
  size_t live_ = 0;
};

/// Lowercased alphanumeric tokens of a string.
std::vector<std::string> tokenize(const std::string& text);

/// All text tokens of a JSON document (keys excluded, values included).
std::vector<std::string> tokenize_json(const util::Json& doc);

}  // namespace pico::search
