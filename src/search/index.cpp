#include "search/index.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "util/crc64.hpp"
#include "util/timefmt.hpp"

namespace pico::search {

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

namespace {
void tokenize_json_rec(const util::Json& j, std::vector<std::string>* out) {
  switch (j.type()) {
    case util::Json::Type::String: {
      auto toks = tokenize(j.as_string());
      out->insert(out->end(), toks.begin(), toks.end());
      break;
    }
    case util::Json::Type::Int:
      out->push_back(std::to_string(j.as_int()));
      break;
    case util::Json::Type::Array:
      for (const auto& v : j.as_array()) tokenize_json_rec(v, out);
      break;
    case util::Json::Type::Object:
      for (const auto& [k, v] : j.as_object()) tokenize_json_rec(v, out);
      break;
    default:
      break;  // bool/double/null don't contribute search terms
  }
}

/// Render a JSON leaf as the comparison string used by field filters.
std::string leaf_to_string(const util::Json& j) {
  switch (j.type()) {
    case util::Json::Type::String: return j.as_string();
    case util::Json::Type::Int: return std::to_string(j.as_int());
    case util::Json::Type::Bool: return j.as_bool() ? "true" : "false";
    case util::Json::Type::Double: return j.dump();
    default: return j.dump();
  }
}

/// True when `want` can equal only the rendering of a String leaf, so every
/// document matching a filter on it holds tokenize(want) as terms
/// (tokenize_json tokenizes every String leaf). leaf_to_string renders the
/// other leaves as "true"/"false" (Bool), "null" (Null, and NaN/Inf Double),
/// text strtod parses whole (Int, finite Double), or a dump starting with '{'
/// or '[' (Object, Array). Anything looking like one of those is refused.
bool renders_only_strings(const std::string& want) {
  if (want == "true" || want == "false" || want == "null") return false;
  if (!want.empty() && (want[0] == '{' || want[0] == '[')) return false;
  char* end = nullptr;
  std::strtod(want.c_str(), &end);
  return end != want.c_str() + want.size();
}

/// Distinct terms of a document with their occurrence counts.
std::unordered_map<std::string, uint32_t> term_counts(const util::Json& content) {
  std::unordered_map<std::string, uint32_t> tf;
  for (auto& term : tokenize_json(content)) ++tf[term];
  return tf;
}

inline void put_varint(std::vector<uint8_t>* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

inline uint32_t get_varint(const std::vector<uint8_t>& buf, size_t* off) {
  uint32_t v = 0;
  int shift = 0;
  for (;;) {
    uint8_t b = buf[(*off)++];
    v |= static_cast<uint32_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}
}  // namespace

std::vector<std::string> tokenize_json(const util::Json& doc) {
  std::vector<std::string> out;
  tokenize_json_rec(doc, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Postings cursor

bool Index::Cursor::next(uint32_t* slot, uint32_t* tf) {
  if (has_peek) {
    *slot = peek_slot;
    *tf = peek_tf;
    has_peek = false;
    return true;
  }
  if (idx < tp->packed_count) {
    prev += get_varint(tp->packed, &off);
    *tf = get_varint(tp->packed, &off);
    ++idx;
    *slot = prev;
    return true;
  }
  if (tail_i < tp->tail.size()) {
    *slot = tp->tail[tail_i].first;
    *tf = tp->tail[tail_i].second;
    ++tail_i;
    return true;
  }
  return false;
}

bool Index::Cursor::seek(uint32_t target, uint32_t* tf) {
  if (has_peek && peek_slot >= target) {
    if (peek_slot == target) {
      *tf = peek_tf;
      has_peek = false;
      return true;
    }
    return false;  // peeked entry is still ahead of this target
  }
  has_peek = false;
  // Gallop: skips[b].first is the last slot BEFORE block b, so while the next
  // block's base is below the target, everything in the current block is too
  // and the whole block can be jumped.
  if (idx < tp->packed_count) {
    while (block + 1 < tp->skips.size() && tp->skips[block + 1].first < target) {
      ++block;
      prev = tp->skips[block].first;
      off = tp->skips[block].second;
      idx = static_cast<uint32_t>(block) * kSkipEvery;
    }
  }
  uint32_t s = 0, t = 0;
  while (next(&s, &t)) {
    if (s < target) continue;
    if (s == target) {
      *tf = t;
      return true;
    }
    has_peek = true;  // overshoot: stash for the next (larger) target
    peek_slot = s;
    peek_tf = t;
    return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Mutation path

void Index::ingest(Document doc) {
  uint32_t pos;
  auto it = doc_ids_.find(doc.id);
  if (it != doc_ids_.end()) {
    // Replace: tombstone the old slot; the fresh slot inherits the original
    // ingest-order position so listing order is unchanged by updates.
    Slot& old = slots_[it->second];
    tombstone_terms(old.doc);
    old.alive = false;
    pos = old.order_pos;
    old.doc = Document{};  // release the payload
    doc_ids_.erase(it);
    --live_;
  } else {
    pos = static_cast<uint32_t>(ingest_order_.size());
    ingest_order_.push_back(0);  // patched below
  }
  uint32_t slot = static_cast<uint32_t>(slots_.size());
  slots_.push_back(Slot{std::move(doc), true, pos});
  ingest_order_[pos] = slot;
  doc_ids_.emplace(slots_[slot].doc.id, slot);
  ++live_;
  index_document(slot);
}

util::Status Index::remove(const DocId& id) {
  auto it = doc_ids_.find(id);
  if (it == doc_ids_.end()) return util::Status::err("no document " + id, "not_found");
  Slot& s = slots_[it->second];
  tombstone_terms(s.doc);
  s.alive = false;
  s.doc = Document{};
  ++order_dead_;
  doc_ids_.erase(it);
  --live_;
  maybe_compact_order();
  return util::Status::ok();
}

void Index::index_document(uint32_t slot) {
  for (auto& [term, count] : term_counts(slots_[slot].doc.content)) {
    auto [it, fresh] =
        term_ids_.try_emplace(term, static_cast<uint32_t>(terms_.size()));
    if (fresh) terms_.emplace_back();
    append_posting(terms_[it->second], slot, count);
  }
}

void Index::tombstone_terms(const Document& doc) {
  for (auto& [term, count] : term_counts(doc.content)) {
    auto it = term_ids_.find(term);
    if (it == term_ids_.end()) continue;
    TermPostings& tp = terms_[it->second];
    if (tp.df_live == 0) continue;
    --tp.df_live;
    if (tp.df_live == 0) {
      tp = TermPostings{};  // term fully dead: drop its storage outright
    } else if (tp.entries >= 64 && (tp.entries - tp.df_live) * 2 > tp.entries) {
      purge_term(tp);
    }
  }
}

void Index::append_posting(TermPostings& tp, uint32_t slot, uint32_t tf) {
  // Slots are allocated monotonically, so appends arrive in sorted order and
  // the tail stays sorted by construction.
  tp.tail.emplace_back(slot, tf);
  ++tp.entries;
  ++tp.df_live;
  if (tp.tail.size() >= kTailMerge) merge_tail(tp);
}

void Index::merge_tail(TermPostings& tp) {
  // Every tail slot exceeds packed_last, so the merge is a pure append.
  for (const auto& [slot, tf] : tp.tail) {
    if (tp.packed_count % kSkipEvery == 0) {
      tp.skips.emplace_back(tp.packed_last,
                            static_cast<uint32_t>(tp.packed.size()));
    }
    put_varint(&tp.packed, slot - tp.packed_last);
    put_varint(&tp.packed, tf);
    tp.packed_last = slot;
    ++tp.packed_count;
  }
  tp.tail.clear();
}

void Index::purge_term(TermPostings& tp) {
  std::vector<std::pair<uint32_t, uint32_t>> kept;
  kept.reserve(tp.df_live);
  Cursor cur(tp);
  uint32_t slot = 0, tf = 0;
  while (cur.next(&slot, &tf)) {
    if (alive(slot)) kept.emplace_back(slot, tf);
  }
  tp.packed.clear();
  tp.skips.clear();
  tp.packed_count = 0;
  tp.packed_last = 0;
  tp.entries = static_cast<uint32_t>(kept.size());
  tp.df_live = tp.entries;
  tp.tail = std::move(kept);
  merge_tail(tp);
}

void Index::maybe_compact_order() {
  if (order_dead_ < 64 || order_dead_ * 2 <= ingest_order_.size()) return;
  std::vector<uint32_t> next;
  next.reserve(ingest_order_.size() - order_dead_);
  for (uint32_t slot : ingest_order_) {
    if (!slots_[slot].alive) continue;
    slots_[slot].order_pos = static_cast<uint32_t>(next.size());
    next.push_back(slot);
  }
  ingest_order_.swap(next);
  order_dead_ = 0;
}

// ---------------------------------------------------------------------------
// Query path

bool Index::visible(const Document& doc, const auth::Identity& caller) const {
  if (doc.visible_to.empty()) return true;  // public record
  return !caller.empty() && doc.visible_to.count(caller) > 0;
}

std::vector<Hit> Index::search(const Query& query,
                               const auth::Identity& caller) const {
  // Filter narrowing (DESIGN.md §16): the tokens of every filter value that
  // only a String leaf can render must all be terms of a matching document,
  // so their postings bound the candidates. A token no live document holds
  // means no document matches. The per-document check below stays the final
  // word on every filter.
  std::vector<uint32_t> narrow;  // term ids, rarest first
  for (const auto& [path, want] : query.field_filters) {
    if (!renders_only_strings(want)) continue;
    for (const auto& tok : tokenize(want)) {
      auto it = term_ids_.find(tok);
      if (it == term_ids_.end() || terms_[it->second].df_live == 0) return {};
      narrow.push_back(it->second);
    }
  }
  std::sort(narrow.begin(), narrow.end(), [&](uint32_t a, uint32_t b) {
    if (terms_[a].df_live != terms_[b].df_live) {
      return terms_[a].df_live < terms_[b].df_live;
    }
    return a < b;
  });
  narrow.erase(std::unique(narrow.begin(), narrow.end()), narrow.end());

  // Candidate scoring: TF-IDF over the free-text terms; documents must match
  // every term (AND). With no text, every live document is a candidate, or
  // with narrowing terms the live postings of the rarest one. The
  // intersection runs rarest-term-first with galloping cursors, but each
  // document's score is still accumulated in query-term order so the doubles
  // come out bit-identical to the naive per-term walk.
  auto terms = tokenize(query.text);
  // Candidate slots: ascending, except the all-live case (ingest order).
  std::vector<uint32_t> cand;
  std::vector<double> cand_scores;
  size_t narrowed = 0;  // narrow[0, narrowed) already applied to cand
  if (terms.empty()) {
    if (narrow.empty()) {
      cand.reserve(live_);
      for (uint32_t slot : ingest_order_) {
        if (slots_[slot].alive) cand.push_back(slot);
      }
    } else {
      Cursor cur(terms_[narrow[0]]);
      uint32_t slot = 0, tf = 0;
      while (cur.next(&slot, &tf)) {
        if (alive(slot)) cand.push_back(slot);
      }
      narrowed = 1;
    }
    cand_scores.assign(cand.size(), 1.0);
  } else {
    const double n_docs = static_cast<double>(std::max<size_t>(live_, 1));
    std::vector<uint32_t> uniq;  // distinct term ids, first-appearance order
    std::vector<size_t> term_uniq(terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
      auto it = term_ids_.find(terms[i]);
      if (it == term_ids_.end() || terms_[it->second].df_live == 0) {
        return {};  // AND semantics: no match at all
      }
      size_t u = 0;
      while (u < uniq.size() && uniq[u] != it->second) ++u;
      if (u == uniq.size()) uniq.push_back(it->second);
      term_uniq[i] = u;
    }
    std::vector<double> idf(uniq.size());
    for (size_t u = 0; u < uniq.size(); ++u) {
      idf[u] = std::log(
          1.0 + n_docs / static_cast<double>(terms_[uniq[u]].df_live));
    }
    std::vector<size_t> order(uniq.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return terms_[uniq[a]].df_live < terms_[uniq[b]].df_live;
    });

    // Seed with the rarest term (tombstoned slots filtered here once: later
    // terms only ever confirm already-live candidates).
    std::vector<std::vector<uint32_t>> tfs(uniq.size());
    {
      Cursor cur(terms_[uniq[order[0]]]);
      uint32_t slot = 0, tf = 0;
      while (cur.next(&slot, &tf)) {
        if (!alive(slot)) continue;
        cand.push_back(slot);
        tfs[order[0]].push_back(tf);
      }
    }
    for (size_t k = 1; k < order.size() && !cand.empty(); ++k) {
      size_t u = order[k];
      Cursor cur(terms_[uniq[u]]);
      std::vector<uint32_t> keep_slots, keep_tf, keep_idx;
      for (size_t i = 0; i < cand.size(); ++i) {
        uint32_t tf = 0;
        if (cur.seek(cand[i], &tf)) {
          keep_idx.push_back(static_cast<uint32_t>(i));
          keep_slots.push_back(cand[i]);
          keep_tf.push_back(tf);
        }
      }
      for (size_t j = 0; j < k; ++j) {
        auto& col = tfs[order[j]];
        std::vector<uint32_t> ncol;
        ncol.reserve(keep_idx.size());
        for (uint32_t ix : keep_idx) ncol.push_back(col[ix]);
        col.swap(ncol);
      }
      tfs[u].swap(keep_tf);
      cand.swap(keep_slots);
    }
    if (cand.empty()) return {};
    cand_scores.assign(cand.size(), 0.0);
    for (size_t qi = 0; qi < terms.size(); ++qi) {
      size_t u = term_uniq[qi];
      const auto& col = tfs[u];
      for (size_t i = 0; i < cand.size(); ++i) {
        cand_scores[i] +=
            (1.0 + std::log(static_cast<double>(col[i]))) * idf[u];
      }
    }
  }

  for (size_t k = narrowed; k < narrow.size() && !cand.empty(); ++k) {
    Cursor cur(terms_[narrow[k]]);
    size_t n = 0;
    for (size_t i = 0; i < cand.size(); ++i) {
      uint32_t tf = 0;
      if (!cur.seek(cand[i], &tf)) continue;
      cand[n] = cand[i];
      cand_scores[n] = cand_scores[i];
      ++n;
    }
    cand.resize(n);
    cand_scores.resize(n);
  }

  struct Match {
    uint32_t slot;
    double score;
  };
  std::vector<Match> matches;
  for (size_t i = 0; i < cand.size(); ++i) {
    const Document& doc = slots_[cand[i]].doc;
    if (!visible(doc, caller)) continue;

    bool keep = true;
    for (const auto& [path, want] : query.field_filters) {
      const util::Json& v = doc.content.at_path(path);
      if (v.is_array()) {
        // Arrays match if any element equals the wanted value.
        bool any = false;
        for (const auto& el : v.as_array()) {
          if (leaf_to_string(el) == want) {
            any = true;
            break;
          }
        }
        keep = any;
      } else {
        keep = leaf_to_string(v) == want;
      }
      if (!keep) break;
    }
    if (!keep) continue;

    if (!query.date_field.empty()) {
      const util::Json& v = doc.content.at_path(query.date_field);
      int64_t when = 0;
      if (!v.is_string() || !util::parse_iso8601(v.as_string(), &when)) continue;
      if (query.date_from_unix && when < *query.date_from_unix) continue;
      if (query.date_to_unix && when > *query.date_to_unix) continue;
    }

    matches.push_back(Match{cand[i], cand_scores[i]});
  }

  // Ids are unique among live documents, so (score desc, id asc) is a total
  // order and the top `limit` come out exactly as a full sort would give.
  const size_t k = std::min(query.limit, matches.size());
  std::partial_sort(matches.begin(), matches.begin() + k, matches.end(),
                    [this](const Match& a, const Match& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return slots_[a.slot].doc.id < slots_[b.slot].doc.id;
                    });
  std::vector<Hit> hits;
  hits.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    hits.push_back(Hit{slots_[matches[i].slot].doc.id, matches[i].score});
  }
  return hits;
}

util::Result<const Document*> Index::get(const DocId& id,
                                         const auth::Identity& caller) const {
  using R = util::Result<const Document*>;
  auto it = doc_ids_.find(id);
  if (it == doc_ids_.end()) return R::err("no document " + id, "not_found");
  const Document& doc = slots_[it->second].doc;
  if (!visible(doc, caller)) {
    return R::err("document " + id + " not visible to caller", "denied");
  }
  return R::ok(&doc);
}

std::map<std::string, size_t> Index::facet(const std::string& dotted_path,
                                           const auth::Identity& caller) const {
  std::map<std::string, size_t> out;
  for (const auto& [id, slot] : doc_ids_) {
    const Document& doc = slots_[slot].doc;
    if (!visible(doc, caller)) continue;
    const util::Json& v = doc.content.at_path(dotted_path);
    if (v.is_null()) continue;
    out[leaf_to_string(v)] += 1;
  }
  return out;
}

std::vector<const Document*> Index::snapshot() const {
  std::vector<const Document*> out;
  out.reserve(live_);
  for (uint32_t slot : ingest_order_) {
    if (slots_[slot].alive) out.push_back(&slots_[slot].doc);
  }
  return out;
}

uint64_t Index::fingerprint() const {
  // Canonical order is by external id, independent of slot allocation.
  std::vector<uint32_t> order;
  order.reserve(live_);
  for (const auto& [id, slot] : doc_ids_) order.push_back(slot);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return slots_[a].doc.id < slots_[b].doc.id;
  });
  util::Crc64 crc;
  for (uint32_t slot : order) {
    const Document& doc = slots_[slot].doc;
    crc.update(doc.id.data(), doc.id.size());
    std::string content = doc.content.dump();
    crc.update(content.data(), content.size());
  }
  return crc.value();
}

std::vector<DocId> Index::all_ids(const auth::Identity& caller) const {
  std::vector<DocId> out;
  for (uint32_t slot : ingest_order_) {
    if (slots_[slot].alive && visible(slots_[slot].doc, caller)) {
      out.push_back(slots_[slot].doc.id);
    }
  }
  return out;
}

}  // namespace pico::search
