#include "sim/trace.hpp"

#include <algorithm>
#include <functional>
#include <string_view>

namespace pico::sim {

namespace {

/// splitmix64 finalizer: spreads sequential span ids and string hashes over
/// a table's low bits.
uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t label_key(const std::string& component, const std::string& category,
                   const std::string& label) {
  const std::hash<std::string_view> h;
  return mix(mix(h(component) ^ mix(h(category))) ^ h(label));
}

bool same_label(const Span& s, const std::string& component,
                const std::string& category, const std::string& label) {
  return s.label == label && s.category == category &&
         s.component == component;
}

constexpr auto kAnyHead = [](uint32_t) { return true; };

}  // namespace

template <class Same>
const Trace::Bucket* Trace::Table::find(uint64_t key, Same same) const {
  if (buckets.empty()) return nullptr;
  const size_t mask = buckets.size() - 1;
  for (size_t i = mix(key) & mask;; i = (i + 1) & mask) {
    const Bucket& b = buckets[i];
    if (b.head == kNoSpan) return nullptr;
    if (b.key == key && same(b.head)) return &b;
  }
}

template <class Same>
Trace::Bucket& Trace::Table::insert(uint64_t key, uint32_t head, Same same,
                                    bool* fresh) {
  if ((used + 1) * 4 > buckets.size() * 3) {
    std::vector<Bucket> old = std::move(buckets);
    buckets.assign(std::max<size_t>(16, old.size() * 2), Bucket{});
    const size_t mask = buckets.size() - 1;
    for (const Bucket& b : old) {
      if (b.head == kNoSpan) continue;
      size_t i = mix(b.key) & mask;
      while (buckets[i].head != kNoSpan) i = (i + 1) & mask;
      buckets[i] = b;
    }
  }
  const size_t mask = buckets.size() - 1;
  for (size_t i = mix(key) & mask;; i = (i + 1) & mask) {
    Bucket& b = buckets[i];
    if (b.head == kNoSpan) {
      b = Bucket{key, head, kNoSpan};
      ++used;
      *fresh = true;
      return b;
    }
    if (b.key == key && same(b.head)) {
      *fresh = false;
      return b;
    }
  }
}

void Trace::add(Span span) {
  std::lock_guard lock(mu_);
  const auto idx = static_cast<uint32_t>(spans_.size());
  span.seq = next_seq_++;
  span.next_sibling = kNoSpan;
  spans_.push_back(std::move(span));
  const Span& s = spans_.back();

  bool fresh = false;
  by_label_.insert(
      label_key(s.component, s.category, s.label), idx,
      [&](uint32_t i) {
        return same_label(spans_[i], s.component, s.category, s.label);
      },
      &fresh);  // an existing entry keeps the first such span

  if (s.span_id == 0) return;  // untraced spans are nobody's children
  Bucket& kids = by_parent_.insert(s.parent_id, idx, kAnyHead, &fresh);
  if (!fresh) spans_[kids.tail].next_sibling = idx;
  kids.tail = idx;
}

void Trace::clear() {
  std::lock_guard lock(mu_);
  spans_.clear();
  by_label_ = Table{};
  by_parent_ = Table{};
}

std::vector<const Span*> Trace::select(const std::string& component,
                                       const std::string& category) const {
  std::vector<const Span*> out;
  for (const auto& s : spans_) {
    if (!component.empty() && s.component != component) continue;
    if (!category.empty() && s.category != category) continue;
    out.push_back(&s);
  }
  return out;
}

const Span* Trace::find(const std::string& component,
                        const std::string& category,
                        const std::string& label) const {
  const Bucket* b =
      by_label_.find(label_key(component, category, label), [&](uint32_t i) {
        return same_label(spans_[i], component, category, label);
      });
  return b ? &spans_[b->head] : nullptr;
}

std::vector<const Span*> Trace::children_of(uint64_t parent_id) const {
  std::vector<const Span*> out;
  const Bucket* b = by_parent_.find(parent_id, kAnyHead);
  for (uint32_t i = b ? b->head : kNoSpan; i != kNoSpan;
       i = spans_[i].next_sibling) {
    out.push_back(&spans_[i]);
  }
  return out;
}

std::vector<const Span*> Trace::sorted_spans() const {
  std::vector<const Span*> out;
  out.reserve(spans_.size());
  for (const auto& s : spans_) out.push_back(&s);
  std::sort(out.begin(), out.end(), [](const Span* a, const Span* b) {
    if (a->start.ns != b->start.ns) return a->start.ns < b->start.ns;
    if (a->span_id != b->span_id) return a->span_id < b->span_id;
    return a->seq < b->seq;
  });
  return out;
}

namespace {

/// Events sorted by timestamp; stable keeps append order for equal stamps.
std::vector<const SpanEvent*> sorted_events(const Span& s) {
  std::vector<const SpanEvent*> out;
  out.reserve(s.events.size());
  for (const auto& e : s.events) out.push_back(&e);
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent* a, const SpanEvent* b) {
                     return a->at.ns < b->at.ns;
                   });
  return out;
}

}  // namespace

std::string Trace::to_jsonl() const {
  std::string out;
  for (const Span* sp : sorted_spans()) {
    const Span& s = *sp;
    util::Json j = util::Json::object({
        {"component", s.component},
        {"category", s.category},
        {"label", s.label},
        {"start_s", s.start.seconds()},
        {"end_s", s.end.seconds()},
        {"attrs", s.attrs},
    });
    if (s.span_id != 0) {
      j["trace_id"] = s.trace_id;
      j["span_id"] = s.span_id;
      j["parent_id"] = s.parent_id;
    }
    if (!s.events.empty()) {
      util::Json events = util::Json::array();
      for (const SpanEvent* e : sorted_events(s)) {
        events.push_back(util::Json::object({
            {"name", e->name},
            {"at_s", e->at.seconds()},
            {"attrs", e->attrs},
        }));
      }
      j["events"] = std::move(events);
    }
    out += j.dump();
    out.push_back('\n');
  }
  return out;
}

}  // namespace pico::sim
