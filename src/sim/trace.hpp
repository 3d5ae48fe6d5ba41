#pragma once
// Event trace recorder: services append structured spans ("transfer task X
// active 12.3s") that the campaign reporter aggregates into Table 1 / Fig 4
// statistics and that tests assert on.
//
// Spans carry causal identity (trace_id / span_id / parent_id) so a campaign
// -> flow run -> step -> provider attempt forms a tree that the telemetry
// exporters (Chrome trace_event, JSONL) can render hierarchically. Ids are
// assigned by telemetry::Tracer; spans appended directly keep id 0 (roots).
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/json.hpp"

namespace pico::sim {

/// A point annotation attached to a span (fault injections, breaker state
/// transitions, retry decisions).
struct SpanEvent {
  std::string name;
  SimTime at;
  util::Json attrs;
};

/// "No span" sentinel for the trace's span-index links.
inline constexpr uint32_t kNoSpan = UINT32_MAX;

/// A completed interval attributed to a component and category.
struct Span {
  std::string component;  ///< e.g. "transfer", "compute", "flow"
  std::string category;   ///< e.g. "active", "overhead", "queue"
  std::string label;      ///< free-form: task/flow id
  SimTime start;
  SimTime end;
  util::Json attrs;       ///< extra structured attributes
  uint64_t trace_id = 0;  ///< campaign-scoped trace identity (0 = untraced)
  uint64_t span_id = 0;   ///< unique within the trace (0 = unassigned)
  uint64_t parent_id = 0; ///< causal parent span (0 = root)
  std::vector<SpanEvent> events;
  /// Recording order, assigned by Trace::add under its mutex. Exporters use
  /// it as the final sort-key tie-break (timestamp, span_id, seq) so spans
  /// closed at the same integer nanosecond — common with parallel data-plane
  /// workers — serialize in a stable order. Kept after the original fields
  /// (with next_sibling) so positional aggregate initializers written before
  /// it existed stay valid.
  uint64_t seq = 0;
  /// Next span with the same parent_id, in recording order: the intrusive
  /// link behind Trace::children_of, written by Trace::add (kNoSpan = last).
  uint32_t next_sibling = kNoSpan;

  double duration_seconds() const { return (end - start).seconds(); }
};

/// Append-only trace. `add` is guarded by a mutex so parallel data-plane
/// workers may record concurrently with the (single-threaded) sim engine.
/// The read accessors hand out pointers into the underlying vector and
/// therefore require quiescence: call them only when no writer is active
/// (after engine().run() returns, or from the engine thread when no pool work
/// records spans) — the usual post-run reporting pattern.
///
/// Read cost: `find` is O(1) and `children_of` O(children), through two
/// indexes `add` keeps up to date (DESIGN.md §16): an open-addressing table
/// from the (component, category, label) hash to the first such span, and one
/// from parent_id to the head and tail of an intrusive sibling list threaded
/// through Span::next_sibling. Both tables are flat vectors, so recording a
/// span allocates nothing beyond amortized table growth. `select`,
/// `sorted_spans` and `to_jsonl` scan every span.
class Trace {
 public:
  void add(Span span);
  void clear();

  const std::vector<Span>& spans() const { return spans_; }

  /// All spans matching component (empty = any) and category (empty = any).
  std::vector<const Span*> select(const std::string& component,
                                  const std::string& category = "") const;

  /// First span matching (component, category, label), or nullptr.
  const Span* find(const std::string& component, const std::string& category,
                   const std::string& label) const;

  /// Completed children of `parent_id`, in recording order.
  std::vector<const Span*> children_of(uint64_t parent_id) const;

  /// Serialize to JSON lines for offline inspection. Lines are ordered by
  /// (start time, span_id, seq) and a span's events by (time, append order),
  /// so two runs of the same simulation produce byte-identical output.
  std::string to_jsonl() const;

  /// Spans sorted by the exporters' deterministic key: start.ns, then
  /// span_id, then recording seq.
  std::vector<const Span*> sorted_spans() const;

 private:
  /// One open-addressing slot. `key` is the label-triple hash (by_label_) or
  /// the parent_id (by_parent_); `head` == kNoSpan marks an empty slot.
  struct Bucket {
    uint64_t key = 0;
    uint32_t head = kNoSpan;  ///< first span with this key
    uint32_t tail = kNoSpan;  ///< last child (by_parent_ only)
  };
  /// Flat open-addressing map (linear probing, power-of-two size, load at
  /// most 3/4). A slot matches a lookup when its key is equal and
  /// `same(head)` confirms it, which lets the label table verify the strings
  /// behind a hash.
  struct Table {
    std::vector<Bucket> buckets;
    size_t used = 0;

    template <class Same>
    const Bucket* find(uint64_t key, Same same) const;
    /// The matching slot, or a fresh one holding (key, head); `*fresh` says
    /// which.
    template <class Same>
    Bucket& insert(uint64_t key, uint32_t head, Same same, bool* fresh);
  };

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_seq_ = 0;
  Table by_label_;   ///< (component, category, label) -> first span
  Table by_parent_;  ///< parent_id -> children (span_id != 0 only)
};

}  // namespace pico::sim
