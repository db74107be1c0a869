#pragma once

// Folding the program's wall trace into per-layer totals. The tracer
// (src/obs/trace.hpp) only hands its buffers out as Chrome trace_event JSON,
// so each block of rounds is exported, parsed back here, summed per span
// name, and cleared before the next block.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fedtrans::e2e {

/// One complete ("ph":"X") span read back from the exported JSON.
struct Span {
  std::string cat;
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double arg = 0.0;  ///< the span's numeric argument, 0 when it has none
};

/// Sums over every span of one "cat/name" key.
struct SpanStats {
  double total_us = 0.0;  ///< Σ duration, summed across threads
  double self_us = 0.0;   ///< Σ (duration − direct children's durations)
  double arg_sum = 0.0;
  std::uint64_t count = 0;
};

/// "cat/name" → sums.
using SpanTable = std::map<std::string, SpanStats>;

/// Parse the complete events of a trace_export_json document.
std::vector<Span> parse_chrome_trace(const std::string& json);

/// Add a block's spans to `table`, self times included.
///
/// The library's wall spans all export on track 0 — ScopedSpan never stamps
/// the thread — so "child on the same thread" cannot be read from the
/// trace. A span's parent is taken to be the innermost span that encloses
/// it in time and sits higher in the fixed layer order of span_rank() (round
/// → engine phase → strategy/server phase → client poll → data → conv →
/// gemm). Where two threads run the same layer at once, a child may be
/// charged to the other thread's span of that layer, which leaves the
/// per-key sums unchanged — except for a child with no parent of that layer
/// on its own thread (a GEMM outside any conv), which then still lowers the
/// other thread's self time.
void fold_spans(const std::vector<Span>& spans, SpanTable& table);

}  // namespace fedtrans::e2e
