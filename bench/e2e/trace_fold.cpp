#include "trace_fold.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace fedtrans::e2e {

namespace {

/// Cursor over the exported JSON. The exporter writes one fixed field order
/// per event (src/obs/trace.cpp), so a field-by-field reader suffices.
struct Reader {
  const std::string& s;
  std::size_t pos;

  void expect(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s.compare(pos, n, lit) != 0)
      throw std::runtime_error(std::string("trace JSON: expected ") + lit +
                               " at offset " + std::to_string(pos));
    pos += n;
  }
  bool accept(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }
  double number() {
    const char* begin = s.c_str() + pos;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin)
      throw std::runtime_error("trace JSON: number expected at offset " +
                               std::to_string(pos));
    pos += static_cast<std::size_t>(end - begin);
    return v;
  }
  /// Body of a string whose opening quote was already consumed.
  std::string string_body() {
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\' && pos + 1 < s.size()) {
        ++pos;
        out.push_back(s[pos] == 'n' ? '\n' : s[pos]);
      } else {
        out.push_back(s[pos]);
      }
      ++pos;
    }
    expect("\"");
    return out;
  }
};

/// Depth of a span in the layer order; a parent always ranks lower than its
/// children. Keys are "cat/name" as exported.
int span_rank(const std::string& key) {
  static const std::map<std::string, int> kRank = {
      {"bench/round", 0},
      {"engine/round", 1},
      {"engine/select", 2},
      {"engine/exchange", 2},
      {"engine/aggregate", 2},
      {"engine/eval", 2},
      {"bench/strategy.plan", 3},
      {"bench/strategy.payload", 3},
      {"bench/strategy.absorb", 3},
      {"bench/strategy.finish", 3},
      {"server/exchange", 3},
      {"server/broadcast", 4},
      {"server/broadcast_sharded", 4},
      {"server/collect", 4},
      {"server/collect_sharded", 4},
      {"bench/select", 4},
      {"server/route_tiers_down", 5},
      {"server/fan_out_shards", 5},
      {"server/poll_agents", 5},
      {"server/partial_merge", 5},
      {"client/poll", 6},
      {"bench/data.client", 7},
      {"kernel/conv2d_fwd", 8},
      {"kernel/conv2d_bwd", 8},
      {"kernel/grouped_conv2d_fwd", 8},
      {"kernel/grouped_conv2d_bwd", 8},
      {"kernel/gemm", 9},
      {"kernel/gemm_half", 9},
  };
  const auto it = kRank.find(key);
  return it != kRank.end() ? it->second : 10;
}

// Timestamps are exported with three decimals, so a child's end may exceed
// its parent's by a rounding step.
constexpr double kSlackUs = 0.002;

}  // namespace

std::vector<Span> parse_chrome_trace(const std::string& json) {
  std::vector<Span> spans;
  Reader r{json, 0};
  static const char kEvent[] = "{\"ph\":\"X\",\"pid\":1,\"tid\":";
  while ((r.pos = json.find(kEvent, r.pos)) != std::string::npos) {
    r.pos += sizeof(kEvent) - 1;
    Span sp;
    r.number();  // tid: every wall span exports on track 0
    r.expect(",\"cat\":\"");
    sp.cat = r.string_body();
    r.expect(",\"name\":\"");
    sp.name = r.string_body();
    r.expect(",\"ts\":");
    sp.ts_us = r.number();
    r.expect(",\"dur\":");
    sp.dur_us = r.number();
    if (r.accept(",\"args\":{\"")) {
      r.string_body();  // the argument's name
      r.expect(":");
      sp.arg = r.number();
      r.expect("}");
    }
    r.expect("}");
    spans.push_back(std::move(sp));
  }
  return spans;
}

void fold_spans(const std::vector<Span>& spans, SpanTable& table) {
  struct Item {
    const Span* span;
    std::string key;
    int rank;
    double end_us;
    double self_us;
  };
  std::vector<Item> items;
  items.reserve(spans.size());
  for (const Span& sp : spans) {
    std::string key = sp.cat + "/" + sp.name;
    const int rank = span_rank(key);
    items.push_back(
        Item{&sp, std::move(key), rank, sp.ts_us + sp.dur_us, sp.dur_us});
  }
  // Parents before children: earlier start first, then the longer span,
  // then the shallower layer.
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.span->ts_us != b.span->ts_us) return a.span->ts_us < b.span->ts_us;
    if (a.span->dur_us != b.span->dur_us)
      return a.span->dur_us > b.span->dur_us;
    return a.rank < b.rank;
  });

  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < items.size(); ++i) {
    Item& it = items[i];
    std::erase_if(open, [&](std::size_t j) {
      return items[j].end_us + kSlackUs < it.span->ts_us;
    });
    std::size_t parent = items.size();
    for (std::size_t j : open) {
      const Item& p = items[j];
      if (p.rank >= it.rank || p.end_us + kSlackUs < it.end_us) continue;
      if (parent == items.size() || p.rank > items[parent].rank ||
          (p.rank == items[parent].rank &&
           p.span->ts_us > items[parent].span->ts_us))
        parent = j;
    }
    if (parent != items.size()) items[parent].self_us -= it.span->dur_us;
    open.push_back(i);
  }

  for (const Item& it : items) {
    SpanStats& st = table[it.key];
    st.total_us += it.span->dur_us;
    st.self_us += it.self_us;
    st.arg_sum += it.span->arg;
    ++st.count;
  }
}

}  // namespace fedtrans::e2e
