// End-to-end federated-learning benchmark (see README.md). One process runs
// one workload in one of three modes:
//
//   fedtrans_e2e --workload NAME [--seed N] [--seconds S] [--trace 0]
//       Untraced: set-up time, round latency and throughput, accuracy and
//       delivered share, plus the paper's cost columns and peak memory.
//   fedtrans_e2e --workload NAME [--seed N] --trace 1 [--trace-out PATH]
//       Traced: a plain session and a decorated one under the wall tracer,
//       run in alternating blocks of rounds, the traced rounds folded into
//       per-layer metrics.
//   fedtrans_e2e --workload NAME [--seed N] --check
//       10 rounds plain vs decorated+traced, which must be bitwise equal.
//
// Every mode prints named correctness checks and, last on stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every check passed. bench/e2e/run.sh builds this binary and
// runs each workload in its own process.

#ifndef NDEBUG
#error "bench/e2e measures release binaries only: build with -DNDEBUG"
#endif

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "trace_fold.hpp"
#include "workloads.hpp"

namespace fedtrans::e2e {
namespace {

/// Cold constructions timed for setup_s.
constexpr int kSetupRepeats = 5;
/// Rounds per session in --check mode.
constexpr int kCheckRounds = 10;
/// --trace alternates plain and traced sessions in blocks of this many
/// rounds, so drift in the host's speed hits both alike. The trace is
/// folded and cleared after each block: a FedTrans round emits ~3.5k
/// kernel spans and a thread buffer holds 2^18, while folding after every
/// round evicted enough cache to slow the next one by ~5%.
constexpr int kTraceBlock = 10;
/// Timed encode/decode calls behind the wire.* metrics.
constexpr int kCodecRepeats = 100;
/// Share of engine.round_ms that the engine phases must explain.
constexpr double kMinClosure = 0.90;
/// Every workload learns far past chance (at most 0.25 with 4 classes);
/// below this, training is broken whatever the seed.
constexpr double kMinAccuracy = 0.5;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear interpolation between order statistics; q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(const char* f, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

// ---- report ------------------------------------------------------------------

/// Named metrics and checks of one run: prints the human lines as they come
/// and the JSON object at the end.
class Report {
 public:
  /// A metric of BENCHMARK.json: printed and put into the JSON object.
  void metric(const std::string& name, const char* unit, double value,
              const std::string& note = "") {
    info(name, unit, value, note);
    json_.push_back({name, unit, value});
  }
  /// Printed for people only.
  void info(const std::string& name, const char* unit, double value,
            const std::string& note = "") {
    std::printf("metric %-24s %20.10g %-9s %s\n", name.c_str(), value, unit,
                note.c_str());
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    std::printf("check  %-52s %-4s %s\n", name.c_str(), ok ? "ok" : "FAIL",
                detail.c_str());
    ok_ = ok_ && ok;
  }
  void note(const std::string& line) { std::printf("note   %s\n", line.c_str()); }
  bool ok() const { return ok_; }

  void print_json(std::int64_t attempted, std::int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                ok_ ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < json_.size(); ++i) {
      const double v = std::isfinite(json_[i].value) ? json_[i].value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", json_[i].name.c_str(), v,
                  json_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    const char* unit;
    double value;
  };
  std::vector<Entry> json_;
  bool ok_ = true;
};

// ---- sessions ----------------------------------------------------------------

/// What a session computed — everything that must repeat bit for bit.
struct Outcome {
  CostMeter costs;
  std::vector<RoundRecord> history;
  std::uint64_t digest = 0;
};

Outcome outcome_of(Federation& f) {
  return Outcome{f.engine->costs(), f.engine->history(), weights_digest(f)};
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Empty when equal, else the first field that differs.
std::string outcome_diff(const Outcome& a, const Outcome& b) {
  const CostMeter& x = a.costs;
  const CostMeter& y = b.costs;
  if (!same_bits(x.total_macs(), y.total_macs())) return "CostMeter macs";
  if (!same_bits(x.bytes_down(), y.bytes_down())) return "CostMeter bytes_down";
  if (!same_bits(x.bytes_up(), y.bytes_up())) return "CostMeter bytes_up";
  if (!same_bits(x.storage_bytes(), y.storage_bytes()))
    return "CostMeter storage";
  if (x.client_time_count() != y.client_time_count() ||
      !same_bits(x.client_time_mean(), y.client_time_mean()) ||
      !same_bits(x.client_time_std(), y.client_time_std()) ||
      x.client_times_s() != y.client_times_s())
    return "CostMeter client times";
  if (a.history.size() != b.history.size()) return "history length";
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const RoundRecord& r = a.history[i];
    const RoundRecord& s = b.history[i];
    if (r.round != s.round || !same_bits(r.avg_loss, s.avg_loss) ||
        !same_bits(r.cum_macs, s.cum_macs) ||
        !same_bits(r.accuracy, s.accuracy) ||
        !same_bits(r.round_time_s, s.round_time_s) ||
        r.participants != s.participants ||
        r.lost_updates != s.lost_updates ||
        r.leaf_failovers != s.leaf_failovers ||
        r.byzantine_updates != s.byzantine_updates ||
        !same_bits(r.byzantine_l2, s.byzantine_l2) ||
        r.byzantine_clients != s.byzantine_clients)
      return "RoundRecord of round " + std::to_string(i);
  }
  if (a.digest != b.digest) return "final-weights digest";
  return "";
}

void check_same(Report& rep, const std::string& name, const Outcome& a,
                const Outcome& b) {
  const std::string diff = outcome_diff(a, b);
  rep.check(name, diff.empty(), diff.empty() ? "CostMeter, history, weights"
                                             : "differs in " + diff);
}

/// Client tasks of a session, by fate.
struct Tally {
  std::int64_t planned = 0;
  std::int64_t participants = 0;  ///< updates that reached aggregation
  std::int64_t lost = 0;          ///< updates the engine reported lost
  /// Tasks neither aggregated nor reported lost: a failed operation.
  std::int64_t unaccounted() const {
    return std::abs(planned - participants - lost);
  }
};

Tally tally(const Federation& f) {
  Tally t;
  t.planned = static_cast<std::int64_t>(f.engine->rounds_done()) *
              f.tasks_per_round;
  for (const RoundRecord& r : f.engine->history()) {
    t.participants += r.participants;
    t.lost += r.lost_updates;
  }
  return t;
}

std::uint64_t frames_rejected(const Federation& f) {
  const FederationServer* s = f.engine->fabric();
  return s != nullptr ? s->stats().frames_rejected.load() : 0;
}

void check_session(Report& rep, const Federation& f) {
  const std::uint64_t rejected = frames_rejected(f);
  rep.check("net.frames_rejected == 0", rejected == 0,
            std::to_string(rejected));
  const Tally t = tally(f);
  rep.check("participants + lost == tasks planned", t.unaccounted() == 0,
            std::to_string(t.participants) + " + " + std::to_string(t.lost) +
                " vs " + std::to_string(t.planned));
}

std::vector<double> run_rounds(FederationEngine& engine, int rounds) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    engine.run_round();
    ms.push_back(1e3 * seconds_since(t0));
  }
  return ms;
}

/// Traced rounds of one session, folded block by block.
struct TracedRun {
  SpanTable table;
  std::vector<double> round_ms;
  std::uint64_t dropped = 0;
  std::string last_json;  ///< the last block's trace, as exported
};

/// Run `rounds` more rounds under the wall tracer, each wrapped in a
/// "bench/round" span, then export, fold and clear the trace.
void run_traced_rounds(FederationEngine& engine, int rounds, TracedRun& out) {
  trace_clear();
  trace_start(TraceClock::Wall);
  for (int r = 0; r < rounds; ++r) {
    const double t0 = trace_now_us();
    engine.run_round();
    const double t1 = trace_now_us();
    TraceEvent ev;
    ev.name = "round";
    ev.cat = "bench";
    ev.ts_us = t0;
    ev.dur_us = t1 - t0;
    trace_record(ev);
    out.round_ms.push_back((t1 - t0) / 1e3);
  }
  trace_stop();
  std::ostringstream json;
  trace_export_json(json);
  out.dropped += trace_dropped_count();
  trace_clear();
  out.last_json = json.str();
  fold_spans(parse_chrome_trace(out.last_json), out.table);
}

// ---- goldens -----------------------------------------------------------------

/// Seed-1 values of the deterministic metrics, recorded with the GEMM
/// backend named (other backends round differently, so a run on one of them
/// skips the comparison). Every value must match exactly; a change that
/// alters the arithmetic on purpose records new ones from the FAIL lines.
struct Golden {
  const char* workload;
  const char* backend;
  double final_accuracy;
  double train_gmacs;
  double network_mb;
  double storage_mb;
  double sim_round_s;
  double failed_frac;
};

constexpr Golden kGoldens[] = {
    {"fedtrans-cifar", "avx512", 0.98958333333333315, 83.107101599999993,
     27.114837646484375, 0.07137298583984375, 3.444095298574835, 0},
    {"fedtrans-cifar-tree", "avx512", 0.98958333333333315, 83.107101599999993,
     27.114837646484375, 0.07137298583984375, 3.444095298574835, 0},
    {"fedavg-pop-1m", "avx512", 0.935546875, 26.915635200000001, 151.171875,
     0.00295257568359375, 0.26221998776792144, 0},
    {"heterofl-femnist-faulty", "avx512", 0.75874999999999959,
     107.33005439999999, 43.529664993286133, 0.0102996826171875,
     1.6249544957240756, 0.13142857142857142},
};

void check_goldens(Report& rep, const Workload& w, std::uint64_t seed,
                   const double (&got)[6]) {
  static const char* const kNames[] = {"final_accuracy", "train_gmacs",
                                       "network_mb",     "storage_mb",
                                       "sim_round_s",    "failed_frac"};
  const char* backend = gemm_backend_name(gemm_backend());
  for (const Golden& g : kGoldens) {
    if (std::strcmp(g.workload, w.name) != 0) continue;
    if (seed != 1 || std::strcmp(g.backend, backend) != 0) {
      rep.note(std::string("golden values skipped: recorded at seed 1 on ") +
               g.backend + ", this run is seed " + std::to_string(seed) +
               " on " + backend);
      return;
    }
    const double want[] = {g.final_accuracy, g.train_gmacs, g.network_mb,
                           g.storage_mb,     g.sim_round_s, g.failed_frac};
    for (int i = 0; i < 6; ++i)
      rep.check(std::string("golden ") + kNames[i], same_bits(got[i], want[i]),
                fmt("%.17g vs %.17g", got[i], want[i]));
  }
}

// ---- modes -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  bool check = false;
  std::string trace_out;
};

/// Untraced run: whole sessions of kRounds rounds, repeated while the next
/// one is expected to end within --seconds (at least one).
int run_measure(const Workload& w, const Options& o, Report& rep) {
  std::vector<double> setup_s;
  std::unique_ptr<Federation> fed;
  auto build = [&] {
    fed.reset();
    const auto t0 = Clock::now();
    fed = build_federation(w, o.seed, false);
    setup_s.push_back(seconds_since(t0));
  };
  for (int i = 0; i < kSetupRepeats; ++i) build();

  std::vector<double> round_ms;
  Outcome first;
  Tally first_tally;
  double accuracy = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t participants = 0;
  int sessions = 0;
  const auto t_measure = Clock::now();
  for (;;) {
    if (sessions > 0) build();
    const auto t0 = Clock::now();
    const std::vector<double> ms = run_rounds(*fed->engine, kRounds);
    const double session_s = seconds_since(t0);
    round_ms.insert(round_ms.end(), ms.begin(), ms.end());
    const Tally t = tally(*fed);
    participants += t.participants;
    attempted += t.planned;
    failed += t.unaccounted();
    check_session(rep, *fed);
    if (sessions == 0) {
      first = outcome_of(*fed);
      first_tally = t;
      accuracy = final_accuracy(*fed, o.seed);
    } else {
      check_same(rep, "session " + std::to_string(sessions + 1) +
                          " == session 1 (bitwise)",
                 first, outcome_of(*fed));
    }
    ++sessions;
    if (seconds_since(t_measure) + session_s > o.seconds) break;
  }

  // The tree session must be a bitwise twin of the in-process one: the gap
  // between their round times is then exactly the fabric's cost.
  if (w.kind == Kind::FedTransCifarTree) {
    auto twin = build_federation(*find_workload("fedtrans-cifar"), o.seed,
                                 false);
    run_rounds(*twin->engine, kRounds);
    check_same(rep, "fedtrans-cifar-tree == fedtrans-cifar (bitwise)", first,
               outcome_of(*twin));
  }
  rep.check("final_accuracy >= " + fmt("%.2f", kMinAccuracy),
            accuracy >= kMinAccuracy, fmt("%.4f", accuracy));

  double sim_round_s = 0.0;
  for (const RoundRecord& r : first.history) sim_round_s += r.round_time_s;
  sim_round_s /= static_cast<double>(first.history.size());
  const double failed_frac =
      static_cast<double>(first_tally.lost) /
      static_cast<double>(first_tally.participants + first_tally.lost);
  const double det[6] = {accuracy,
                         first.costs.total_macs() / 1e9,
                         first.costs.network_mb(),
                         first.costs.storage_mb(),
                         sim_round_s,
                         failed_frac};

  const std::string n_rounds =
      "n=" + std::to_string(round_ms.size()) + " rounds, " +
      std::to_string(sessions) + " session(s)";
  rep.metric("setup_s", "s", quantile(setup_s, 0.5),
             "median of " + std::to_string(setup_s.size()) +
                 " cold constructions");
  rep.metric("round_ms_p50", "ms", quantile(round_ms, 0.5), n_rounds);
  rep.metric("updates_per_s", "1/s",
             static_cast<double>(participants) / (sum(round_ms) / 1e3),
             "participants / round wall time");
  rep.metric("final_accuracy", "fraction", det[0]);
  rep.metric("delivered_frac", "fraction", 1.0 - det[5],
             "participants / client tasks");
  // FedTrans grows a different model family from each seed, which spreads
  // these over ten seeds by 18-22% (p90) to 15-65% (the cost columns and
  // peak memory; quartile spread), too much for any bound BENCHMARK.json
  // may set. The deterministic ones are checked exactly against the
  // seed-1 goldens instead.
  rep.info("round_ms_p90", "ms", quantile(round_ms, 0.9), n_rounds);
  rep.info("train_gmacs", "GMAC", det[1]);
  rep.info("network_mb", "MiB", det[2]);
  rep.info("storage_mb", "MiB", det[3]);
  rep.info("sim_round_s", "s", det[4]);
  rep.info("failed_frac", "fraction", det[5],
           "updates lost to injected faults / client tasks");
  rep.info("peak_rss_mb", "MiB", peak_rss_mib());
  check_goldens(rep, w, o.seed, det);
  rep.print_json(attempted, failed);
  return rep.ok() ? 0 : 1;
}

struct CodecTimes {
  double encode_us = 0.0;
  double decode_us = 0.0;
  double frame_bytes = 0.0;
};

/// Median encode_message / decode_message time of a ModelDown carrying the
/// session's final reference model.
CodecTimes time_codec(const Federation& f) {
  Model ref = f.engine->strategy().reference_model();
  FabricMessage msg;
  msg.type = MsgType::ModelDown;
  msg.round = 1;
  msg.sender = kServerId;
  msg.receiver = 0;
  msg.weights = ref.weights();
  std::vector<double> enc;
  std::vector<double> dec;
  std::size_t bytes = 0;
  for (int i = 0; i < kCodecRepeats; ++i) {
    auto t0 = Clock::now();
    const std::string frame = encode_message(msg);
    enc.push_back(1e6 * seconds_since(t0));
    t0 = Clock::now();
    const FabricMessage back = decode_message(frame);
    dec.push_back(1e6 * seconds_since(t0));
    if (back.weights.size() != msg.weights.size())
      throw std::runtime_error("ModelDown did not round-trip");
    bytes = frame.size();
  }
  return CodecTimes{quantile(enc, 0.5), quantile(dec, 0.5),
                    static_cast<double>(bytes)};
}

int run_trace(const Workload& w, const Options& o, Report& rep) {
  auto plain = build_federation(w, o.seed, false);
  auto fed = build_federation(w, o.seed, true);
  std::vector<double> plain_ms;
  TracedRun tr;
  for (int done = 0; done < kRounds; done += kTraceBlock) {
    const int n = std::min(kTraceBlock, kRounds - done);
    const std::vector<double> ms = run_rounds(*plain->engine, n);
    plain_ms.insert(plain_ms.end(), ms.begin(), ms.end());
    run_traced_rounds(*fed->engine, n, tr);
  }

  const double R = kRounds;
  const SpanTable& T = tr.table;
  auto stat = [&](const char* key) {
    const auto it = T.find(key);
    return it != T.end() ? it->second : SpanStats{};
  };
  auto ms = [&](const char* key) { return stat(key).total_us / 1e3 / R; };
  auto self_ms = [&](const char* key) { return stat(key).self_us / 1e3 / R; };
  auto calls = [&](const char* key) {
    return static_cast<double>(stat(key).count) / R;
  };

  check_same(rep, "decorated+traced session == plain session (bitwise)",
             outcome_of(*plain), outcome_of(*fed));
  rep.check("trace_dropped_count() == 0", tr.dropped == 0,
            std::to_string(tr.dropped));
  check_session(rep, *fed);
  const Tally t = tally(*fed);

  // fl/engine
  const double round = ms("bench/round");
  const double phases = ms("engine/select") + ms("engine/exchange") +
                        ms("engine/aggregate");
  const double closure = phases / round;
  rep.metric("engine.round_ms", "ms", round, "bench span, per round");
  rep.metric("engine.first_round_ms", "ms", tr.round_ms.front(),
             "round 0: lazy fabric build lands here");
  rep.metric("engine.select_ms", "ms", ms("engine/select"));
  rep.metric("engine.exchange_ms", "ms", ms("engine/exchange"));
  rep.metric("engine.aggregate_ms", "ms", ms("engine/aggregate"));
  rep.metric("engine.unattributed_ms", "ms", round - phases);
  rep.metric("engine.closure_frac", "fraction", closure,
             "(select + exchange + aggregate) / round");
  rep.check("engine phases explain >= 90% of engine.round_ms",
            closure >= kMinClosure, fmt("%.4f", closure));

  // core, baselines, fl/runner — through TimedStrategy
  rep.metric("strategy.plan_ms", "ms", ms("bench/strategy.plan"));
  rep.metric("strategy.payload_ms", "ms", ms("bench/strategy.payload"));
  rep.metric("strategy.payload_calls", "count",
             calls("bench/strategy.payload"));
  rep.metric("strategy.absorb_ms", "ms", ms("bench/strategy.absorb"));
  rep.metric("strategy.absorb_calls", "count", calls("bench/strategy.absorb"));
  rep.metric("strategy.finish_ms", "ms", ms("bench/strategy.finish"));
  const FedTransStrategy* ft = fed->fedtrans;
  rep.metric("fedtrans.models", "count",
             ft != nullptr ? ft->num_models() : 0.0, "family size at end");
  rep.metric("fedtrans.transforms", "count",
             ft != nullptr ? ft->transforms_done() : 0.0);

  // fl/selection, pop
  rep.metric("select.ms", "ms", ms("bench/select"));
  double mats = 0, hits = 0, evictions = 0, resident = 0;
  if (fed->view != nullptr) {
    const CohortPool& pool = fed->view->pool();
    mats = static_cast<double>(pool.materializations());
    hits = static_cast<double>(pool.hits());
    evictions = static_cast<double>(pool.evictions());
    resident = static_cast<double>(pool.resident_bytes()) / (1024.0 * 1024.0);
  }
  rep.metric("pop.materializations", "count", mats / R);
  rep.metric("pop.hits", "count", hits / R);
  rep.metric("pop.evictions", "count", evictions / R);
  rep.metric("pop.hit_frac", "fraction",
             hits + mats > 0 ? hits / (hits + mats) : 0.0);
  rep.metric("pop.resident_mb", "MiB", resident);

  // data
  rep.metric("data.client_ms", "ms", ms("bench/data.client"));
  rep.metric("data.client_calls", "count", calls("bench/data.client"));

  // nn (self time: conv minus the GEMMs inside it), tensor
  rep.metric("nn.conv_fwd_ms", "ms", self_ms("kernel/conv2d_fwd"),
             "self time");
  rep.metric("nn.conv_bwd_ms", "ms", self_ms("kernel/conv2d_bwd"),
             "self time");
  if (stat("kernel/grouped_conv2d_fwd").count > 0) {
    rep.info("nn.grouped_conv_fwd_ms", "ms",
             self_ms("kernel/grouped_conv2d_fwd"), "self time");
    rep.info("nn.grouped_conv_bwd_ms", "ms",
             self_ms("kernel/grouped_conv2d_bwd"), "self time");
  }
  const SpanStats gemm = stat("kernel/gemm");
  rep.metric("tensor.gemm_ms", "ms", ms("kernel/gemm"));
  rep.metric("tensor.gemm_calls", "count", calls("kernel/gemm"));
  rep.metric("tensor.gemm_gflops", "GFLOP/s",
             gemm.total_us > 0 ? 2.0 * gemm.arg_sum / (gemm.total_us * 1e3)
                               : 0.0,
             "2 x macs / gemm time, per thread");

  // net/server and client agents. The times are 0 on the in-process
  // workload, so they stay out of the JSON; engine.exchange_ms carries the
  // fabric's cost there.
  rep.info("client.poll_self_ms", "ms", self_ms("client/poll"), "self time");
  rep.metric("client.updates", "count", calls("client/poll"),
             "agent polls per round");
  rep.info("server.broadcast_ms", "ms",
           ms("server/broadcast") + ms("server/broadcast_sharded"));
  rep.info("server.route_down_ms", "ms",
           ms("server/route_tiers_down") + ms("server/fan_out_shards"));
  rep.info("server.poll_agents_ms", "ms", ms("server/poll_agents"));
  rep.info("server.collect_self_ms", "ms",
           self_ms("server/collect") + self_ms("server/collect_sharded"),
           "self time");
  rep.info("server.partial_merge_ms", "ms", ms("server/partial_merge"));

  // net/transport, net/socket_transport: FabricStats per round
  const FederationServer* server = fed->engine->fabric();
  auto per_round = [&](const std::atomic<std::uint64_t> FabricStats::*field) {
    return server != nullptr
               ? static_cast<double>((server->stats().*field).load()) / R
               : 0.0;
  };
  rep.metric("net.frames_sent", "count", per_round(&FabricStats::frames_sent));
  rep.metric("net.bytes_sent", "bytes", per_round(&FabricStats::bytes_sent));
  rep.metric("net.bytes_root_in", "bytes",
             per_round(&FabricStats::bytes_root_in));
  rep.metric("net.bytes_downlink", "bytes",
             per_round(&FabricStats::bytes_downlink));
  rep.metric("net.frames_dropped", "count",
             per_round(&FabricStats::frames_dropped));
  rep.metric("net.frames_duplicated", "count",
             per_round(&FabricStats::frames_duplicated));
  rep.metric("net.frames_retried", "count",
             per_round(&FabricStats::frames_retried));
  rep.metric("net.retry_bytes", "bytes",
             per_round(&FabricStats::retry_bytes_down) +
                 per_round(&FabricStats::retry_bytes_up));
  rep.metric("net.leaf_failovers", "count",
             per_round(&FabricStats::leaf_failovers));
  rep.metric("net.frames_rejected", "count",
             per_round(&FabricStats::frames_rejected));
  const double sent = per_round(&FabricStats::frames_sent);
  rep.metric("net.delivered_frac", "fraction",
             sent > 0 ? per_round(&FabricStats::frames_delivered) / sent : 1.0,
             "frames delivered / sent");
  rep.metric("net.cache_hits", "count", per_round(&FabricStats::cache_hits));
  rep.metric("net.cache_saved_bytes", "bytes",
             per_round(&FabricStats::cache_saved_bytes));
  rep.metric("net.delta_downlinks", "count",
             per_round(&FabricStats::delta_downlinks));
  rep.metric("net.delta_saved_bytes", "bytes",
             per_round(&FabricStats::delta_saved_bytes));
  if (server != nullptr)
    rep.note(fmt("fabric totals over %.0f rounds: ", R) +
             std::to_string(server->stats().frames_sent.load()) + " frames, " +
             fmt("%.1f MB, ", server->stats().bytes_sent.load() / 1e6) +
             std::to_string(server->stats().cache_hits.load()) +
             " cache hits, " +
             std::to_string(server->stats().delta_downlinks.load()) +
             " delta downlinks");

  // net/wire
  const CodecTimes codec = time_codec(*fed);
  rep.metric("wire.encode_us", "us", codec.encode_us,
             "median of " + std::to_string(kCodecRepeats));
  rep.metric("wire.decode_us", "us", codec.decode_us,
             "median of " + std::to_string(kCodecRepeats));
  rep.metric("wire.frame_bytes", "bytes", codec.frame_bytes,
             "ModelDown of the final reference model");

  // obs
  rep.metric("trace.overhead_frac", "fraction",
             quantile(tr.round_ms, 0.5) / quantile(plain_ms, 0.5) - 1.0,
             "traced / untraced round p50 - 1, interleaved blocks");
  rep.metric("trace.dropped_events", "count", static_cast<double>(tr.dropped));

  if (!o.trace_out.empty()) {
    std::ofstream(o.trace_out, std::ios::trunc) << tr.last_json;
    rep.note("last " + std::to_string(kTraceBlock) + " rounds' spans -> " +
             o.trace_out);
  }
  rep.print_json(t.planned, t.unaccounted());
  return rep.ok() ? 0 : 1;
}

int run_check(const Workload& w, const Options& o, Report& rep) {
  auto plain = build_federation(w, o.seed, false);
  run_rounds(*plain->engine, kCheckRounds);
  const Outcome a = outcome_of(*plain);
  check_session(rep, *plain);

  auto timed = build_federation(w, o.seed, true);
  TracedRun tr;
  run_traced_rounds(*timed->engine, kCheckRounds, tr);
  check_same(rep, "decorated+traced == plain (bitwise)", a,
             outcome_of(*timed));
  rep.check("trace_dropped_count() == 0", tr.dropped == 0,
            std::to_string(tr.dropped));

  if (w.kind == Kind::FedTransCifarTree) {
    auto twin = build_federation(*find_workload("fedtrans-cifar"), o.seed,
                                 false);
    run_rounds(*twin->engine, kCheckRounds);
    check_same(rep, "fedtrans-cifar-tree == fedtrans-cifar (bitwise)", a,
               outcome_of(*twin));
  }
  const Tally t = tally(*plain);
  rep.print_json(t.planned, t.unaccounted());
  return rep.ok() ? 0 : 1;
}

int usage(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: fedtrans_e2e --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--trace-out PATH] [--check]\n",
               msg.c_str());
  return 2;
}

int run_main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      o.seed = std::strtoull(argv[++i], &end, 10);
      if (*argv[i] == '\0' || *end != '\0')
        return usage(std::string("bad --seed ") + argv[i]);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (a == "--check") {
      o.check = true;
    } else {
      return usage("unknown argument " + a);
    }
  }
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) return usage("unknown workload '" + o.workload + "'");

  const char* mode = o.check ? "check" : (o.trace ? "trace" : "measure");
  std::printf("# fedtrans e2e: workload=%s seed=%llu mode=%s rounds=%d\n",
              w->name, static_cast<unsigned long long>(o.seed), mode,
              o.check ? kCheckRounds : kRounds);
  std::printf("env    nproc=%u threads=%d gemm=%s compiler=\"%s\" ndebug=1\n",
              std::thread::hardware_concurrency(), ThreadPool::global().size(),
              gemm_backend_name(gemm_backend()), FEDTRANS_E2E_COMPILER);
  std::fflush(stdout);

  Report rep;
  if (o.check) return run_check(*w, o, rep);
  if (o.trace) return run_trace(*w, o, rep);
  return run_measure(*w, o, rep);
}

}  // namespace
}  // namespace fedtrans::e2e

int main(int argc, char** argv) {
  try {
    return fedtrans::e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "fedtrans_e2e: %s\n", e.what());
    return 2;
  }
}
