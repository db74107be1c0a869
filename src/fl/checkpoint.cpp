// FederationEngine checkpoint/resume. A checkpoint captures every piece of
// dynamic session state so a restored engine continues bit-identically:
// planet-scale FL runs span days and preemptible infrastructure, so the
// coordinator must be restartable without perturbing the training
// trajectory (FedScale and production systems like Papaya checkpoint the
// same way). The engine writes its own state (Rng, costs, selector, round
// counter, history); the strategy appends its own through
// Strategy::save_state.

#include <sstream>

#include "common/check.hpp"
#include "common/serial.hpp"
#include "fl/engine.hpp"

namespace fedtrans {

namespace {

constexpr std::uint64_t kCheckpointMagic = 0xfed72a45c8c9ULL;
// v2: RoundRecord grew participants/lost_updates (PR 2 federation fabric).
// v3: the engine refactor (PR 3) moved Rng/costs/round/history into the
// FederationEngine; the layout is unchanged but the compatibility break is
// versioned so older checkpoints fail loudly instead of misparsing.
// v4: RoundRecord grew leaf_failovers (PR 5 deep aggregation trees), which
// changes the POD history layout.
// v5: CostMeter caps its raw client-time samples and serializes the exact
// running stats (count / sum / sum-of-squares) ahead of the capped vector.
// v6: RoundRecord grew the Byzantine accounting (byzantine_updates /
// byzantine_l2 / byzantine_clients) — the attacker list makes the record
// non-POD, so history entries now serialize field by field.
// v7: checkpoints belong to the FederationEngine: the header names the
// strategy, the engine state follows it, and the strategy's blob comes last.
constexpr std::uint32_t kCheckpointVersion = 7;

/// Bytes of the smallest serialized RoundRecord (no Byzantine clients):
/// bounds a history count by the bytes left in the stream.
constexpr std::uint64_t kMinRecordBytes =
    5 * sizeof(std::int32_t) + 5 * sizeof(double) + sizeof(std::uint64_t);

void write_record(std::ostream& os, const RoundRecord& r) {
  write_pod(os, r.round);
  write_pod(os, r.avg_loss);
  write_pod(os, r.cum_macs);
  write_pod(os, r.accuracy);
  write_pod(os, r.round_time_s);
  write_pod(os, r.participants);
  write_pod(os, r.lost_updates);
  write_pod(os, r.leaf_failovers);
  write_pod(os, r.byzantine_updates);
  write_pod(os, r.byzantine_l2);
  write_vec(os, r.byzantine_clients);
}

RoundRecord read_record(std::istream& is) {
  RoundRecord r;
  r.round = read_pod<int>(is);
  r.avg_loss = read_pod<double>(is);
  r.cum_macs = read_pod<double>(is);
  r.accuracy = read_pod<double>(is);
  r.round_time_s = read_pod<double>(is);
  r.participants = read_pod<int>(is);
  r.lost_updates = read_pod<int>(is);
  r.leaf_failovers = read_pod<int>(is);
  r.byzantine_updates = read_pod<int>(is);
  r.byzantine_l2 = read_pod<double>(is);
  r.byzantine_clients = read_vec<std::int32_t>(is);
  return r;
}

}  // namespace

void FederationEngine::check_resumable() const {
  const FaultConfig& f = cfg_.fabric_faults;
  FT_CHECK_MSG(!cfg_.use_fabric || (f.drop_prob == 0.0 && f.dup_prob == 0.0 &&
                                    f.reorder_prob == 0.0),
               "cannot checkpoint a fabric session with drop, duplicate or "
               "reorder faults: those draws are keyed by each link's frame "
               "sequence number, which lives in the transport and restarts "
               "at zero in a resumed session, so the resumed run would "
               "silently diverge");
}

void FederationEngine::save_checkpoint(std::ostream& os) const {
  check_resumable();
  write_pod(os, kCheckpointMagic);
  write_pod(os, kCheckpointVersion);
  // Compatibility fingerprint: restoring into a session with a different
  // fleet/dataset/seed/strategy would silently diverge, so fail loudly.
  write_pod<std::uint64_t>(os, cfg_.seed);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(fleet_.size()));
  write_string(os, strategy_->name());

  costs_.save(os);
  selector_->save_state(os);
  write_pod(os, rng_.state());
  write_pod<std::int32_t>(os, round_);
  write_pod<std::uint64_t>(os, history_.size());
  for (const auto& rec : history_) write_record(os, rec);

  strategy_->save_state(os);
  FT_CHECK_MSG(os.good(), "checkpoint write failed");
}

void FederationEngine::load_checkpoint(std::istream& is) {
  check_resumable();
  // All-or-nothing: a read can fail after earlier blocks were already
  // restored, so snapshot the live session first and put it back on error.
  std::stringstream before;
  save_checkpoint(before);
  try {
    read_checkpoint(is);
  } catch (...) {
    read_checkpoint(before);
    throw;
  }
}

void FederationEngine::read_checkpoint(std::istream& is) {
  FT_CHECK_MSG(read_pod<std::uint64_t>(is) == kCheckpointMagic,
               "not a FedTrans checkpoint");
  FT_CHECK_MSG(read_pod<std::uint32_t>(is) == kCheckpointVersion,
               "unsupported checkpoint version");
  FT_CHECK_MSG(read_pod<std::uint64_t>(is) == cfg_.seed,
               "checkpoint was written with a different seed");
  FT_CHECK_MSG(read_pod<std::uint32_t>(is) == fleet_.size(),
               "checkpoint was written with a different fleet");
  const std::string name = read_string(is);
  FT_CHECK_MSG(name == strategy_->name(),
               "checkpoint was written by strategy '"
                   << name << "', not '" << strategy_->name() << "'");

  costs_.load(is);
  selector_->load_state(is);
  rng_.set_state(read_pod<std::array<std::uint64_t, 4>>(is));
  round_ = read_pod<std::int32_t>(is);
  const auto n_hist = read_pod<std::uint64_t>(is);
  FT_CHECK_MSG(n_hist <= stream_remaining(is) / kMinRecordBytes,
               "checkpoint history count exceeds remaining stream");
  history_.clear();
  history_.reserve(static_cast<std::size_t>(n_hist));
  for (std::uint64_t i = 0; i < n_hist; ++i)
    history_.push_back(read_record(is));

  strategy_->load_state(is);
}

}  // namespace fedtrans
