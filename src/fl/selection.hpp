#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace fedtrans {

/// Uniformly select k distinct clients from [0, population): full shuffle +
/// truncate. The single selection helper behind UniformSelector, every
/// strategy's ad-hoc draws and the engine's eval probes — all consume the
/// Rng identically, so historical runs replay bit-exactly.
std::vector<int> uniform_select(int population, int k, Rng& rng);

/// Pluggable participant selection. The paper's protocol samples
/// participants uniformly (FedScale's default); Oort-style guided selection
/// (Lai et al., OSDI'21 — cited in the paper's related work) is provided as
/// an extension and exercised by the selection ablation bench.
class ClientSelector {
 public:
  virtual ~ClientSelector() = default;

  /// Choose k distinct clients from [0, population).
  virtual std::vector<int> select(int population, int k, Rng& rng) = 0;

  /// Feedback after a round: the loss each selected client reported and how
  /// many samples it trained on. Default: selection is stateless.
  virtual void report(int /*client*/, double /*loss*/, int /*samples*/) {}

  virtual std::string name() const = 0;

  /// Serialize/restore internal state for checkpointing (stateless
  /// selectors write/read nothing).
  virtual void save_state(std::ostream&) const {}
  virtual void load_state(std::istream&) {}
};

/// Uniform-without-replacement selection (the FedScale / paper default).
class UniformSelector : public ClientSelector {
 public:
  std::vector<int> select(int population, int k, Rng& rng) override;
  std::string name() const override { return "uniform"; }
};

/// Oort-like guided selection: clients carry a statistical utility
/// |loss| · sqrt(samples); each round the top (1−ε) fraction by utility is
/// exploited and an ε fraction is explored uniformly among never-or-rarely
/// seen clients. A staleness bonus keeps long-unselected clients from
/// starving (Lai et al. use a confidence interval term; the sqrt-staleness
/// bonus here preserves that behaviour at simulation scale).
class OortSelector : public ClientSelector {
 public:
  struct Options {
    double epsilon = 0.2;          // exploration fraction
    double staleness_bonus = 0.1;  // weight of the sqrt(rounds-since-seen)
  };

  OortSelector() : OortSelector(Options{0.2, 0.1}) {}
  explicit OortSelector(Options opts) : opts_(opts) {}

  std::vector<int> select(int population, int k, Rng& rng) override;
  void report(int client, double loss, int samples) override;
  std::string name() const override { return "oort"; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  double utility(int client) const;

 private:
  void ensure_size(int population);

  Options opts_;
  std::vector<double> utility_;    // statistical utility per client
  std::vector<int> last_round_;    // last round the client was selected
  std::vector<bool> explored_;     // ever selected
  int round_ = 0;
};

/// Power-of-choice (π_pow-d): sample a candidate pool of d·k clients
/// uniformly, then keep the k with the highest reported loss (biases toward
/// clients the model fits worst, accelerating convergence on skewed data).
class PowerOfChoiceSelector : public ClientSelector {
 public:
  explicit PowerOfChoiceSelector(int candidate_factor = 3)
      : factor_(candidate_factor) {}

  std::vector<int> select(int population, int k, Rng& rng) override;
  void report(int client, double loss, int samples) override;
  std::string name() const override { return "pow-d"; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  int factor_;
  std::vector<double> last_loss_;
};

enum class SelectorKind { Uniform, Oort, PowerOfChoice };

std::unique_ptr<ClientSelector> make_selector(SelectorKind kind);

}  // namespace fedtrans
