#ifndef STREAMSC_CORE_ASSADI_SET_COVER_H_
#define STREAMSC_CORE_ASSADI_SET_COVER_H_

#include <cstdint>
#include <string>

#include "core/guess_driver.h"
#include "stream/stream_algorithm.h"
#include "util/random.h"

/// \file assadi_set_cover.h
/// Algorithm 1 of the paper (Theorem 2): an (α+ε)-approximation streaming
/// set cover algorithm making (2α+1) passes in Õ(m·n^{1/α}/ε² + n/ε)
/// space. It refines Har-Peled et al. (PODS 2016) via (i) a *one-shot*
/// pruning pass that removes all sets covering ≥ n/(ε·õpt) uncovered
/// elements up front, and (ii) element sampling at rate
/// 16·õpt·log m / n^{1-1/α} per iteration (Lemma 3.12 with ρ = n^{-1/α}),
/// exploiting that each sub-instance is fully coverable.
///
/// Given a guess õpt of the optimum:
///   pass 0      : one-shot pruning (adds ≤ ε·õpt sets).
///   α iterations: sample U_smpl ⊆ U; one pass storing projections
///                 S'_i = S_i ∩ U_smpl; solve the sub-instance *optimally*
///                 offline (unbounded computation is allowed in this
///                 model); one pass subtracting the chosen sets from U.
/// Total: 2α+1 passes, ≤ (α+ε)·õpt sets, and U shrinks by ~n^{1/α} per
/// iteration w.h.p. (Lemma 3.11).
///
/// The driver runs O(log n / ε) geometric guesses (core/guess_driver.h,
/// which also notes how its pass count departs from the paper's).

namespace streamsc {

/// Configuration of Algorithm 1.
struct AssadiConfig {
  std::size_t alpha = 2;        ///< Target approximation factor α >= 1.
  double epsilon = 0.5;         ///< Slack ε > 0 in (α+ε).
  double sampling_boost = 1.0;  ///< Multiplier on the Lemma 3.12 rate
                                ///< (benches sweep this to locate the
                                ///< space threshold; 1.0 = paper).
  std::uint64_t seed = 1;       ///< Seed for the element sampling.
  std::uint64_t exact_node_budget = 20'000'000;  ///< Sub-solver budget.
  bool use_exact_subsolver = true;  ///< Step 3c sub-solver: the paper's
                                    ///< *optimal* solve (true) or plain
                                    ///< greedy (false) — the A2 ablation.
  bool ensure_feasible = true;  ///< Add a cleanup pass if a residue of U
                                ///< survives the α iterations (the paper's
                                ///< "always return a feasible solution").
  std::size_t known_opt = 0;    ///< If > 0, skip guessing and use this õpt.
};

/// Algorithm 1 with the geometric-guess driver.
class AssadiSetCover : public StreamingSetCoverAlgorithm {
 public:
  explicit AssadiSetCover(AssadiConfig config);

  std::string name() const override;

  using StreamingSetCoverAlgorithm::Run;

  /// Runs the full driver (guessing õpt unless config.known_opt is set).
  /// The engine in \p context (if any) shards the pruning and projection
  /// passes; results are bit-identical for any thread count.
  SetCoverRunResult Run(SetStream& stream,
                        const RunContext& context) override;

  /// Runs the (2α+1)-pass core for one guess õpt; within budget means
  /// ≤ (α+ε)·õpt sets. Exposed for the benches that study the per-guess
  /// space/pass behaviour (Theorem 2's headline). With
  /// use_exact_subsolver=false, a non-null \p memo (the one RunGuesses
  /// shares across guesses) lets saturated steps reuse an earlier
  /// guess's greedy sub-solve; the exact sub-solve never uses it.
  GuessResult RunWithGuess(SetStream& stream, std::size_t opt_guess,
                           Rng& rng, const RunContext& context = {},
                           SubsolveMemo* memo = nullptr) const;

  const AssadiConfig& config() const { return config_; }

 private:
  AssadiConfig config_;
};

}  // namespace streamsc

#endif  // STREAMSC_CORE_ASSADI_SET_COVER_H_
