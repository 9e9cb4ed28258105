#ifndef STREAMSC_CORE_HAR_PELED_SET_COVER_H_
#define STREAMSC_CORE_HAR_PELED_SET_COVER_H_

#include <cstdint>
#include <string>

#include "core/guess_driver.h"
#include "stream/stream_algorithm.h"
#include "util/random.h"

/// \file har_peled_set_cover.h
/// Baseline: a Har-Peled et al. (PODS 2016)-style α-approximation with
/// *iterative* pruning and the looser element-sampling rate the paper
/// attributes to it (space exponent Θ(1/α) with constant c >= 2, versus
/// Assadi's exactly 1/α — Section 3.4: "we obtain our improved algorithm
/// by using a one-shot pruning step as opposed to the iterative pruning of
/// [32], and employing a more careful element sampling").
///
/// Structure per iteration (ceil(α/2) iterations, reducing the uncovered
/// set by ~n^{2/α} each):
///   1. pruning pass: take every set covering >= |U| / (2·õpt) uncovered
///      elements;
///   2. sampling pass: store projections at rate with ρ = n^{-2/α}
///      (so the stored sample is ~n^{2/α}·õpt·log m — the c = 2 exponent);
///   3. solve the sub-instance optimally; subtraction pass.
/// This is a faithful re-implementation *in spirit* of the comparator: the
/// original is not open source, so the steps above follow its published
/// description, with the same exact sub-solver and passes as Algorithm 1.

namespace streamsc {

/// Configuration of the Har-Peled-style baseline.
struct HarPeledConfig {
  std::size_t alpha = 2;          ///< Target approximation factor.
  double sampling_boost = 1.0;    ///< Multiplier on the sampling rate.
  std::uint64_t seed = 1;
  std::uint64_t exact_node_budget = 20'000'000;
  std::size_t known_opt = 0;      ///< If > 0, use as õpt (no guessing).
};

/// The iterative-pruning baseline algorithm.
class HarPeledSetCover : public StreamingSetCoverAlgorithm {
 public:
  explicit HarPeledSetCover(HarPeledConfig config);

  std::string name() const override;

  using StreamingSetCoverAlgorithm::Run;

  /// The engine in \p context (if any) shards the pruning and projection
  /// passes; bit-identical results for any thread count.
  SetCoverRunResult Run(SetStream& stream,
                        const RunContext& context) override;

  /// Single-guess core (within budget means ≤ (α+1)·õpt sets); exposed
  /// for the comparison benches.
  GuessResult RunWithGuess(SetStream& stream, std::size_t opt_guess,
                           Rng& rng, const RunContext& context = {}) const;

 private:
  HarPeledConfig config_;
};

}  // namespace streamsc

#endif  // STREAMSC_CORE_HAR_PELED_SET_COVER_H_
