#ifndef STREAMSC_CORE_DEMAINE_SET_COVER_H_
#define STREAMSC_CORE_DEMAINE_SET_COVER_H_

#include <cstdint>
#include <string>

#include "core/guess_driver.h"
#include "stream/stream_algorithm.h"
#include "util/random.h"

/// \file demaine_set_cover.h
/// The Demaine-Indyk-Mahabadi-Vakilian (DISC 2014) baseline the paper
/// compares against: an α-approximation in O(α) passes and
/// Õ(m·n^{Θ(1/log α)}) space.
///
/// Structure (their Theorem: 4^{1/δ}-approximation with Õ(m·n^δ) space,
/// i.e. space exponent δ = Θ(1/log α) for approximation α): each phase
/// samples the residual universe at a rate proportional to n^δ/|U|·õpt,
/// stores the projections, covers the sample with *greedy* (their
/// sub-solver; the α factor is greedy's multiplicative loss compounded
/// over phases), and subtracts the chosen sets. Compared to Algorithm 1
/// (Theorem 2 of the paper) the sampling exponent is exponentially coarser
/// in α — the gap between n^{Θ(1/log α)} and n^{1/α} is exactly what
/// Theorems 1 + 2 close.
///
/// As with the other baselines, constants are calibrated, not copied:
/// DIMV'14's code is not public, so this re-implementation reproduces the
/// pass structure, the sub-solver choice (greedy, not exact), and the
/// space exponent — the three attributes the paper's comparison rests on.

namespace streamsc {

/// Configuration of the DIMV'14-style baseline.
struct DemaineConfig {
  std::size_t alpha = 4;        ///< Target approximation factor (>= 2).
  double sampling_boost = 1.0;  ///< Multiplier on the phase sampling rate.
  std::uint64_t seed = 1;       ///< Seed for element sampling.
  std::size_t known_opt = 0;    ///< If > 0, skip guessing and use this õpt.
  bool ensure_feasible = true;  ///< Cleanup pass if a residue survives.
};

/// DIMV'14-style α-approximation: O(α) passes, Õ(m·n^{Θ(1/log α)}) space.
class DemaineSetCover : public StreamingSetCoverAlgorithm {
 public:
  explicit DemaineSetCover(DemaineConfig config);

  std::string name() const override;

  using StreamingSetCoverAlgorithm::Run;

  /// Full driver (geometric õpt guesses unless config.known_opt is set).
  /// The engine in \p context (if any) shards the projection passes;
  /// bit-identical results for any thread count.
  SetCoverRunResult Run(SetStream& stream,
                        const RunContext& context) override;

  /// Single-guess core (within budget means ≤ α·õpt sets); exposed for
  /// the per-guess space benches. A non-null \p memo (the one RunGuesses
  /// shares across guesses) lets saturated phases reuse an earlier
  /// guess's greedy sub-solve.
  GuessResult RunWithGuess(SetStream& stream, std::size_t opt_guess,
                           Rng& rng, const RunContext& context = {},
                           SubsolveMemo* memo = nullptr) const;

  /// The space exponent δ = ln 4 / ln α this configuration targets
  /// (clamped to (0, 1]); stored sample sizes scale as n^δ.
  double SpaceExponent() const;

  const DemaineConfig& config() const { return config_; }

 private:
  DemaineConfig config_;
};

}  // namespace streamsc

#endif  // STREAMSC_CORE_DEMAINE_SET_COVER_H_
