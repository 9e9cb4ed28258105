#ifndef STREAMSC_INSTANCE_HARD_SET_COVER_H_
#define STREAMSC_INSTANCE_HARD_SET_COVER_H_

#include <cstdint>
#include <vector>

#include "instance/disj_distribution.h"
#include "instance/set_system.h"
#include "util/random.h"

/// \file hard_set_cover.h
/// The hard input distribution D_SC for the streaming/communication set
/// cover lower bound (paper, Section 3.1), and its randomly-partitioned
/// variant D_SC^rnd (Section 3.3).
///
/// Construction, for parameters n, m, α and t = t_scale·(n/log m)^{1/α}:
///   * for each i ∈ [m]: (A_i, B_i) ~ D^N_Disj over [t], f_i a random
///     mapping-extension of [t] to [n];
///     S_i := [n] \ f_i(A_i),  T_i := [n] \ f_i(B_i);
///   * θ ∈R {0,1}; if θ = 1, resample (A_i⋆, B_i⋆) ~ D^Y_Disj for a random
///     i⋆ and rebuild S_i⋆, T_i⋆.
/// When θ = 1, {S_i⋆, T_i⋆} covers [n] (opt = 2). When θ = 0, every pair
/// S_i ∪ T_i misses the block f_i(A_i ∩ B_i) and Lemma 3.2 shows
/// opt > 2α w.h.p.
///
/// The paper's t_scale = 2^-15 exists for proof headroom; callers choose a
/// t_scale that keeps t >= 2 at laptop scale (bench_a3_tscale_regime
/// locates the regime boundary such a choice must respect).

namespace streamsc {

/// Parameters of D_SC.
struct HardSetCoverParams {
  std::size_t n = 1024;    ///< Universe size.
  std::size_t m = 64;      ///< Number of (S_i, T_i) pairs; 2m sets total.
  double alpha = 2.0;      ///< Approximation factor targeted by the bound.
  double t_scale = 1.0;    ///< Constant in t = t_scale·(n/log m)^{1/α}.
};

/// One sampled D_SC instance with its latent variables.
struct HardSetCoverInstance {
  HardSetCoverParams params;
  std::size_t t = 0;        ///< Disj universe size actually used.
  int theta = 0;            ///< Latent θ (1 = planted size-2 cover).
  SetId i_star = kInvalidSetId;  ///< Planted index (valid iff theta == 1).

  /// Alice's sets S_0..S_{m-1} and Bob's sets T_0..T_{m-1}, over [n].
  std::vector<DynamicBitset> s_sets;
  std::vector<DynamicBitset> t_sets;

  /// The underlying Disj instances (over [t]); kept for tests and for the
  /// communication reductions.
  std::vector<DisjInstance> disj;

  /// All 2m sets as one system: ids [0, m) are S_i, ids [m, 2m) are T_i.
  SetSystem ToSetSystem() const;

  /// Number of pairs m.
  std::size_t m() const { return s_sets.size(); }

  /// True iff sets S_i and T_j (by combined ids in [0, 2m)) form the
  /// planted pair.
  bool IsPlantedPair(SetId combined_s, SetId combined_t) const;
};

/// Sampler for D_SC.
class HardSetCoverDistribution {
 public:
  explicit HardSetCoverDistribution(HardSetCoverParams params);

  const HardSetCoverParams& params() const { return params_; }

  /// The Disj universe size t implied by the parameters.
  std::size_t DisjT() const { return t_; }

  /// Samples a full instance (θ mixed fairly).
  HardSetCoverInstance Sample(Rng& rng) const;

  /// Samples conditioned on θ = 0 (no planted cover; opt large w.h.p.).
  HardSetCoverInstance SampleThetaZero(Rng& rng) const;

  /// Samples conditioned on θ = 1 (planted size-2 cover at random i⋆).
  HardSetCoverInstance SampleThetaOne(Rng& rng) const;

 private:
  HardSetCoverInstance SampleWithTheta(Rng& rng, int theta) const;

  HardSetCoverParams params_;
  std::size_t t_;
  DisjDistribution disj_dist_;
};

/// A random two-player partition of a D_SC instance (distribution D_SC^rnd,
/// Section 3.3): each of the 2m sets goes to Alice w.p. 1/2, else to Bob.
/// Ids refer to HardSetCoverInstance::ToSetSystem() numbering.
struct RandomPartition {
  std::vector<SetId> alice;
  std::vector<SetId> bob;

  /// Indices i ∈ [m] whose S_i and T_i landed on *different* players
  /// ("good" indices in the proof of Lemma 3.7).
  std::vector<SetId> good_indices;
};

/// Samples the D_SC^rnd partition of \p instance.
RandomPartition SampleRandomPartition(const HardSetCoverInstance& instance,
                                      Rng& rng);

}  // namespace streamsc

#endif  // STREAMSC_INSTANCE_HARD_SET_COVER_H_
