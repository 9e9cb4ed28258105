#include "core/sampling.h"

#include <utility>

#include "util/space_meter.h"

namespace streamsc {

namespace {

const SpaceCategory kProjectionsCat("projections");

}  // namespace

using Word = DynamicBitset::Word;

SubUniverse::SubUniverse(const DynamicBitset& sampled,
                         ArenaAllocator<ElementId> alloc)
    : full_size_(sampled.size()),
      sample_to_full_(alloc),
      sampled_words_(ArenaAllocator<Word>(alloc)),
      word_rank_(ArenaAllocator<std::uint32_t>(alloc)),
      gather_(ArenaAllocator<GatherBlock>(alloc)) {
  sample_to_full_.reserve(static_cast<std::size_t>(sampled.CountSet()));
  sampled.ForEach([&](ElementId e) { sample_to_full_.push_back(e); });
  // Gather plan + rank structure: sampled elements are re-indexed in
  // increasing full-id order, so the sampled bits of each source word
  // land at consecutive output positions starting at the number of
  // sampled elements before that word (its rank).
  sampled_words_.assign(sampled.WordData(),
                        sampled.WordData() + sampled.WordCount());
  word_rank_.resize(sampled.WordCount());
  PrefixPopcountWords(sampled_words_.data(), sampled_words_.size(),
                      word_rank_.data());
  for (std::size_t w = 0; w < sampled_words_.size(); ++w) {
    if (sampled_words_[w] == 0) continue;
    gather_.push_back({static_cast<std::uint32_t>(w), word_rank_[w],
                       sampled_words_[w]});
  }
}

DynamicBitset SubUniverse::Project(SetView full_set,
                                   DynamicBitset::Allocator alloc) const {
  DynamicBitset out(sample_to_full_.size(), alloc);
  if (full_set.is_dense_rep()) {
    GatherWords(full_set.dense_span().WordData(), gather_.data(),
                gather_.size(), out.MutableWordData());
    return out;
  }
  const SparseSpan span = full_set.sparse_span();
  RankMembersToBits(span.elements(), static_cast<std::size_t>(span.CountSet()),
                    sampled_words_.data(), word_rank_.data(),
                    out.MutableWordData());
  return out;
}

ProjectedSet SubUniverse::ProjectAdaptive(SetView full_set,
                                          ArenaAllocator<ElementId> alloc)
    const {
  if (full_set.is_dense_rep()) {
    return Project(full_set, DynamicBitset::Allocator(alloc));
  }
  // O(k) rank lookups, independent of both n and the sample size. Source
  // ids are sorted and full -> sample rank is monotone, so the sample ids
  // come out strictly increasing and in range, and the per-item hot path
  // can skip the release-mode re-validation.
  const SparseSpan span = full_set.sparse_span();
  ArenaVector<ElementId> projected(static_cast<std::size_t>(span.CountSet()),
                                   alloc);
  projected.resize(RankMembers(span.elements(), projected.size(),
                               sampled_words_.data(), word_rank_.data(),
                               projected.data()));
  return SparseSet::FromSortedIndicesUnchecked(sample_to_full_.size(),
                                               std::move(projected));
}

SetId StoreProjection(SetSystem& system, ProjectedSet projection) {
  return std::visit(
      [&](auto&& set) { return system.AddSet(std::move(set)); },
      std::move(projection));
}

SetView ViewOf(const ProjectedSet& projection) {
  return std::visit([](const auto& set) { return SetView(set); }, projection);
}

DynamicBitset SampleElements(const DynamicBitset& universe, double rate,
                             Rng& rng, DynamicBitset::Allocator alloc) {
  // Rng::BernoulliSubsample owns the documented [0,1]/NaN clamp.
  return rng.BernoulliSubsample(universe, rate, alloc);
}

StoredProjections StoreProjectionPass(EngineContext& ctx,
                                      const SubUniverse& sub,
                                      MonotonicArena* arena,
                                      ArenaAllocator<SetId> id_alloc) {
  StoredProjections stored{
      SetSystem(sub.size(), SetSystem::kDefaultSparsityThreshold, arena),
      ArenaVector<SetId>(id_alloc)};
  stored.ids.reserve(ctx.stream().num_sets());
  ctx.TransformPass<ProjectedSet>(
      [&](const StreamItem& it) {
        return sub.ProjectAdaptive(it.set,
                                   ArenaAllocator<ElementId>::Scratch());
      },
      [&](const StreamItem& it, ProjectedSet proj) {
        const SetId pid = StoreProjection(stored.sets, std::move(proj));
        ctx.meter().Charge(stored.sets.SetBytes(pid) + sizeof(SetId),
                           kProjectionsCat);
        stored.ids.push_back(it.id);
      });
  return stored;
}

}  // namespace streamsc
