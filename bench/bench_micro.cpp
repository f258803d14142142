// Micro-benchmarks (google-benchmark) for the hot paths of the dependence
// analysis: the pairwise oracle, region-tree structural queries, the
// 128-bit call hashing of the determinism checker (one small call, and the
// 1024-rect create_partition signature), the Philox RNG, the
// interval index (with and without a whole-domain entry), simulator event
// merges, and raw DEPrep transition throughput.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "analysis/random_program.hpp"
#include "analysis/semantics.hpp"
#include "common/hash128.hpp"
#include "common/philox.hpp"
#include "dcr/sig.hpp"
#include "runtime/interval_index.hpp"
#include "runtime/region.hpp"
#include "runtime/requirement.hpp"
#include "sim/event.hpp"

namespace dcr {
namespace {

struct ForestFixture {
  rt::RegionForest forest;
  FieldSpaceId fs;
  FieldId f;
  RegionTreeId tree;
  PartitionId owned, ghost;

  explicit ForestFixture(std::size_t tiles = 64) {
    fs = forest.create_field_space();
    f = forest.allocate_field(fs, 8, "f");
    tree = forest.create_tree(rt::Rect::r1(0, static_cast<std::int64_t>(tiles) * 1000 - 1), fs);
    owned = forest.partition_equal(forest.root(tree), tiles);
    ghost = forest.partition_with_halo(forest.root(tree), tiles, 1);
  }
};

void BM_OraclePairwiseConflict(benchmark::State& state) {
  ForestFixture fx;
  const rt::Requirement a{fx.forest.subregion(fx.owned, 3), {fx.f},
                          rt::Privilege::ReadWrite, 0};
  const rt::Requirement b{fx.forest.subregion(fx.ghost, 4), {fx.f},
                          rt::Privilege::ReadOnly, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::requirements_conflict(fx.forest, a, b));
  }
}
BENCHMARK(BM_OraclePairwiseConflict);

void BM_StructurallyDisjoint(benchmark::State& state) {
  ForestFixture fx;
  const IndexSpaceId a = fx.forest.subregion(fx.owned, 3);
  const IndexSpaceId b = fx.forest.subregion(fx.owned, 40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.forest.structurally_disjoint(a, b));
  }
}
BENCHMARK(BM_StructurallyDisjoint);

void BM_LowestCommonRegion(benchmark::State& state) {
  ForestFixture fx;
  const IndexSpaceId a = fx.forest.subregion(fx.owned, 3);
  const IndexSpaceId b = fx.forest.subregion(fx.ghost, 40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.forest.lowest_common_region(a, b));
  }
}
BENCHMARK(BM_LowestCommonRegion);

void BM_ApiCallHash(benchmark::State& state) {
  // The per-call work of the control-determinism checker (paper §3).
  std::uint64_t arg = 0;
  for (auto _ : state) {
    Hasher128 h;
    h.string("index_launch").value(arg++).value(std::uint32_t{7}).value(std::uint8_t{2});
    benchmark::DoNotOptimize(h.finish());
  }
}
BENCHMARK(BM_ApiCallHash);

void BM_CreatePartitionSig(benchmark::State& state) {
  // The widest §3 call of the stencil: create_partition with one rect per
  // tile, capture off, as every shard's front end builds it.  On the
  // simulator all N shards hash it on one host thread, so it costs O(N^2).
  const auto n = static_cast<std::int64_t>(state.range(0));
  std::vector<rt::Rect> pieces;
  for (std::int64_t i = 0; i < n; ++i) pieces.push_back(rt::Rect::r1(i * 100, i * 100 + 99));
  for (auto _ : state) {
    core::SigBuilder sb = core::sig_create_partition(false, IndexSpaceId(1), pieces, true);
    benchmark::DoNotOptimize(sb.finish());
    benchmark::DoNotOptimize(sb.tfinish());
  }
  state.SetItemsProcessed(state.iterations() * n);  // items = rects
}
BENCHMARK(BM_CreatePartitionSig)->Arg(64)->Arg(1024);

void BM_PhiloxBlock(benchmark::State& state) {
  Philox4x32::Counter ctr{1, 2, 3, 4};
  const Philox4x32::Key key{5, 6};
  for (auto _ : state) {
    ctr[0]++;
    benchmark::DoNotOptimize(Philox4x32::block(ctr, key));
  }
}
BENCHMARK(BM_PhiloxBlock);

void BM_IntervalIndexQuery(benchmark::State& state) {
  // A 150-cell query over n disjoint 100-cell pieces.  With the second arg
  // set, one whole-domain entry (a region-wide fill or reduction) is present
  // too, as in the trackers of the circuit and stencil workloads.
  rt::IntervalIndex<int> index;
  const std::int64_t n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    index.insert(rt::Rect::r1(i * 100, i * 100 + 99), static_cast<int>(i));
  }
  if (state.range(1) != 0) index.insert(rt::Rect::r1(0, n * 100 - 1), -1);
  std::int64_t q = 0;
  for (auto _ : state) {
    int hits = 0;
    index.for_each_overlapping(rt::Rect::r1(q % (n * 100), q % (n * 100) + 150),
                               [&](const auto&) { ++hits; });
    benchmark::DoNotOptimize(hits);
    q += 137;
  }
}
BENCHMARK(BM_IntervalIndexQuery)->ArgsProduct({{64, 1024, 16384}, {0, 1}});

void BM_MergeEvents(benchmark::State& state) {
  // The life of one fine-stage precondition: n pending inputs merged, a
  // waiter on the merge, then every input triggers.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::UserEvent> inputs(n);
  std::vector<sim::Event> handles(n);
  SimTime now = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      inputs[i] = sim::UserEvent();
      handles[i] = inputs[i];
    }
    int fired = 0;
    sim::merge_events(std::span<const sim::Event>(handles)).on_trigger([&] { ++fired; });
    ++now;
    for (const sim::UserEvent& e : inputs) e.trigger(now);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));  // items = inputs
}
BENCHMARK(BM_MergeEvents)->Arg(2)->Arg(8)->Arg(32);

void BM_DepRepAnalysis(benchmark::State& state) {
  // Raw DEPrep transition throughput over a random program (Section 2
  // semantics), the formal core of the paper.
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  an::RandomProgramConfig cfg;
  cfg.num_groups = 24;
  Philox4x32 gen(7, 1);
  an::RandomProgram rp = an::generate_random_program(cfg, gen);
  const an::AProgram sharded = an::apply_cyclic_sharding(rp.program, shards);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Philox4x32 rng(seed++);
    benchmark::DoNotOptimize(an::analyze_replicated(sharded, shards, rp.oracle, rng));
  }
}
BENCHMARK(BM_DepRepAnalysis)->Arg(1)->Arg(4)->Arg(16);

void BM_SequentialAnalysis(benchmark::State& state) {
  an::RandomProgramConfig cfg;
  cfg.num_groups = 24;
  Philox4x32 gen(7, 1);
  an::RandomProgram rp = an::generate_random_program(cfg, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(an::analyze_sequential(rp.program, rp.oracle));
  }
}
BENCHMARK(BM_SequentialAnalysis);

}  // namespace
}  // namespace dcr

BENCHMARK_MAIN();
