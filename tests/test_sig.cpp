// Unit tests for dcr/sig.hpp: the per-API §3 call-identity encoders.
//
// SigBuilder hashes each argument once into a lane shared by the §3 hash and
// the template-identity hash, splitting them at the first volatile argument.
// These tests pin that the result equals hashing the two lanes separately,
// that capture changes no hash, and that the captured names are stable.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "dcr/sig.hpp"

namespace dcr::core {
namespace {

rt::Requirement req(std::uint32_t region, std::vector<FieldId> fields, rt::Privilege p,
                    rt::ReductionOpId redop = rt::kNoRedop) {
  rt::Requirement r;
  r.region = IndexSpaceId(region);
  r.fields = std::move(fields);
  r.privilege = p;
  r.redop = redop;
  return r;
}

TaskLaunch sample_launch(std::int64_t arg0) {
  TaskLaunch l;
  l.fn = FunctionId(5);
  l.requirements = {req(2, {FieldId(0), FieldId(3)}, rt::Privilege::ReadWrite),
                    req(4, {FieldId(1)}, rt::Privilege::Reduce, 1)};
  l.args = {arg0, -7};
  return l;
}

IndexLaunch sample_index_launch(std::int64_t arg0) {
  IndexLaunch l;
  l.fn = FunctionId(9);
  l.domain = rt::Rect::r2(0, 7, 0, 3);
  l.sharding = ShardingId(2);
  rt::GroupRequirement g;
  g.partition = PartitionId(6);
  g.projection = ProjectionId(1);
  g.fields = {FieldId(2)};
  g.privilege = rt::Privilege::ReadOnly;
  l.requirements = {g};
  l.args = {arg0};
  return l;
}

std::vector<rt::Rect> sample_pieces() {
  return {rt::Rect::r1(0, 9), rt::Rect::r1(10, 19), rt::Rect::r1(20, 29)};
}

// Every sig_* helper, as a function of the capture flag.
using SigFn = std::function<SigBuilder(bool)>;
struct NamedSig {
  const char* name;
  SigFn make;
  bool has_varg;
};

std::vector<NamedSig> all_sigs() {
  const std::vector<FieldId> fields{FieldId(1), FieldId(4)};
  return {
      {"create_field_space", [](bool c) { return sig_create_field_space(c); }, false},
      {"allocate_field",
       [](bool c) { return sig_allocate_field(c, FieldSpaceId(1), 8, "f"); }, false},
      {"create_region",
       [](bool c) { return sig_create_region(c, rt::Rect::r1(0, 99), FieldSpaceId(1)); }, false},
      {"partition_equal",
       [](bool c) { return sig_partition_equal(c, IndexSpaceId(3), 4, 0); }, false},
      {"partition_with_halo",
       [](bool c) { return sig_partition_with_halo(c, IndexSpaceId(3), 4, 1, 0); }, false},
      {"create_partition",
       [](bool c) { return sig_create_partition(c, IndexSpaceId(3), sample_pieces(), true); },
       false},
      {"partition_grid",
       [](bool c) { return sig_partition_grid(c, IndexSpaceId(3), 2, 2, 1); }, false},
      {"destroy_region", [](bool c) { return sig_destroy_region(c, RegionTreeId(1)); }, false},
      {"fill", [fields](bool c) { return sig_fill(c, IndexSpaceId(3), fields); }, false},
      {"launch", [](bool c) { return sig_launch(c, sample_launch(11)); }, true},
      {"index_launch", [](bool c) { return sig_index_launch(c, sample_index_launch(11)); },
       true},
      {"reduce_future_map",
       [](bool c) { return sig_reduce_future_map(c, FutureMap{12}, ReduceOp::Max); }, true},
      {"get_future", [](bool c) { return sig_get_future(c, Future{13}); }, true},
      {"future_is_ready", [](bool c) { return sig_future_is_ready(c, Future{13}); }, true},
      {"execution_fence", [](bool c) { return sig_execution_fence(c); }, false},
      {"attach_file",
       [fields](bool c) { return sig_attach_file(c, IndexSpaceId(3), fields, "x.dat"); },
       false},
      {"detach_file",
       [fields](bool c) { return sig_detach_file(c, IndexSpaceId(3), fields); }, false},
      {"attach_file_group",
       [fields](bool c) { return sig_attach_file_group(c, PartitionId(2), fields, "x"); },
       false},
      {"detach_file_group",
       [fields](bool c) { return sig_detach_file_group(c, PartitionId(2), fields); }, false},
      {"begin_trace", [](bool c) { return sig_begin_trace(c, TraceId(1)); }, false},
      {"end_trace", [](bool c) { return sig_end_trace(c, TraceId(1)); }, false},
  };
}

TEST(SigBuilder, CaptureChangesNoHash) {
  for (const NamedSig& s : all_sigs()) {
    const SigBuilder off = s.make(false);
    const SigBuilder on = s.make(true);
    EXPECT_EQ(off.finish(), on.finish()) << s.name;
    EXPECT_EQ(off.tfinish(), on.tfinish()) << s.name;
  }
}

TEST(SigBuilder, CallWithoutVolatileArgsHasEqualHashes) {
  for (const NamedSig& s : all_sigs()) {
    const SigBuilder sb = s.make(false);
    if (s.has_varg) {
      EXPECT_NE(sb.tfinish(), sb.finish()) << s.name;
    } else {
      EXPECT_EQ(sb.tfinish(), sb.finish()) << s.name;
    }
  }
  TaskLaunch no_args = sample_launch(0);
  no_args.args.clear();
  const SigBuilder sb = sig_launch(false, no_args);
  EXPECT_EQ(sb.tfinish(), sb.finish());
}

TEST(SigBuilder, VolatileArgChangesOnlyTheCallHash) {
  const auto expect_volatile = [](const SigBuilder& a, const SigBuilder& b, const char* what) {
    EXPECT_NE(a.finish(), b.finish()) << what;
    EXPECT_EQ(a.tfinish(), b.tfinish()) << what;
  };
  expect_volatile(sig_launch(false, sample_launch(1)), sig_launch(false, sample_launch(2)),
                  "task scalar");
  expect_volatile(sig_index_launch(false, sample_index_launch(1)),
                  sig_index_launch(false, sample_index_launch(2)), "index task scalar");
  expect_volatile(sig_get_future(false, Future{1}), sig_get_future(false, Future{2}),
                  "future id");
  expect_volatile(sig_future_is_ready(false, Future{1}), sig_future_is_ready(false, Future{2}),
                  "future id (poll)");
  expect_volatile(sig_reduce_future_map(false, FutureMap{1}, ReduceOp::Sum),
                  sig_reduce_future_map(false, FutureMap{2}, ReduceOp::Sum), "future-map id");
  // A non-volatile argument after the split still reaches both hashes.
  const SigBuilder sum = sig_reduce_future_map(false, FutureMap{1}, ReduceOp::Sum);
  const SigBuilder max = sig_reduce_future_map(false, FutureMap{1}, ReduceOp::Max);
  EXPECT_NE(sum.finish(), max.finish());
  EXPECT_NE(sum.tfinish(), max.tfinish());
}

TEST(SigBuilder, SharedLaneEqualsHashingEachLaneSeparately) {
  // reduce_future_map: a volatile argument first, then a non-volatile one.
  {
    Hasher128 h, t;
    h.string("reduce_future_map").value(std::uint64_t{12}).value(std::uint8_t{2});
    t.string("reduce_future_map").value(std::uint8_t{2});
    const SigBuilder sb = sig_reduce_future_map(false, FutureMap{12}, ReduceOp::Max);
    EXPECT_EQ(sb.finish(), h.finish());
    EXPECT_EQ(sb.tfinish(), t.finish());
  }
  // launch: requirements hashed into both lanes, then two volatile scalars.
  {
    const TaskLaunch l = sample_launch(11);
    Hasher128 h, t;
    for (Hasher128* lane : {&h, &t}) {
      lane->string("launch").value(l.fn.value).value(l.requirements.size());
      for (const rt::Requirement& r : l.requirements) {
        lane->value(r.region.value).value(static_cast<std::uint8_t>(r.privilege));
        lane->value(r.redop).value(r.fields.size());
        for (const FieldId f : r.fields) lane->value(f.value);
      }
    }
    for (const std::int64_t a : l.args) h.value(a);
    const SigBuilder sb = sig_launch(false, l);
    EXPECT_EQ(sb.finish(), h.finish());
    EXPECT_EQ(sb.tfinish(), t.finish());
  }
  // create_partition: no volatile argument, so one lane is both hashes.
  {
    const std::vector<rt::Rect> pieces = sample_pieces();
    Hasher128 h;
    h.string("create_partition").value(IndexSpaceId(3).value).value(pieces.size()).value(true);
    for (const rt::Rect& r : pieces) h.value(r.dim).value(r.lo).value(r.hi);
    const SigBuilder sb = sig_create_partition(false, IndexSpaceId(3), pieces, true);
    EXPECT_EQ(sb.finish(), h.finish());
    EXPECT_EQ(sb.tfinish(), h.finish());
  }
}

std::vector<std::string> keys(SigBuilder sb) {
  std::vector<std::string> out;
  for (const spy::CallArg& a : sb.take_args()) out.push_back(a.key);
  return out;
}

TEST(SigBuilder, CapturedNamesAreStable) {
  using V = std::vector<std::string>;
  EXPECT_EQ(keys(sig_create_partition(true, IndexSpaceId(3), sample_pieces(), true)),
            (V{"parent", "pieces", "disjoint", "piece0", "piece1", "piece2"}));
  EXPECT_EQ(keys(sig_launch(true, sample_launch(11))),
            (V{"fn", "num_reqs", "req0.region", "req0.privilege", "req0.redop", "req0.fields",
               "req1.region", "req1.privilege", "req1.redop", "req1.fields", "arg0", "arg1"}));
  EXPECT_EQ(keys(sig_index_launch(true, sample_index_launch(11))),
            (V{"fn", "domain", "sharding", "req0.partition", "req0.region", "req0.projection",
               "req0.privilege", "req0.redop", "req0.fields", "arg0"}));
  EXPECT_EQ(keys(sig_reduce_future_map(true, FutureMap{12}, ReduceOp::Max)),
            (V{"future_map", "op"}));
  EXPECT_TRUE(keys(sig_launch(false, sample_launch(11))).empty());

  SigBuilder sb = sig_create_partition(true, IndexSpaceId(3), sample_pieces(), false);
  const std::vector<spy::CallArg> args = sb.take_args();
  ASSERT_EQ(args.size(), 6u);
  EXPECT_EQ(args[3].value, "[0..9]");
  EXPECT_EQ(args[5].value, "[20..29]");
}

}  // namespace
}  // namespace dcr::core
