// §3 call-identity hashing, shared by every execution backend.
//
// SigBuilder builds the control-determinism hash (and, when spy trace
// recording is on, the named-argument capture) for one API call.  The
// per-API sig_* helpers below encode the exact argument sequence of each
// call once, so the simulator backend (dcr/runtime.cpp) and the real-threads
// backend (exec/thread_runtime.cpp) produce identical §3 hashes and identical
// template-identity hashes *by construction* — the differential-determinism
// contract in tests/test_exec.cpp leans on this.
#pragma once

#include <string>
#include <type_traits>
#include <vector>

#include "common/hash128.hpp"
#include "common/types.hpp"
#include "dcr/api.hpp"
#include "runtime/geometry.hpp"
#include "spy/trace.hpp"

namespace dcr::core {

// An argument's name in the spy capture: a plain literal ("fn") or an
// indexed one, <stem><index><suffix> ("piece3", "req0.region").  Only a
// SigBuilder with capture on spells it out, so a call with capture off builds
// no strings for its names.
class ArgKey {
 public:
  ArgKey(const char* name) : stem_(name) {}  // implicit: arg("fn", v)
  ArgKey(const char* stem, std::size_t index, const char* suffix = "")
      : stem_(stem), suffix_(suffix), index_(index), indexed_(true) {}

  std::string str() const {
    return indexed_ ? stem_ + std::to_string(index_) + suffix_ : std::string(stem_);
  }

 private:
  const char* stem_;
  const char* suffix_ = "";
  std::size_t index_ = 0;
  bool indexed_ = false;
};

// Builds the §3 call-identity hash and, when spy trace recording is on, a
// parallel list of the same arguments as named text — the raw material for
// the control-determinism linter's argument-level diff (spy/verify.hpp).
// With capture off, this is the plain Hasher128 path plus two branches per
// arg: argument names (ArgKey) and values are turned into text only when
// capture is on.
//
// It also yields the *template-identity* hash (dcr/template.hpp): the same
// construction minus the arguments declared volatile via varg() — scalar task
// arguments and future / future-map ids, which legitimately differ across
// loop iterations without changing any analysis decision.  The full §3 hash
// still covers them, so the determinism checker is unaffected.  Up to the
// first varg() the two hashes have absorbed the same input, so each argument
// is hashed once into one shared lane; the first varg() copies that lane into
// the template lane, and from then on non-volatile arguments go to both.
// tfinish() of a call with no volatile argument is therefore finish().
class SigBuilder {
 public:
  SigBuilder(const char* name, bool capture) : capture_(capture) { h_.string(name); }

  template <typename T>
    requires std::is_integral_v<T>
  SigBuilder& arg(ArgKey key, T v) {
    both([&](Hasher128& lane) { lane.value(v); });
    if (capture_) args_.push_back({key.str(), std::to_string(v)});
    return *this;
  }

  // Volatile argument: hashed for control determinism, excluded from the
  // template identity.
  template <typename T>
    requires std::is_integral_v<T>
  SigBuilder& varg(ArgKey key, T v) {
    if (!split_) {
      t_ = h_;
      split_ = true;
    }
    h_.value(v);
    if (capture_) args_.push_back({key.str(), std::to_string(v)});
    return *this;
  }

  template <typename T>
    requires std::is_enum_v<T>
  SigBuilder& arg(ArgKey key, T v) {
    return arg(key, static_cast<std::underlying_type_t<T>>(v));
  }

  SigBuilder& arg(ArgKey key, const std::string& s) {
    both([&](Hasher128& lane) { lane.string(s); });
    if (capture_) args_.push_back({key.str(), s});
    return *this;
  }

  SigBuilder& arg(ArgKey key, const rt::Rect& r) {
    both([&](Hasher128& lane) { lane.value(r.dim).value(r.lo).value(r.hi); });
    if (capture_) {
      std::string v = "[";
      for (int d = 0; d < r.dim; ++d) {
        if (d) v += ',';
        v += std::to_string(r.lo[static_cast<std::size_t>(d)]) + ".." +
             std::to_string(r.hi[static_cast<std::size_t>(d)]);
      }
      args_.push_back({key.str(), v + "]"});
    }
    return *this;
  }

  SigBuilder& arg(ArgKey key, const std::vector<FieldId>& fields) {
    both([&](Hasher128& lane) {
      lane.value(fields.size());
      for (const FieldId f : fields) lane.value(f.value);
    });
    if (capture_) {
      std::string v = "{";
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i) v += ',';
        v += std::to_string(fields[i].value);
      }
      args_.push_back({key.str(), v + "}"});
    }
    return *this;
  }

  Hash128 finish() const { return h_.finish(); }
  Hash128 tfinish() const { return split_ ? t_.finish() : h_.finish(); }
  std::vector<spy::CallArg> take_args() { return std::move(args_); }

 private:
  // Feeds a non-volatile argument to the §3 lane and, once split, to the
  // template lane.
  template <typename Feed>
  void both(Feed&& feed) {
    feed(h_);
    if (split_) feed(t_);
  }

  Hasher128 h_;  // §3 lane; also the template lane until the first varg()
  Hasher128 t_;  // template lane, live once split_
  bool split_ = false;
  bool capture_;
  std::vector<spy::CallArg> args_;
};

// ---- per-API signature encoders (one definition of each call's identity) ----

inline SigBuilder sig_create_field_space(bool capture) {
  return SigBuilder("create_field_space", capture);
}

inline SigBuilder sig_allocate_field(bool capture, FieldSpaceId fs, std::size_t bytes,
                                     const std::string& name) {
  SigBuilder sb("allocate_field", capture);
  sb.arg("field_space", fs.value).arg("bytes", bytes).arg("name", name);
  return sb;
}

inline SigBuilder sig_create_region(bool capture, const rt::Rect& bounds, FieldSpaceId fs) {
  SigBuilder sb("create_region", capture);
  sb.arg("bounds", bounds).arg("field_space", fs.value);
  return sb;
}

inline SigBuilder sig_partition_equal(bool capture, IndexSpaceId parent, std::size_t pieces,
                                      int axis) {
  SigBuilder sb("partition_equal", capture);
  sb.arg("parent", parent.value).arg("pieces", pieces).arg("axis", axis);
  return sb;
}

inline SigBuilder sig_partition_with_halo(bool capture, IndexSpaceId parent,
                                          std::size_t pieces, std::int64_t halo, int axis) {
  SigBuilder sb("partition_with_halo", capture);
  sb.arg("parent", parent.value).arg("pieces", pieces).arg("halo", halo).arg("axis", axis);
  return sb;
}

inline SigBuilder sig_create_partition(bool capture, IndexSpaceId parent,
                                       const std::vector<rt::Rect>& pieces, bool disjoint) {
  SigBuilder sb("create_partition", capture);
  sb.arg("parent", parent.value).arg("pieces", pieces.size()).arg("disjoint", disjoint);
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    sb.arg({"piece", i}, pieces[i]);
  }
  return sb;
}

inline SigBuilder sig_partition_grid(bool capture, IndexSpaceId parent, std::size_t tiles_x,
                                     std::size_t tiles_y, std::int64_t halo) {
  SigBuilder sb("partition_grid", capture);
  sb.arg("parent", parent.value).arg("tiles_x", tiles_x).arg("tiles_y", tiles_y);
  sb.arg("halo", halo);
  return sb;
}

inline SigBuilder sig_destroy_region(bool capture, RegionTreeId tree) {
  SigBuilder sb("destroy_region", capture);
  sb.arg("tree", tree.value);
  return sb;
}

inline SigBuilder sig_fill(bool capture, IndexSpaceId region,
                           const std::vector<FieldId>& fields) {
  SigBuilder sb("fill", capture);
  sb.arg("region", region.value).arg("fields", fields);
  return sb;
}

inline SigBuilder sig_launch(bool capture, const TaskLaunch& launch) {
  SigBuilder sb("launch", capture);
  sb.arg("fn", launch.fn.value).arg("num_reqs", launch.requirements.size());
  for (std::size_t i = 0; i < launch.requirements.size(); ++i) {
    const auto& r = launch.requirements[i];
    sb.arg({"req", i, ".region"}, r.region.value);
    sb.arg({"req", i, ".privilege"}, r.privilege);
    sb.arg({"req", i, ".redop"}, r.redop);
    sb.arg({"req", i, ".fields"}, r.fields);
  }
  for (std::size_t i = 0; i < launch.args.size(); ++i) {
    // Scalar task arguments (e.g. the loop index) are volatile: they do not
    // affect any dependence-analysis decision.
    sb.varg({"arg", i}, launch.args[i]);
  }
  return sb;
}

inline SigBuilder sig_index_launch(bool capture, const IndexLaunch& launch) {
  SigBuilder sb("index_launch", capture);
  sb.arg("fn", launch.fn.value).arg("domain", launch.domain);
  sb.arg("sharding", launch.sharding.value);
  for (std::size_t i = 0; i < launch.requirements.size(); ++i) {
    const auto& r = launch.requirements[i];
    sb.arg({"req", i, ".partition"}, r.partition.value);
    sb.arg({"req", i, ".region"}, r.region.value);
    sb.arg({"req", i, ".projection"}, r.projection.value);
    sb.arg({"req", i, ".privilege"}, r.privilege);
    sb.arg({"req", i, ".redop"}, r.redop);
    sb.arg({"req", i, ".fields"}, r.fields);
  }
  for (std::size_t i = 0; i < launch.args.size(); ++i) {
    sb.varg({"arg", i}, launch.args[i]);
  }
  return sb;
}

inline SigBuilder sig_reduce_future_map(bool capture, const FutureMap& fm, ReduceOp op) {
  SigBuilder sb("reduce_future_map", capture);
  // Future-map ids increment monotonically across iterations: volatile.
  sb.varg("future_map", fm.id).arg("op", op);
  return sb;
}

inline SigBuilder sig_get_future(bool capture, const Future& f) {
  SigBuilder sb("get_future", capture);
  sb.varg("future", f.id);
  return sb;
}

inline SigBuilder sig_future_is_ready(bool capture, const Future& f) {
  SigBuilder sb("future_is_ready", capture);
  sb.varg("future", f.id);
  return sb;
}

inline SigBuilder sig_execution_fence(bool capture) {
  return SigBuilder("execution_fence", capture);
}

inline SigBuilder sig_attach_file(bool capture, IndexSpaceId region,
                                  const std::vector<FieldId>& fields,
                                  const std::string& file) {
  SigBuilder sb("attach_file", capture);
  sb.arg("region", region.value).arg("file", file).arg("fields", fields);
  return sb;
}

inline SigBuilder sig_detach_file(bool capture, IndexSpaceId region,
                                  const std::vector<FieldId>& fields) {
  SigBuilder sb("detach_file", capture);
  sb.arg("region", region.value).arg("fields", fields);
  return sb;
}

inline SigBuilder sig_attach_file_group(bool capture, PartitionId partition,
                                        const std::vector<FieldId>& fields,
                                        const std::string& file_basename) {
  SigBuilder sb("attach_file_group", capture);
  sb.arg("partition", partition.value).arg("file", file_basename).arg("fields", fields);
  return sb;
}

inline SigBuilder sig_detach_file_group(bool capture, PartitionId partition,
                                        const std::vector<FieldId>& fields) {
  SigBuilder sb("detach_file_group", capture);
  sb.arg("partition", partition.value).arg("fields", fields);
  return sb;
}

inline SigBuilder sig_begin_trace(bool capture, TraceId id) {
  SigBuilder sb("begin_trace", capture);
  sb.arg("trace", id.value);
  return sb;
}

inline SigBuilder sig_end_trace(bool capture, TraceId id) {
  SigBuilder sb("end_trace", capture);
  sb.arg("trace", id.value);
  return sb;
}

}  // namespace dcr::core
