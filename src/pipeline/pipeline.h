#ifndef JETSIM_PIPELINE_PIPELINE_H_
#define JETSIM_PIPELINE_PIPELINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/processors_basic.h"
#include "core/processors_external.h"
#include "core/processors_join.h"
#include "core/processors_window.h"
#include "pipeline/planner.h"
#include "pipeline/stage_graph.h"

namespace jet::pipeline {

template <typename T>
class StreamStage;
template <typename T>
class BatchStage;
template <typename T>
class KeyedStream;
template <typename T>
class WindowedStream;
template <typename T>
class SessionWindowedStream;

/// The high-level, type-safe Pipeline API (§2.1): a fluent builder over
/// typed stages that lowers to the Core API's DAG (§2.2) via the planner.
/// Mirrors Listing 1/2 of the paper in C++:
///
///   Pipeline p;
///   auto lines = p.ReadFrom<std::string>("lines", gen, opt);
///   lines.FlatMap<Word>("tokenize", ...)
///        .GroupingKey([](const Word& w) { return w.hash; })
///        .Window(WindowDef::Tumbling(1s))
///        .Aggregate("count", CountingAggregate<Word>())
///        .WriteTo("sink", ...);
///   auto dag = p.ToDag();
class Pipeline {
 public:
  Pipeline() = default;

  /// Adds an infinite generator source (rate-controlled, replayable; see
  /// GeneratorSourceP).
  template <typename T>
  StreamStage<T> ReadFrom(std::string name,
                          typename core::GeneratorSourceP<T>::GenFn gen,
                          typename core::GeneratorSourceP<T>::Options options,
                          int32_t local_parallelism = 1);

  /// Adds a finite batch source from a fixed record list (value, key hash).
  template <typename T>
  BatchStage<T> ReadFromList(std::string name,
                             std::vector<std::pair<T, uint64_t>> records,
                             int32_t local_parallelism = 1);

  /// Lowers the pipeline to an executable core DAG.
  Result<core::Dag> ToDag(const PlanOptions& options = {}) const {
    return BuildDag(graph_, options);
  }

  StageGraph& graph() { return graph_; }

 private:
  template <typename T>
  friend class StreamStage;
  template <typename T>
  friend class BatchStage;
  template <typename T>
  friend class KeyedStream;
  template <typename T>
  friend class WindowedStream;
  template <typename T>
  friend class SessionWindowedStream;

  StageGraph graph_;
};

/// A typed handle to a streaming stage (§2.1: "streaming stages assume
/// that their inputs are infinite").
template <typename T>
class StreamStage {
 public:
  StreamStage(Pipeline* pipeline, int32_t node) : pipeline_(pipeline), node_(node) {}

  /// 1:1 transform.
  template <typename R>
  StreamStage<R> Map(std::string name, std::function<R(const T&)> fn) {
    return AddStateless<R>(std::move(name),
                           [fn](const core::Item& in, ItemEmitter emit) {
                             emit(core::Item::Data<R>(fn(in.payload.As<T>()),
                                                      in.timestamp, in.key_hash));
                           });
  }

  /// Keeps only items satisfying the predicate.
  StreamStage<T> Filter(std::string name, std::function<bool(const T&)> pred) {
    return AddStateless<T>(std::move(name),
                           [pred](const core::Item& in, ItemEmitter emit) {
                             if (pred(in.payload.As<T>())) emit(core::Item(in));
                           });
  }

  /// 1:N transform.
  template <typename R>
  StreamStage<R> FlatMap(std::string name,
                         std::function<void(const T&, std::vector<R>*)> fn) {
    // `results` is reused across calls. Each processor instance runs its
    // own copy of the transform, so the buffer is never shared.
    return AddStateless<R>(
        std::move(name), [fn, results = std::vector<R>()](
                             const core::Item& in, ItemEmitter emit) mutable {
          results.clear();
          fn(in.payload.As<T>(), &results);
          for (auto& r : results) {
            emit(core::Item::Data<R>(std::move(r), in.timestamp, in.key_hash));
          }
        });
  }

  /// Map that also re-keys the stream (sets the routing hash from the new
  /// value).
  template <typename R>
  StreamStage<R> MapRekey(std::string name, std::function<R(const T&)> fn,
                          std::function<uint64_t(const R&)> key_of) {
    return AddStateless<R>(std::move(name),
                           [fn, key_of](const core::Item& in, ItemEmitter emit) {
                             R value = fn(in.payload.As<T>());
                             uint64_t hash = HashU64(key_of(value));
                             emit(core::Item::Data<R>(std::move(value), in.timestamp, hash));
                           });
  }

  /// Starts a keyed aggregation: items with equal keys are processed by
  /// the same (cluster-wide) owner.
  KeyedStream<T> GroupingKey(std::function<uint64_t(const T&)> key_fn);

  /// Hash-join against a batch build side (§2.1 Listing 2): the build
  /// stage's records are broadcast to every instance and fully loaded
  /// before the first probe.
  template <typename B, typename R>
  StreamStage<R> HashJoin(std::string name, BatchStage<B> build,
                          std::function<uint64_t(const B&)> build_key,
                          std::function<uint64_t(const T&)> probe_key,
                          std::function<void(const T&, const std::vector<B>&,
                                             std::vector<R>*)>
                              join);

  /// Windowed stream-stream equi-join (tumbling window of `window_size`).
  /// Both sides are partitioned by their join key.
  template <typename U, typename R>
  StreamStage<R> WindowJoin(std::string name, StreamStage<U> right,
                            std::function<uint64_t(const T&)> left_key,
                            std::function<uint64_t(const U&)> right_key,
                            std::function<R(const T&, const U&)> join,
                            Nanos window_size);

  /// Terminal: custom sink processor.
  void WriteTo(std::string name, core::ProcessorSupplier supplier,
               int32_t local_parallelism = 1) {
    StageNode node;
    node.kind = StageNode::Kind::kSink;
    node.name = std::move(name);
    node.supplier = std::move(supplier);
    node.local_parallelism = local_parallelism;
    node.inputs.push_back(StageNode::Input{node_, core::RoutingPolicy::kUnicast,
                                           /*distributed=*/false, /*priority=*/0});
    pipeline_->graph_.AddNode(std::move(node));
  }

  /// Terminal: collect all values into a shared, thread-safe collector.
  std::shared_ptr<core::SyncCollector<T>> CollectTo(std::string name,
                                                    int32_t local_parallelism = 1) {
    auto collector = std::make_shared<core::SyncCollector<T>>();
    WriteTo(
        std::move(name),
        [collector](const core::ProcessorMeta&) {
          return std::make_unique<core::CollectSinkP<T>>(collector);
        },
        local_parallelism);
    return collector;
  }

  /// Terminal: record per-item latency (now - item timestamp) into the
  /// recorder — the §7.1 metric.
  void WriteToLatencySink(std::string name, core::LatencyRecorder* recorder,
                          int32_t local_parallelism = 1) {
    WriteTo(
        std::move(name),
        [recorder](const core::ProcessorMeta&) {
          return std::make_unique<core::LatencySinkP>(recorder);
        },
        local_parallelism);
  }

  /// Terminal: count items.
  std::shared_ptr<std::atomic<int64_t>> WriteToCountSink(std::string name,
                                                         int32_t local_parallelism = 1) {
    auto counter = std::make_shared<std::atomic<int64_t>>(0);
    WriteTo(
        std::move(name),
        [counter](const core::ProcessorMeta&) {
          return std::make_unique<core::CountSinkP<T>>(counter);
        },
        local_parallelism);
    return counter;
  }

  int32_t node() const { return node_; }
  Pipeline* pipeline() const { return pipeline_; }

 private:
  template <typename U>
  friend class StreamStage;

  template <typename R>
  StreamStage<R> AddStateless(std::string name, ItemTransformFn transform) {
    StageNode node;
    node.kind = StageNode::Kind::kStateless;
    node.name = std::move(name);
    node.transform = std::move(transform);
    node.inputs.push_back(StageNode::Input{node_, core::RoutingPolicy::kUnicast,
                                           /*distributed=*/false, /*priority=*/0});
    int32_t id = pipeline_->graph_.AddNode(std::move(node));
    return StreamStage<R>(pipeline_, id);
  }

  Pipeline* pipeline_;
  int32_t node_;
};

/// A typed handle to a finite (batch) stage, usable as a hash-join build
/// side (§2.1: hybrid batch & streaming).
template <typename T>
class BatchStage {
 public:
  BatchStage(Pipeline* pipeline, int32_t node) : pipeline_(pipeline), node_(node) {}

  int32_t node() const { return node_; }
  Pipeline* pipeline() const { return pipeline_; }

 private:
  Pipeline* pipeline_;
  int32_t node_;
};

/// A stream with an assigned grouping key, awaiting a window definition.
template <typename T>
class KeyedStream {
 public:
  KeyedStream(Pipeline* pipeline, int32_t node, std::function<uint64_t(const T&)> key_fn)
      : pipeline_(pipeline), node_(node), key_fn_(std::move(key_fn)) {}

  WindowedStream<T> Window(core::WindowDef window) {
    return WindowedStream<T>(pipeline_, node_, key_fn_, window);
  }

  /// Session windows: per-key windows separated by inactivity gaps.
  SessionWindowedStream<T> SessionWindow(Nanos gap) {
    return SessionWindowedStream<T>(pipeline_, node_, key_fn_, gap);
  }

  /// Non-windowed rolling aggregation: the running value per key refreshes
  /// on every event (Jet's rollingAggregate). The stage's input is
  /// partitioned (and distributed) by the grouping key.
  template <typename Acc, typename Res>
  StreamStage<core::RollingResult<Res>> RollingAggregate(
      std::string name, core::AggregateOperation<T, Acc, Res> op) {
    StageNode stage;
    stage.kind = StageNode::Kind::kRolling;
    stage.name = std::move(name);
    auto key_fn = key_fn_;
    stage.supplier = [op, key_fn](const core::ProcessorMeta&)
        -> std::unique_ptr<core::Processor> {
      return std::make_unique<core::RollingAggregateP<T, Acc, Res>>(op, key_fn);
    };
    // Route by key so each key has one owner cluster-wide. The upstream
    // items must carry the key hash; insert a re-keying stage to be safe.
    StageNode rekey;
    rekey.kind = StageNode::Kind::kStateless;
    rekey.name = stage.name + ".key";
    rekey.transform = [key_fn](const core::Item& in, ItemEmitter emit) {
      core::Item copy = in;
      copy.key_hash = HashU64(key_fn(in.payload.As<T>()));
      emit(std::move(copy));
    };
    rekey.inputs.push_back(StageNode::Input{node_, core::RoutingPolicy::kUnicast,
                                            /*distributed=*/false, /*priority=*/0});
    int32_t rekey_id = pipeline_->graph_.AddNode(std::move(rekey));
    stage.inputs.push_back(StageNode::Input{rekey_id, core::RoutingPolicy::kPartitioned,
                                            /*distributed=*/true, /*priority=*/0});
    int32_t id = pipeline_->graph_.AddNode(std::move(stage));
    return StreamStage<core::RollingResult<Res>>(pipeline_, id);
  }

 private:
  Pipeline* pipeline_;
  int32_t node_;
  std::function<uint64_t(const T&)> key_fn_;
};

/// A keyed, windowed stream awaiting an aggregate operation. Lowers to the
/// two-stage accumulate/combine pair.
template <typename T>
class WindowedStream {
 public:
  WindowedStream(Pipeline* pipeline, int32_t node,
                 std::function<uint64_t(const T&)> key_fn, core::WindowDef window)
      : pipeline_(pipeline), node_(node), key_fn_(std::move(key_fn)), window_(window) {}

  /// Applies `op` per key per window. The result stream is keyed by the
  /// grouping key's hash and timestamped with each window's end.
  template <typename Acc, typename Res>
  StreamStage<core::WindowResult<Res>> Aggregate(std::string name,
                                                 core::AggregateOperation<T, Acc, Res> op) {
    StageNode stage;
    stage.kind = StageNode::Kind::kAggregate;
    stage.name = std::move(name);
    auto key_fn = key_fn_;
    auto window = window_;
    stage.supplier = [op, key_fn, window](const core::ProcessorMeta&)
        -> std::unique_ptr<core::Processor> {
      return std::make_unique<core::AccumulateByFrameP<T, Acc, Res>>(op, key_fn, window);
    };
    stage.supplier2 = [op, window](const core::ProcessorMeta&)
        -> std::unique_ptr<core::Processor> {
      return std::make_unique<core::CombineFramesP<T, Acc, Res>>(op, window);
    };
    stage.inputs.push_back(StageNode::Input{node_, core::RoutingPolicy::kUnicast,
                                            /*distributed=*/false, /*priority=*/0});
    int32_t id = pipeline_->graph_.AddNode(std::move(stage));
    return StreamStage<core::WindowResult<Res>>(pipeline_, id);
  }

 private:
  Pipeline* pipeline_;
  int32_t node_;
  std::function<uint64_t(const T&)> key_fn_;
  core::WindowDef window_;
};

/// A keyed, session-windowed stream awaiting an aggregate operation.
/// Lowers to a single partitioned stateful vertex.
template <typename T>
class SessionWindowedStream {
 public:
  SessionWindowedStream(Pipeline* pipeline, int32_t node,
                        std::function<uint64_t(const T&)> key_fn, Nanos gap)
      : pipeline_(pipeline), node_(node), key_fn_(std::move(key_fn)), gap_(gap) {}

  template <typename Acc, typename Res>
  StreamStage<core::WindowResult<Res>> Aggregate(std::string name,
                                                 core::AggregateOperation<T, Acc, Res> op) {
    auto key_fn = key_fn_;
    auto gap = gap_;
    StageNode rekey;
    rekey.kind = StageNode::Kind::kStateless;
    rekey.name = name + ".key";
    rekey.transform = [key_fn](const core::Item& in, ItemEmitter emit) {
      core::Item copy = in;
      copy.key_hash = HashU64(key_fn(in.payload.As<T>()));
      emit(std::move(copy));
    };
    rekey.inputs.push_back(StageNode::Input{node_, core::RoutingPolicy::kUnicast,
                                            /*distributed=*/false, /*priority=*/0});
    int32_t rekey_id = pipeline_->graph_.AddNode(std::move(rekey));

    StageNode stage;
    stage.kind = StageNode::Kind::kRolling;  // single stateful keyed vertex
    stage.name = std::move(name);
    stage.supplier = [op, key_fn, gap](const core::ProcessorMeta&)
        -> std::unique_ptr<core::Processor> {
      return std::make_unique<core::SessionWindowP<T, Acc, Res>>(op, key_fn, gap);
    };
    stage.inputs.push_back(StageNode::Input{rekey_id, core::RoutingPolicy::kPartitioned,
                                            /*distributed=*/true, /*priority=*/0});
    int32_t id = pipeline_->graph_.AddNode(std::move(stage));
    return StreamStage<core::WindowResult<Res>>(pipeline_, id);
  }

 private:
  Pipeline* pipeline_;
  int32_t node_;
  std::function<uint64_t(const T&)> key_fn_;
  Nanos gap_;
};

// ---------------------------------------------------------------------------
// Implementations needing complete types
// ---------------------------------------------------------------------------

template <typename T>
StreamStage<T> Pipeline::ReadFrom(std::string name,
                                  typename core::GeneratorSourceP<T>::GenFn gen,
                                  typename core::GeneratorSourceP<T>::Options options,
                                  int32_t local_parallelism) {
  StageNode node;
  node.kind = StageNode::Kind::kStreamSource;
  node.name = std::move(name);
  node.local_parallelism = local_parallelism;
  node.supplier = [gen, options](const core::ProcessorMeta&)
      -> std::unique_ptr<core::Processor> {
    return std::make_unique<core::GeneratorSourceP<T>>(gen, options);
  };
  int32_t id = graph_.AddNode(std::move(node));
  return StreamStage<T>(this, id);
}

template <typename T>
BatchStage<T> Pipeline::ReadFromList(std::string name,
                                     std::vector<std::pair<T, uint64_t>> records,
                                     int32_t local_parallelism) {
  auto shared = std::make_shared<const std::vector<std::pair<T, uint64_t>>>(
      std::move(records));
  StageNode node;
  node.kind = StageNode::Kind::kBatchSource;
  node.name = std::move(name);
  node.local_parallelism = local_parallelism;
  node.supplier = [shared](const core::ProcessorMeta&)
      -> std::unique_ptr<core::Processor> {
    return std::make_unique<core::ListSourceP<T>>(shared);
  };
  int32_t id = graph_.AddNode(std::move(node));
  return BatchStage<T>(this, id);
}

template <typename T>
KeyedStream<T> StreamStage<T>::GroupingKey(std::function<uint64_t(const T&)> key_fn) {
  return KeyedStream<T>(pipeline_, node_, std::move(key_fn));
}

template <typename T>
template <typename B, typename R>
StreamStage<R> StreamStage<T>::HashJoin(
    std::string name, BatchStage<B> build, std::function<uint64_t(const B&)> build_key,
    std::function<uint64_t(const T&)> probe_key,
    std::function<void(const T&, const std::vector<B>&, std::vector<R>*)> join) {
  StageNode stage;
  stage.kind = StageNode::Kind::kHashJoin;
  stage.name = std::move(name);
  stage.supplier = [build_key, probe_key, join](const core::ProcessorMeta&)
      -> std::unique_ptr<core::Processor> {
    return std::make_unique<core::HashJoinP<B, T, R>>(build_key, probe_key, join);
  };
  // Build side: broadcast everywhere, drained before probing (priority 0).
  stage.inputs.push_back(StageNode::Input{build.node(), core::RoutingPolicy::kBroadcast,
                                          /*distributed=*/true, /*priority=*/0});
  // Probe side: any instance may probe (the whole table is everywhere).
  stage.inputs.push_back(StageNode::Input{node_, core::RoutingPolicy::kUnicast,
                                          /*distributed=*/false, /*priority=*/1});
  int32_t id = pipeline_->graph_.AddNode(std::move(stage));
  return StreamStage<R>(pipeline_, id);
}

template <typename T>
template <typename U, typename R>
StreamStage<R> StreamStage<T>::WindowJoin(std::string name, StreamStage<U> right,
                                          std::function<uint64_t(const T&)> left_key,
                                          std::function<uint64_t(const U&)> right_key,
                                          std::function<R(const T&, const U&)> join,
                                          Nanos window_size) {
  // Insert re-keying stages so both partitioned inputs route by the join
  // key's hash, whatever the upstream keying was.
  StreamStage<T> keyed_left = AddStateless<T>(
      name + ".lkey", [left_key](const core::Item& in, ItemEmitter emit) {
        core::Item copy = in;
        copy.key_hash = HashU64(left_key(in.payload.As<T>()));
        emit(std::move(copy));
      });
  StreamStage<U> keyed_right = right.template AddStateless<U>(
      name + ".rkey", [right_key](const core::Item& in, ItemEmitter emit) {
        core::Item copy = in;
        copy.key_hash = HashU64(right_key(in.payload.As<U>()));
        emit(std::move(copy));
      });

  StageNode stage;
  stage.kind = StageNode::Kind::kWindowJoin;
  stage.name = std::move(name);
  stage.supplier = [left_key, right_key, join, window_size](const core::ProcessorMeta&)
      -> std::unique_ptr<core::Processor> {
    return std::make_unique<core::WindowJoinP<T, U, R>>(left_key, right_key, join,
                                                        window_size);
  };
  stage.inputs.push_back(StageNode::Input{keyed_left.node(),
                                          core::RoutingPolicy::kPartitioned,
                                          /*distributed=*/true, /*priority=*/0});
  stage.inputs.push_back(StageNode::Input{keyed_right.node(),
                                          core::RoutingPolicy::kPartitioned,
                                          /*distributed=*/true, /*priority=*/0});
  int32_t id = pipeline_->graph_.AddNode(std::move(stage));
  return StreamStage<R>(pipeline_, id);
}

}  // namespace jet::pipeline

#endif  // JETSIM_PIPELINE_PIPELINE_H_
