// perfbench: the end-to-end performance benchmark of the dtrace library.
//
//   perfbench --workload {hot-sharded|cold-paged|live-rw} --seed N
//             --seconds S --trace {0|1} [--out DIR] [--code-version V]
//
// Generates the workload's inputs from the seed, builds the serving state
// through the public API (timed as set-up), runs one closed-loop query
// client for S seconds (plus, on live-rw, one open-loop writer), checks the
// answers against a single-tree in-memory oracle outside the timed window,
// and ends its output with one JSON result line. With --trace 1 the client
// alternates plain queries with queries whose trace and tree sources are
// wrapped by the timing decorators of layers.h, and the result carries the
// per-layer metrics instead of the end-to-end ones. See README.md beside
// this file for why each workload exists and what each metric predicts.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/index.h"
#include "core/sharded_index.h"
#include "exp/presets.h"
#include "layers.h"
#include "report.h"
#include "storage/paged_trace_source.h"
#include "storage/snapshot.h"
#include "util/check.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using dtrace::DigitalTraceIndex;
using dtrace::EntityId;
using dtrace::PresenceRecord;
using dtrace::QueryOptions;
using dtrace::ShardedIndex;
using dtrace::TopKResult;

constexpr int kK = 10;
constexpr int kShards = 4;
/// Set-up runs at least kSetupReps times and until kSetupBudgetS seconds
/// were spent in it (at most kMaxSetupReps); setup_s is the median.
constexpr int kSetupReps = 5;
constexpr int kMaxSetupReps = 40;
constexpr double kSetupBudgetS = 2.0;
constexpr int kWarmupQueries = 16;
/// Queries whose answers are compared with the oracle after the timed phase.
constexpr int kCheckQueries = 16;
/// Per-query counts are averaged over this fixed prefix of traced queries,
/// so with one client and a deterministic stream they repeat exactly.
constexpr size_t kCountedTraced = 48;
/// The timed phase runs past --seconds until this many queries and writes
/// completed, so the query p90 and the write p95 always have at least
/// kMinSamplesBeyond samples above them (the write p95 has 50).
constexpr size_t kMinQueries = 100;
constexpr size_t kMinWrites = 1000;
/// cold-paged redraws its Zipf hot set after this many queries.
constexpr uint32_t kHotSetQueries = 25;
/// live-rw writer rate (writes per second, open loop).
constexpr double kWriteRate = 200.0;
/// live-rw entities held out of the initial index, inserted by the writer.
constexpr uint32_t kHeldBack = 1000;
/// Size of the second population replacement traces are taken from.
constexpr uint32_t kDonors = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string code_version = "unknown";
};

double MiB(uint64_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Whether two answers agree bit for bit; prints the first difference,
/// labelled with `what` and the query entity, when they do not.
bool SameAnswer(const TopKResult& a, const TopKResult& b, const char* what,
                EntityId q) {
  if (a.status.code() != b.status.code()) {
    std::printf("mismatch %s q=%u: status %s vs %s\n", what, q,
                a.status.message(), b.status.message());
    return false;
  }
  const size_t n = std::max(a.items.size(), b.items.size());
  for (size_t i = 0; i < n; ++i) {
    if (i >= a.items.size() || i >= b.items.size() ||
        a.items[i].entity != b.items[i].entity ||
        a.items[i].score != b.items[i].score) {
      auto item = [&](const TopKResult& r) {
        return i < r.items.size() ? r.items[i] : dtrace::ScoredEntity{0, -1};
      };
      std::printf("mismatch %s q=%u rank %zu: (%u, %.17g) vs (%u, %.17g)\n",
                  what, q, i, item(a).entity, item(a).score, item(b).entity,
                  item(b).score);
      return false;
    }
  }
  return true;
}

/// Indexed / not-indexed entity sets with O(1) uniform picks, owned by the
/// one thread that issues writes.
class Membership {
 public:
  Membership(uint32_t n, const std::vector<EntityId>& held_back)
      : pos_(n), indexed_(n, true) {
    for (EntityId e : held_back) indexed_[e] = false;
    for (EntityId e = 0; e < n; ++e) {
      auto& side = indexed_[e] ? in_ : out_;
      pos_[e] = static_cast<uint32_t>(side.size());
      side.push_back(e);
    }
  }

  const std::vector<EntityId>& in() const { return in_; }
  const std::vector<EntityId>& out() const { return out_; }

  void Move(EntityId e, bool to_indexed) {
    auto& from = indexed_[e] ? in_ : out_;
    auto& to = to_indexed ? in_ : out_;
    const uint32_t p = pos_[e];
    from[p] = from.back();
    pos_[from[p]] = p;
    from.pop_back();
    pos_[e] = static_cast<uint32_t>(to.size());
    to.push_back(e);
    indexed_[e] = to_indexed;
  }

 private:
  std::vector<EntityId> in_, out_;
  std::vector<uint32_t> pos_;
  std::vector<bool> indexed_;
};

enum class WriteKind { kReplace = 0, kInsert = 1, kRemove = 2 };
constexpr const char* kWriteKindName[] = {"replace", "insert", "remove"};

struct WriteOp {
  WriteKind kind;
  EntityId entity;
  std::vector<PresenceRecord> records;  // replace only
};

/// The write mix: 50% ReplaceEntity with a trace from the donor population,
/// 25% InsertEntity of a not-indexed entity, 25% RemoveEntity. An insert
/// with nothing left to insert becomes a remove. Deterministic per seed.
class WriteMix {
 public:
  WriteMix(uint64_t seed, Membership* members,
           const std::vector<std::vector<PresenceRecord>>* donors)
      : rng_(seed), members_(members), donors_(donors) {}

  WriteOp Next() {
    WriteOp op;
    const double r = rng_.NextDouble();
    if (r < 0.5) {
      op.kind = WriteKind::kReplace;
      op.entity = Pick(members_->in());
      op.records = (*donors_)[rng_.NextBelow(donors_->size())];
      for (auto& rec : op.records) rec.entity = op.entity;
    } else if (r < 0.75 && !members_->out().empty()) {
      op.kind = WriteKind::kInsert;
      op.entity = Pick(members_->out());
      members_->Move(op.entity, true);
    } else {
      op.kind = WriteKind::kRemove;
      op.entity = Pick(members_->in());
      members_->Move(op.entity, false);
    }
    return op;
  }

 private:
  EntityId Pick(const std::vector<EntityId>& v) {
    return v[rng_.NextBelow(v.size())];
  }

  dtrace::Rng rng_;
  Membership* members_;
  const std::vector<std::vector<PresenceRecord>>* donors_;
};

/// Donor traces: the non-empty per-entity record lists of a second
/// generated population over the same (seed-independent) grid hierarchy.
std::vector<std::vector<PresenceRecord>> MakeDonors(uint64_t seed) {
  const dtrace::Dataset d = dtrace::MakeDiskResidentDataset(kDonors, seed);
  std::vector<std::vector<PresenceRecord>> donors(kDonors);
  for (const auto& r : d.records) donors[r.entity].push_back(r);
  std::erase_if(donors, [](const auto& v) { return v.empty(); });
  return donors;
}

struct PoolCounters {
  uint64_t evictions = 0;
  double lock_wait_s = 0.0;
};

/// What the benchmark loop needs from a workload. Inputs are generated by
/// the constructor; everything else goes through the library's public API.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual QueryStream MakeStream(uint64_t seed) const = 0;
  /// Indexed population (the |E| of PE) when no writes are in flight.
  virtual size_t population() const = 0;
  /// Whether the index is a ShardedIndex (self time is then measured
  /// against the summed per-shard work instead of wall time).
  virtual bool sharded() const = 0;
  /// Builds the serving state from inputs already in memory (timed), and
  /// drops it again (untimed).
  virtual void Setup() = 0;
  virtual void Teardown() = 0;
  virtual TopKResult Query(EntityId q) = 0;
  /// The same query with trace (and, where the tree is paged on SimDisk,
  /// tree) cursors wrapped by the timing decorators.
  virtual TopKResult TracedQuery(EntityId q, LayerProbe* trace,
                                 LayerProbe* tree) = 0;
  /// Compares answers on `sample` with an oracle built from scratch;
  /// returns the number of mismatches. Runs after the timed phase.
  virtual int CheckAnswers(const std::vector<EntityId>& sample) = 0;
  /// Applies one write to the write target: the served index on live-rw,
  /// a private copy of the serving state on the read-only workloads.
  virtual void Write(const WriteOp& op) = 0;
  /// Whether writes hit the served index from a concurrent writer thread
  /// (live-rw) rather than a copy between two queries.
  virtual bool live_writes() const { return false; }
  /// Closed-loop writes issued after each query when writes are not live.
  virtual int writes_per_query() const { return 0; }
  virtual DigitalTraceIndex::ConcurrencyStats concurrency() const = 0;
  virtual DigitalTraceIndex::ConcurrencyStats write_concurrency() const {
    return concurrency();
  }
  virtual PoolCounters pools() const { return {}; }
  virtual double index_mb() const = 0;
  virtual double disk_mb() const { return 0.0; }
  virtual double snapshot_mb() const { return 0.0; }
  virtual double codec_ratio() const { return 0.0; }

  Membership& members() { return members_; }
  const std::vector<std::vector<PresenceRecord>>& donors() const {
    return donors_;
  }

 protected:
  Workload(uint32_t num_entities, uint64_t seed,
           const std::vector<EntityId>& held_back = {})
      : data_(dtrace::MakeDiskResidentDataset(num_entities, seed)),
        measure_(data_.hierarchy->num_levels()),
        members_(num_entities, held_back),
        donors_(MakeDonors(seed ^ 0xd0d0)) {}

  /// A second store over the same records, for a write target that must
  /// not share MVCC state with the served index.
  std::shared_ptr<dtrace::TraceStore> CopyStore() const {
    return std::make_shared<dtrace::TraceStore>(
        *data_.hierarchy, data_.num_entities(), data_.horizon, data_.records);
  }

  int CompareWithOracle(const DigitalTraceIndex& oracle,
                        const std::vector<EntityId>& sample) {
    int bad = 0;
    for (EntityId q : sample) {
      bad += !SameAnswer(Query(q), oracle.Query(q, kK, measure_), "oracle", q);
    }
    return bad;
  }

  dtrace::Dataset data_;
  dtrace::PolynomialLevelMeasure measure_;
  Membership members_;
  std::vector<std::vector<PresenceRecord>> donors_;
};

template <typename Index>
void ApplyWrite(Index& index, const WriteOp& op) {
  switch (op.kind) {
    case WriteKind::kReplace:
      index.ReplaceEntity(op.entity, op.records);
      break;
    case WriteKind::kInsert:
      index.InsertEntity(op.entity);
      break;
    case WriteKind::kRemove:
      index.RemoveEntity(op.entity);
      break;
  }
}

dtrace::ShardedIndexOptions ShardOptions() {
  dtrace::ShardedIndexOptions options;
  options.num_shards = kShards;
  return options;
}

double ShardedIndexMb(const ShardedIndex& index) {
  uint64_t bytes = index.IndexMemoryBytes();
  for (int s = 0; s < index.num_shards(); ++s) {
    bytes += index.shard(s).HasherMemoryBytes();
  }
  return MiB(bytes);
}

// hot-sharded: 20K entities, in-memory traces, 4 shards, uniform queries.
class HotSharded final : public Workload {
 public:
  explicit HotSharded(uint64_t seed)
      : Workload(20000, seed),
        shadow_(ShardedIndex::Build(CopyStore(), ShardOptions())) {}

  QueryStream MakeStream(uint64_t seed) const override {
    return QueryStream::Uniform(seed, data_.num_entities());
  }
  size_t population() const override { return index_->num_entities(); }
  bool sharded() const override { return true; }
  void Setup() override {
    index_.emplace(ShardedIndex::Build(data_.store, ShardOptions()));
  }
  void Teardown() override { index_.reset(); }
  TopKResult Query(EntityId q) override {
    return index_->Query(q, kK, measure_);
  }
  TopKResult TracedQuery(EntityId q, LayerProbe* trace, LayerProbe*) override {
    const TimedTraceSource timed(*data_.store, trace);
    QueryOptions options;
    options.trace_source = &timed;
    return index_->Query(q, kK, measure_, options);
  }
  int CheckAnswers(const std::vector<EntityId>& sample) override {
    return CompareWithOracle(DigitalTraceIndex::Build(data_.store), sample);
  }
  void Write(const WriteOp& op) override { ApplyWrite(shadow_, op); }
  int writes_per_query() const override { return 1; }
  DigitalTraceIndex::ConcurrencyStats concurrency() const override {
    return index_->concurrency_stats();
  }
  DigitalTraceIndex::ConcurrencyStats write_concurrency() const override {
    return shadow_.concurrency_stats();
  }
  double index_mb() const override { return ShardedIndexMb(*index_); }

 private:
  ShardedIndex shadow_;
  std::optional<ShardedIndex> index_;
};

dtrace::PagedTreeOptions SimDiskTree() {
  dtrace::PagedTreeOptions tree;
  tree.backing = dtrace::PagedTreeOptions::Backing::kSimDisk;
  tree.disk.pool_fraction = 0.25;
  return tree;
}

// cold-paged: 10K entities on one index whose tree sits on SimDisk and whose
// traces sit in a compressed PagedTraceSource, each behind a buffer pool of
// about a quarter of its packed pages; Zipf(0.99) queries.
class ColdPaged final : public Workload {
 public:
  explicit ColdPaged(uint64_t seed)
      : Workload(10000, seed),
        shadow_(DigitalTraceIndex::Build(CopyStore())) {
    shadow_.EnablePagedTree(SimDiskTree());
    // Size the trace pool against the compressed page count, which is
    // only known once the traces have been serialized.
    const dtrace::PagedTraceSource sizing(*data_.store, TraceOptions(0));
    trace_pool_pages_ = std::max<size_t>(4, sizing.num_pages() / 4);
  }

  QueryStream MakeStream(uint64_t seed) const override {
    return QueryStream::Zipf(seed, data_.num_entities(), 0.99,
                             kHotSetQueries);
  }
  size_t population() const override {
    return index_->tree().num_entities();
  }
  bool sharded() const override { return false; }
  void Setup() override {
    index_.emplace(DigitalTraceIndex::Build(data_.store));
    index_->EnablePagedTree(SimDiskTree());
    source_.emplace(*data_.store, TraceOptions(trace_pool_pages_));
  }
  void Teardown() override {
    index_.reset();
    source_.reset();
  }
  TopKResult Query(EntityId q) override {
    QueryOptions options;
    options.trace_source = &*source_;
    return index_->Query(q, kK, measure_, options);
  }
  // Exactly what DigitalTraceIndex::Query does on a healthy disk, with
  // both sources decorated.
  TopKResult TracedQuery(EntityId q, LayerProbe* trace,
                         LayerProbe* tree) override {
    const DigitalTraceIndex::ReadPin pin = index_->PinForRead();
    const TimedTreeSource timed_tree(pin.tree(), tree);
    const TimedTraceSource timed_traces(*source_, trace);
    QueryOptions options;
    options.trace_as_of = pin.version();
    const dtrace::TopKQueryProcessor proc(timed_tree, timed_traces,
                                          index_->hasher(), measure_);
    return proc.Query(q, kK, options);
  }
  int CheckAnswers(const std::vector<EntityId>& sample) override {
    return CompareWithOracle(DigitalTraceIndex::Build(data_.store), sample);
  }
  void Write(const WriteOp& op) override { ApplyWrite(shadow_, op); }
  int writes_per_query() const override { return 4; }
  DigitalTraceIndex::ConcurrencyStats concurrency() const override {
    return index_->concurrency_stats();
  }
  DigitalTraceIndex::ConcurrencyStats write_concurrency() const override {
    return shadow_.concurrency_stats();
  }
  PoolCounters pools() const override {
    const auto traces = source_->pool_stats();
    const auto tree = index_->paged_tree().page_store().pool()->stats();
    return {traces.evictions + tree.evictions,
            traces.lock_wait_seconds + tree.lock_wait_seconds};
  }
  double index_mb() const override {
    return MiB(index_->IndexMemoryBytes() + index_->HasherMemoryBytes());
  }
  double disk_mb() const override {
    return MiB((source_->num_pages() + index_->paged_tree().num_pages()) *
               dtrace::kPageSize);
  }
  double codec_ratio() const override {
    return static_cast<double>(source_->raw_bytes()) /
           static_cast<double>(source_->data_bytes());
  }

 private:
  static dtrace::PagedTraceSource::Options TraceOptions(size_t pool_pages) {
    dtrace::PagedTraceSource::Options options;
    options.compress = true;
    options.pool_pages = pool_pages;
    return options;
  }

  DigitalTraceIndex shadow_;
  size_t trace_pool_pages_ = 0;
  std::optional<DigitalTraceIndex> index_;
  std::optional<dtrace::PagedTraceSource> source_;
};

std::vector<EntityId> HeldBack(uint64_t seed, uint32_t n) {
  dtrace::Rng rng(seed ^ 0x4e1d);
  const std::vector<uint32_t> ids = dtrace::SampleDistinct(rng, n, kHeldBack);
  return {ids.begin(), ids.end()};
}

// live-rw: 20K entities, 4 shards with paged trees in the default
// in-memory backing, restarted from a snapshot; one closed-loop reader and
// one open-loop writer.
class LiveRw final : public Workload {
 public:
  explicit LiveRw(uint64_t seed)
      : Workload(20000, seed, HeldBack(seed, 20000)) {
    const auto builder = ShardedIndex::Build(data_.store, ShardOptions(),
                                             members_.in());
    const dtrace::Status saved = builder.SaveSnapshot(&env_);
    DT_CHECK_MSG(saved.ok(), "live-rw: initial SaveSnapshot failed");
    for (const auto& [name, bytes] : env_.files()) {
      snapshot_bytes_ += bytes.size();
    }
  }

  QueryStream MakeStream(uint64_t seed) const override {
    return QueryStream::Uniform(seed, data_.num_entities());
  }
  size_t population() const override {
    return loaded_.index->num_entities();
  }
  bool sharded() const override { return true; }
  void Setup() override {
    const dtrace::Status s = ShardedIndex::LoadSnapshot(env_, &loaded_);
    DT_CHECK_MSG(s.ok(), "live-rw: LoadSnapshot failed");
    loaded_.index->EnablePagedTrees();
  }
  void Teardown() override {
    loaded_.index.reset();
    loaded_.store.reset();
    loaded_.hierarchy.reset();
  }
  TopKResult Query(EntityId q) override {
    return loaded_.index->Query(q, kK, measure_);
  }
  TopKResult TracedQuery(EntityId q, LayerProbe* trace, LayerProbe*) override {
    const TimedTraceSource timed(*loaded_.store, trace);
    QueryOptions options;
    options.trace_source = &timed;
    return loaded_.index->Query(q, kK, measure_, options);
  }
  void Write(const WriteOp& op) override {
    ApplyWrite(*loaded_.index, op);
    if (op.kind == WriteKind::kReplace) replaced_[op.entity] = op.records;
  }
  bool live_writes() const override { return true; }
  // After the writer stopped: the live index must match a fresh index
  // built over a fresh store holding the final traces, and a snapshot of
  // the final state must load back and answer identically.
  int CheckAnswers(const std::vector<EntityId>& sample) override {
    std::vector<PresenceRecord> records;
    records.reserve(data_.records.size());
    for (const auto& r : data_.records) {
      if (!replaced_.count(r.entity)) records.push_back(r);
    }
    for (const auto& [e, recs] : replaced_) {
      records.insert(records.end(), recs.begin(), recs.end());
    }
    auto final_store = std::make_shared<dtrace::TraceStore>(
        *data_.hierarchy, data_.num_entities(), data_.horizon, records);
    int bad = CompareWithOracle(
        DigitalTraceIndex::Build(final_store, {}, members_.in()), sample);
    dtrace::MemSnapshotEnv env;
    dtrace::LoadedShardedIndex reloaded;
    if (!loaded_.index->SaveSnapshot(&env).ok() ||
        !ShardedIndex::LoadSnapshot(env, &reloaded).ok()) {
      return bad + static_cast<int>(sample.size());
    }
    for (EntityId q : sample) {
      bad += !SameAnswer(Query(q), reloaded.index->Query(q, kK, measure_),
                         "reloaded", q);
    }
    reloaded.index.reset();
    return bad;
  }
  DigitalTraceIndex::ConcurrencyStats concurrency() const override {
    return loaded_.index->concurrency_stats();
  }
  double index_mb() const override { return ShardedIndexMb(*loaded_.index); }
  double snapshot_mb() const override { return MiB(snapshot_bytes_); }

 private:
  dtrace::MemSnapshotEnv env_;
  uint64_t snapshot_bytes_ = 0;
  dtrace::LoadedShardedIndex loaded_;
  std::map<EntityId, std::vector<PresenceRecord>> replaced_;
};

/// One completed query of the timed phase.
struct QueryRecord {
  bool traced;
  double wall_ms;
  dtrace::QueryStats stats;
  LayerProbe::Totals trace;
  LayerProbe::Totals tree;
};

/// Writes issued by the benchmark, with their kind and service time.
struct WriteLog {
  std::vector<double> latency_ms;   // from due time (open loop) or issue
  std::vector<double> late_ms;      // open loop only
  std::vector<double> service_ms[3];  // per WriteKind, issue to done
  size_t count() const { return latency_ms.size(); }
};

/// Runs the open-loop writer of live-rw for `seconds`: write i is due at
/// i / kWriteRate seconds after `start`, and is timed from then.
void OpenLoopWriter(Workload& w, WriteMix& mix, const dtrace::Timer& start,
                    double seconds, WriteLog* log) {
  OpenLoopLedger ledger(1.0 / kWriteRate);
  for (uint64_t i = 0; ledger.Due(i) < seconds; ++i) {
    WriteOp op = mix.Next();
    const double wait = ledger.Due(i) - start.ElapsedSeconds();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const double issued = start.ElapsedSeconds();
    w.Write(op);
    const double done = start.ElapsedSeconds();
    ledger.Record(i, issued, done);
    log->service_ms[static_cast<int>(op.kind)].push_back((done - issued) *
                                                         1e3);
  }
  for (double s : ledger.latency_s()) log->latency_ms.push_back(s * 1e3);
  for (double s : ledger.late_s()) log->late_ms.push_back(s * 1e3);
}

/// One closed-loop write of a read-only workload, issued between two
/// queries so writes sample the same stretch of time as the reads.
void ClosedLoopWrite(Workload& w, WriteMix& mix, WriteLog* log) {
  const WriteOp op = mix.Next();
  const dtrace::Timer t;
  w.Write(op);
  const double ms = t.ElapsedMillis();
  log->latency_ms.push_back(ms);
  log->late_ms.push_back(0.0);
  log->service_ms[static_cast<int>(op.kind)].push_back(ms);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "hot-sharded") return std::make_unique<HotSharded>(seed);
  if (name == "cold-paged") return std::make_unique<ColdPaged>(seed);
  if (name == "live-rw") return std::make_unique<LiveRw>(seed);
  return nullptr;
}

const std::vector<std::string> kEndToEnd = {
    "setup_s",       "query_p50_ms",  "query_p90_ms", "query_qps",
    "write_p50_ms",  "write_p95_ms",  "ok_frac",      "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "core.query_self_ms",       "core.entities_checked",
    "core.nodes_visited",       "core.heap_pushes",
    "core.pe",                  "core.shards_pruned",
    "core.threshold_updates",   "core.work_over_wall",
    "core.write_ms.replace",    "core.write_ms.insert",
    "core.write_ms.remove",     "core.publishes_per_write",
    "core.reader_blocked_ms",   "core.writer_blocked_ms",
    "core.index_mb",            "hash.evals",
    "trace.cursor_ms",          "trace.cursor_calls",
    "trace.entities_fetched",   "trace.cache_hits",
    "storage.trace_pages_read", "storage.tree_pages_read",
    "storage.trace_hit_rate",   "storage.tree_hit_rate",
    "storage.evictions",        "storage.tree_cursor_ms",
    "storage.lock_wait_ms",     "storage.modeled_io_ms",
    "storage.io_retries",       "storage.checksum_failures",
    "storage.disk_mb",          "storage.snapshot_mb",
    "util.codec_ratio",         "bench.writer_late_ms",
    "bench.trace_overhead",     "bench.failed_frac"};

/// Everything the timed phase measured.
struct TimedPhase {
  std::vector<QueryRecord> records;
  WriteLog writes;
  uint64_t failed = 0;  // queries with a non-ok status
  DigitalTraceIndex::ConcurrencyStats cc0, cc1;    // served index
  DigitalTraceIndex::ConcurrencyStats wcc0, wcc1;  // write target
  PoolCounters pool0, pool1;
  /// Pool counters after the last counted traced query, and how many
  /// queries ran until then (the whole phase in an untraced run).
  PoolCounters pool_counted;
  size_t counted_window = 0;
};

/// The closed-loop query client (plus the live-rw writer thread), for at
/// least `args.seconds` and until every minimum sample count is met.
TimedPhase RunTimedPhase(Workload& w, QueryStream& stream, const Args& args,
                         SpanLog* spans, LayerProbe* trace_probe,
                         LayerProbe* tree_probe) {
  TimedPhase p;
  WriteMix mix(args.seed ^ 0x3171e5, &w.members(), &w.donors());
  p.cc0 = w.concurrency();
  p.wcc0 = w.write_concurrency();
  p.pool0 = w.pools();
  const dtrace::Timer start;
  std::thread writer;
  if (w.live_writes()) {
    writer = std::thread(OpenLoopWriter, std::ref(w), std::ref(mix),
                         std::cref(start), args.seconds, &p.writes);
  }
  size_t traced_done = 0;
  while (start.ElapsedSeconds() < args.seconds ||
         p.records.size() < kMinQueries ||
         (!w.live_writes() && p.writes.count() < kMinWrites) ||
         (args.trace && traced_done < kCountedTraced)) {
    if (start.ElapsedSeconds() > 3 * args.seconds + 30) break;
    const EntityId q = stream.Next();
    const bool traced = args.trace && p.records.size() % 2 == 1;
    const dtrace::Timer t;
    TopKResult r;
    if (traced) {
      spans->BeginQuery();
      r = w.TracedQuery(q, trace_probe, tree_probe);
      spans->EndQuery();
    } else {
      r = w.Query(q);
    }
    const double ms = t.ElapsedMillis();
    p.failed += !r.status.ok();
    p.records.push_back(
        {traced, ms, r.stats, trace_probe->Take(), tree_probe->Take()});
    if (traced && ++traced_done == kCountedTraced) {
      p.pool_counted = w.pools();
      p.counted_window = p.records.size();
    }
    for (int i = 0; i < w.writes_per_query(); ++i) {
      ClosedLoopWrite(w, mix, &p.writes);
    }
  }
  if (writer.joinable()) writer.join();
  p.cc1 = w.concurrency();
  p.wcc1 = w.write_concurrency();
  p.pool1 = w.pools();
  if (!args.trace) {
    p.pool_counted = p.pool1;
    p.counted_window = p.records.size();
  }
  return p;
}

/// The per-layer metrics. Times are medians over every traced query;
/// counts are means over the fixed prefix of kCountedTraced traced queries.
/// In an untraced run the plain queries stand in (cursor times read 0).
void AddLayerMetrics(const Args& args, const Workload& w, const TimedPhase& p,
                     double index_mb, size_t population, MetricSet* m) {
  std::vector<const QueryRecord*> timed, counted;
  for (const auto& rec : p.records) {
    if (rec.traced != args.trace) continue;
    timed.push_back(&rec);
    if (counted.size() < kCountedTraced) counted.push_back(&rec);
  }
  const uint64_t nc = counted.size(), nt = timed.size();
  auto mean_of = [&](auto field) {
    double sum = 0;
    for (const QueryRecord* r : counted) sum += static_cast<double>(field(*r));
    return counted.empty() ? 0.0 : sum / static_cast<double>(counted.size());
  };
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const QueryRecord* r : timed) v.push_back(field(*r));
    return Median(v);
  };
  auto stat = [&](uint64_t dtrace::QueryStats::*f) {
    return mean_of([f](const QueryRecord& r) { return r.stats.*f; });
  };
  auto io = [&](uint64_t dtrace::TraceIoStats::*f) {
    return mean_of([f](const QueryRecord& r) { return r.stats.io.*f; });
  };
  auto hit_rate = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  using dtrace::QueryStats;
  using dtrace::TraceIoStats;
  const bool sharded = w.sharded();
  m->Add("core.query_self_ms", median_of([&](const QueryRecord& r) {
           const double base =
               sharded ? r.stats.work_seconds * 1e3 : r.wall_ms;
           return base - static_cast<double>(r.trace.busy_ns +
                                             r.tree.busy_ns) * 1e-6;
         }), "ms", nt);
  m->Add("core.entities_checked", stat(&QueryStats::entities_checked),
         "count", nc);
  m->Add("core.nodes_visited", stat(&QueryStats::nodes_visited), "count", nc);
  m->Add("core.heap_pushes", stat(&QueryStats::heap_pushes), "count", nc);
  m->Add("core.pe", mean_of([&](const QueryRecord& r) {
           return r.stats.pruning_effectiveness(population, kK);
         }), "fraction", nc);
  m->Add("core.shards_pruned", stat(&QueryStats::shards_pruned), "count", nc);
  m->Add("core.threshold_updates", stat(&QueryStats::threshold_updates),
         "count", nc);
  m->Add("core.work_over_wall", median_of([](const QueryRecord& r) {
           return r.stats.elapsed_seconds > 0
                      ? r.stats.work_seconds / r.stats.elapsed_seconds
                      : 0.0;
         }), "ratio", nt);
  for (int k = 0; k < 3; ++k) {
    m->Add(std::string("core.write_ms.") + kWriteKindName[k],
           Median(p.writes.service_ms[k]), "ms", p.writes.service_ms[k].size());
  }
  m->Add("core.publishes_per_write",
         static_cast<double>(p.wcc1.snapshot_publishes -
                             p.wcc0.snapshot_publishes) /
             static_cast<double>(std::max<size_t>(1, p.writes.count())),
         "ratio", p.writes.count());
  m->Add("core.reader_blocked_ms",
         static_cast<double>(p.cc1.reader_blocked_ns -
                             p.cc0.reader_blocked_ns) * 1e-6,
         "ms/run", 1);
  m->Add("core.writer_blocked_ms",
         static_cast<double>(p.cc1.writer_blocked_ns -
                             p.cc0.writer_blocked_ns) * 1e-6,
         "ms/run", 1);
  m->Add("core.index_mb", index_mb, "MB", 1);
  m->Add("hash.evals", stat(&QueryStats::hash_evals), "count", nc);
  m->Add("trace.cursor_ms", median_of([](const QueryRecord& r) {
           return static_cast<double>(r.trace.busy_ns) * 1e-6;
         }), "ms", nt);
  m->Add("trace.cursor_calls",
         mean_of([](const QueryRecord& r) { return r.trace.calls; }), "count",
         nc);
  m->Add("trace.entities_fetched", io(&TraceIoStats::entities_fetched),
         "count", nc);
  m->Add("trace.cache_hits", io(&TraceIoStats::cache_hits), "count", nc);
  m->Add("storage.trace_pages_read", io(&TraceIoStats::pages_read), "count",
         nc);
  m->Add("storage.tree_pages_read", io(&TraceIoStats::tree_pages_read),
         "count", nc);
  m->Add("storage.trace_hit_rate",
         hit_rate(io(&TraceIoStats::pages_hit), io(&TraceIoStats::pages_read)),
         "fraction", nc);
  m->Add("storage.tree_hit_rate",
         hit_rate(io(&TraceIoStats::tree_page_hits),
                  io(&TraceIoStats::tree_pages_read)),
         "fraction", nc);
  m->Add("storage.evictions",
         p.counted_window > 0
             ? static_cast<double>(p.pool_counted.evictions -
                                   p.pool0.evictions) /
                   static_cast<double>(p.counted_window)
             : 0.0,
         "count", p.counted_window);
  m->Add("storage.tree_cursor_ms", median_of([](const QueryRecord& r) {
           return static_cast<double>(r.tree.busy_ns) * 1e-6;
         }), "ms", nt);
  m->Add("storage.lock_wait_ms",
         (p.pool1.lock_wait_s - p.pool0.lock_wait_s) * 1e3, "ms/run", 1);
  m->Add("storage.modeled_io_ms", mean_of([](const QueryRecord& r) {
           return r.stats.io.modeled_io_seconds * 1e3;
         }), "ms", nc);
  m->Add("storage.disk_mb", w.disk_mb(), "MB", 1);
  m->Add("storage.snapshot_mb", w.snapshot_mb(), "MB", 1);
  m->Add("util.codec_ratio", w.codec_ratio(), "ratio", 1);
  m->Add("bench.writer_late_ms",
         Percentile(p.writes.late_ms, 0.99).value_or(0.0), "ms",
         p.writes.count());
  std::vector<double> plain_ms, traced_ms;
  for (const auto& rec : p.records) {
    (rec.traced ? traced_ms : plain_ms).push_back(rec.wall_ms);
  }
  m->Add("bench.trace_overhead",
         args.trace ? Median(traced_ms) / Median(plain_ms) : 1.0, "ratio",
         traced_ms.size());
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
              "%g, \"trace\": %d, \"nproc\": %ld, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"code\": \"%s\"}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              args.code_version.c_str());

  // Set-up: from inputs in memory to ready to serve.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMaxSetupReps &&
         (setup_s.size() < kSetupReps || setup_total < kSetupBudgetS)) {
    w->Teardown();
    const dtrace::Timer t;
    w->Setup();
    setup_s.push_back(t.ElapsedSeconds());
    setup_total += setup_s.back();
  }
  const double index_mb = w->index_mb();
  const size_t population = w->population();

  QueryStream stream = w->MakeStream(args.seed * 0x9e3779b97f4a7c15ULL);
  uint64_t attempted = kWarmupQueries, failed = 0;
  for (int i = 0; i < kWarmupQueries; ++i) {
    failed += !w->Query(stream.Next()).status.ok();
  }

  SpanLog spans;
  LayerProbe trace_probe("trace", args.trace ? &spans : nullptr);
  LayerProbe tree_probe("storage", args.trace ? &spans : nullptr);
  const TimedPhase p =
      RunTimedPhase(*w, stream, args, &spans, &trace_probe, &tree_probe);
  attempted += p.records.size() + p.writes.count();
  failed += p.failed;

  // Answer checks, outside the timed window.
  QueryStream check_stream = w->MakeStream(args.seed + 0xc4ec);
  std::vector<EntityId> sample;
  for (int i = 0; i < kCheckQueries; ++i) sample.push_back(check_stream.Next());
  const int mismatches = w->CheckAnswers(sample);
  attempted += sample.size();
  failed += mismatches;
  int trace_mismatches = 0;
  if (args.trace) {
    for (EntityId q : sample) {
      const TopKResult plain = w->Query(q);
      const TopKResult traced = w->TracedQuery(q, &trace_probe, &tree_probe);
      trace_mismatches += !SameAnswer(plain, traced, "traced", q);
    }
    attempted += sample.size();
    failed += trace_mismatches;
  }
  std::printf("check oracle_mismatches=%d traced_vs_plain_mismatches=%d "
              "(sample of %d queries)\n",
              mismatches, trace_mismatches, kCheckQueries);

  // End-to-end metrics come from the untraced queries only.
  std::vector<double> plain_ms;
  double query_s = 0.0;
  for (const auto& rec : p.records) {
    if (!rec.traced) plain_ms.push_back(rec.wall_ms);
    query_s += rec.wall_ms * 1e-3;
  }
  PrintDistribution("query_ms", plain_ms);
  PrintDistribution("write_ms", p.writes.latency_ms);
  const auto p90 = Percentile(plain_ms, 0.90);
  const auto w95 = Percentile(p.writes.latency_ms, 0.95);
  if (!args.trace && (!p90 || !w95)) {
    std::fprintf(stderr, "too few samples: %zu queries, %zu writes\n",
                 plain_ms.size(), p.writes.count());
    return 3;
  }
  MetricSet m;
  m.Add("setup_s", Median(setup_s), "s", setup_s.size());
  m.Add("query_p50_ms", Median(plain_ms), "ms", plain_ms.size());
  m.Add("query_p90_ms", p90.value_or(0.0), "ms", plain_ms.size());
  // Queries per second of client time: the read-only workloads' writes,
  // issued between queries, are not charged to the reads.
  m.Add("query_qps", static_cast<double>(p.records.size()) / query_s, "1/s",
        p.records.size());
  m.Add("write_p50_ms", Median(p.writes.latency_ms), "ms", p.writes.count());
  m.Add("write_p95_ms", w95.value_or(0.0), "ms", p.writes.count());
  m.Add("ok_frac",
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
        "fraction", attempted);
  m.Add("peak_rss_mb", PeakRssMb(), "MB", 1);

  AddLayerMetrics(args, *w, p, index_mb, population, &m);
  uint64_t retries = 0, checksum_failures = 0;
  for (const auto& rec : p.records) {
    retries += rec.stats.io.io_retries;
    checksum_failures += rec.stats.io.checksum_failures;
  }
  m.Add("storage.io_retries", static_cast<double>(retries), "count/run",
        p.records.size());
  m.Add("storage.checksum_failures", static_cast<double>(checksum_failures),
        "count/run", p.records.size());
  m.Add("bench.failed_frac",
        static_cast<double>(failed) / static_cast<double>(attempted),
        "fraction", attempted);
  m.PrintLines();

  if (args.trace) {
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    std::printf("spans %zu written to %s: %s\n", spans.size(), path.c_str(),
                spans.WriteJsonl(path) ? "ok" : "FAILED");
  }
  const bool correct = failed == 0 && retries == 0 && checksum_failures == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              m.Json(args.trace ? kPerLayer : kEndToEnd).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--code-version") {
      args.code_version = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--code-version V]\n");
    return 2;
  }
  return perfbench::Run(args);
}
