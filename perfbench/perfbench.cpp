// PARALAGG benchmark: three seeded workloads on 4 vmpi ranks, every result
// checked against the sequential oracles of queries/reference.
//
//   paralagg_perfbench --workload <sssp-rmat|pagerank-ssp|serve-mixed>
//                      --seed <n> --seconds <s> --trace <0|1>
//
// Each workload repeats a fixed unit of work (a "repetition": set-up, the
// timed operations, the oracle check) until --seconds have elapsed, then
// reports medians over the repetitions.  Every layer is measured from the
// outside, through its public calls and the structs they return
// (RunResult, ProfileSummary, CommStats, JoinKernelTotals, UpdateResult,
// TupleBTree::comparisons()).
//
// --trace 0 prints the end-to-end metrics.  --trace 1 spends half the
// budget untraced and half with spans recorded around every public call,
// prints the per-layer metrics (counters, per-layer self time, tracing
// overhead) and writes the spans as Chrome trace-event JSON to
// .bench_out/trace-<workload>-seed<seed>.json.
//
// A wrong result, an abort, a rolled-back batch or a deterministic counter
// that differs between repetitions counts as a failed operation and marks
// the whole run "correct": false, so its numbers are never a data point.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <optional>
#include <unordered_map>
#include <vector>

#include "paralagg/paralagg.hpp"

namespace pb {

using namespace paralagg;
using core::Phase;
using core::Tuple;
using core::value_t;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 4;
constexpr int kNodes = 2;  // 2 nodes x 2 ranks: cross-node bytes differ from remote bytes
constexpr int kScale = 16;
constexpr int kEdgeFactor = 8;
constexpr std::size_t kHubs = 3;
constexpr std::size_t kPagerankRounds = 20;
constexpr std::size_t kBatches = 300;  // per serve-mixed repetition
constexpr std::size_t kInsertsPerBatch = 8;
constexpr std::size_t kDeletesPerBatch = 4;
constexpr std::size_t kLookupKeys = 256;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear interpolation between closest ranks (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory (rank 0 / the main thread only), written
// as Chrome trace-event JSON at exit.

struct Span {
  std::string name;
  std::string layer;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  long batch = -1;
  int rep = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  bool enabled = false;
  int rep = 0;

  int open(std::string name, std::string layer, long batch = -1) {
    if (!enabled) return -1;
    Span s{std::move(name), std::move(layer), now_us(), 0,
           stack_.empty() ? -1 : stack_.back(), batch, rep};
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  /// Self time per layer: a span's duration minus what its children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out[s.layer] += (s.end_us - s.start_us - child[i]) * 1e-6;
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  bool write_chrome_json(const std::filesystem::path& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                    "\"batch\":%ld,\"rep\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(), s.start_us,
                    s.end_us - s.start_us, i, s.parent, s.batch, s.rep);
      f << buf;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer (non-root rank) records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* t, std::string name, std::string layer, long batch = -1)
      : t_(t), id_(t ? t->open(std::move(name), std::move(layer), batch) : -1) {}
  ~SpanScope() {
    if (t_) t_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Counters of one repetition.

/// The CommStats fields the benchmark reports, flattened so a delta is a
/// field-wise subtraction.
struct CommCounters {
  std::uint64_t remote = 0, alltoallv = 0, p2p = 0, allgather = 0, cross = 0;
  std::uint64_t steps = 0, collective_calls = 0, messages = 0;
  std::uint64_t retransmits = 0, dup_frames = 0;
  double wait_s = 0;

  static CommCounters of(const vmpi::CommStats& s) {
    CommCounters c;
    c.remote = s.total_remote_bytes();
    c.alltoallv = s.remote_bytes(vmpi::Op::kAlltoallv);
    c.p2p = s.remote_bytes(vmpi::Op::kP2P);
    c.allgather = s.remote_bytes(vmpi::Op::kAllgather);
    c.cross = s.total_cross_node_bytes();
    c.steps = s.total_steps();
    for (std::size_t i = 0; i < vmpi::kOpCount; ++i) {
      if (static_cast<vmpi::Op>(i) != vmpi::Op::kP2P) c.collective_calls += s.calls[i];
    }
    c.messages = s.messages_sent;
    c.retransmits = s.retransmits;
    c.dup_frames = s.dup_frames_discarded;
    c.wait_s = s.wait_seconds;
    return c;
  }

  CommCounters& operator+=(const CommCounters& o) {
    remote += o.remote, alltoallv += o.alltoallv, p2p += o.p2p, allgather += o.allgather;
    cross += o.cross, steps += o.steps, collective_calls += o.collective_calls;
    messages += o.messages, retransmits += o.retransmits, dup_frames += o.dup_frames;
    wait_s += o.wait_s;
    return *this;
  }
  CommCounters operator-(const CommCounters& o) const {
    CommCounters c = *this;
    c.remote -= o.remote, c.alltoallv -= o.alltoallv, c.p2p -= o.p2p;
    c.allgather -= o.allgather, c.cross -= o.cross, c.steps -= o.steps;
    c.collective_calls -= o.collective_calls, c.messages -= o.messages;
    c.retransmits -= o.retransmits, c.dup_frames -= o.dup_frames;
    c.wait_s -= o.wait_s;
    return c;
  }

  /// Sum over ranks.  Collective; kept out of the measured traffic.
  CommCounters summed(vmpi::Comm& comm) const {
    vmpi::StatsPause pause(comm);
    const auto sum = [&](std::uint64_t v) {
      return comm.allreduce<std::uint64_t>(v, vmpi::ReduceOp::kSum);
    };
    CommCounters c;
    c.remote = sum(remote), c.alltoallv = sum(alltoallv), c.p2p = sum(p2p);
    c.allgather = sum(allgather), c.cross = sum(cross), c.steps = sum(steps);
    c.collective_calls = sum(collective_calls), c.messages = sum(messages);
    c.retransmits = sum(retransmits), c.dup_frames = sum(dup_frames);
    c.wait_s = comm.allreduce<double>(wait_s, vmpi::ReduceOp::kSum);
    return c;
  }
};

/// What one repetition measured.  Timings vary run to run; the fields in
/// deterministic_key() must not.
struct Rep {
  double setup_s = 0, gen_s = 0, build_s = 0, load_s = 0;
  double fixpoint_s = 0;
  double wall_s = 0;  // the whole repetition, check included
  std::vector<double> apply_ms, lookup_ms;

  core::ProfileSummary profile;
  core::JoinKernelTotals kernel, kernel_max;
  std::size_t iterations = 0;
  std::uint64_t tuples_generated = 0;
  std::uint64_t fixpoint_rows = 0;
  std::uint64_t edge_comparisons = 0;
  std::uint64_t local_join_work = 0, dedup_agg_work = 0;  // BSP engine only
  CommCounters comm;
  std::uint64_t batches = 0;
  CommCounters stream_comm;  // serve-mixed: apply_updates + lookup_batch only

  // serve-mixed (sums of UpdateResult over the stream)
  std::uint64_t retracted = 0, recovered = 0, retraction_rounds = 0, tail_iterations = 0;
  std::uint64_t tuples_derived = 0, lookup_rows = 0, lookup_keys = 0, lookup_comparisons = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }

  /// Counters that must repeat exactly across repetitions of one seed.
  /// Remote bytes are compared without Phase::kOther: on the async engine
  /// that phase carries the Safra token, whose circulation count depends
  /// on thread scheduling by design (a few 48-byte frames per run).
  [[nodiscard]] std::vector<std::pair<const char*, std::uint64_t>> deterministic_key() const {
    const auto other = profile.total_bytes[static_cast<std::size_t>(Phase::kOther)];
    return {{"remote_bytes without termination traffic", comm.remote - other},
            {"vmpi.steps", comm.steps},
            {"core.iterations", iterations},
            {"core.tuples_generated", tuples_generated},
            {"core.kernel.probes", kernel.probes},
            {"core.kernel.probe_seeks", kernel.probe_seeks},
            {"core.kernel.matches", kernel.matches},
            {"core.kernel.outer_shipped", kernel.outer_tuples_shipped},
            {"core.kernel_max.probes", kernel_max.probes},
            {"serving.tuples_derived", tuples_derived},
            {"serving.retracted", retracted},
            {"serving.recovered", recovered}};
  }
};

/// A batch evaluation has no update stream: the whole input is applied as
/// one update, the evaluation, and its local joins are its point lookups
/// into the resident relations.  So one repetition adds one apply sample,
/// the fixpoint's wall time, and one lookup sample, the critical path of
/// its Phase::kLocalJoin (B-tree probes, thread-CPU time).
void take_evaluation_latencies(Rep& rep, const core::ProfileSummary& p) {
  rep.apply_ms.push_back(rep.fixpoint_s * 1e3);
  rep.lookup_ms.push_back(p.modelled_seconds[static_cast<std::size_t>(Phase::kLocalJoin)] * 1e3);
}

void take_run(Rep& rep, const core::RunResult& run) {
  rep.profile = run.profile;
  rep.kernel = run.kernel;
  rep.kernel_max = run.kernel_max;
  rep.iterations = run.total_iterations;
  rep.tuples_generated = 0;
  for (const auto& s : run.strata) rep.tuples_generated += s.tuples_generated;
  rep.comm = CommCounters::of(run.comm_total);
}

/// Barrier outside the measured traffic.
void quiet_barrier(vmpi::Comm& comm) {
  vmpi::StatsPause pause(comm);
  comm.barrier();
}

vmpi::RunOptions run_options() {
  vmpi::RunOptions o;
  o.topology = vmpi::Topology::grouped(kRanks, kNodes);
  return o;
}

graph::Graph make_graph(std::uint64_t seed) {
  return graph::make_rmat({.scale = kScale, .edge_factor = kEdgeFactor, .seed = seed});
}

// ---------------------------------------------------------------------------
// Workloads.

struct Context {
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;  // main-thread view; rank 0 uses it too
  double oracle_s = 0;
};

Tracer* root_tracer(const vmpi::Comm& comm, Tracer* t) { return comm.rank() == 0 ? t : nullptr; }

/// sssp-rmat: BSP core::Engine, multi-source $MIN SSSP from the 3 hubs.
class SsspRmat {
 public:
  explicit SsspRmat(Context& ctx) : ctx_(ctx) {
    const auto g = make_graph(ctx.seed);
    sources_ = g.pick_hubs(kHubs);
    SpanScope span(ctx.tracer, "reference::sssp", "oracle");
    const auto t0 = Clock::now();
    oracle_ = queries::reference::sssp(g, sources_);
    ctx.oracle_s = seconds_since(t0);
  }

  Rep run_once() {
    Rep rep;
    Tracer* tr = ctx_.tracer;
    graph::Graph g;
    {
      SpanScope span(tr, "make_rmat", "graph");
      const auto t0 = Clock::now();
      g = make_graph(ctx_.seed);
      rep.gen_s = seconds_since(t0);
    }
    std::vector<Tuple> rows;
    vmpi::run(kRanks, run_options(), [&](vmpi::Comm& comm) {
      Tracer* t = root_tracer(comm, tr);
      quiet_barrier(comm);
      auto t0 = Clock::now();
      queries::SsspProgram p;
      {
        SpanScope span(t, "build_sssp_program", "queries");
        p = queries::build_sssp_program(comm);
        quiet_barrier(comm);
      }
      const double build_s = seconds_since(t0);
      t0 = Clock::now();
      {
        SpanScope span(t, "load_sssp_facts", "queries");
        queries::load_sssp_facts(p, g, sources_);
        quiet_barrier(comm);
      }
      const double load_s = seconds_since(t0);
      // From here on the edge tree's counter sees only the join's work.
      p.edge->tree(core::Version::kFull).reset_counters();

      core::Engine engine(comm);
      quiet_barrier(comm);
      t0 = Clock::now();
      core::RunResult run;
      {
        SpanScope span(t, "Engine::run", "core");
        run = engine.run(*p.program);
        quiet_barrier(comm);
      }
      const double fix_s = seconds_since(t0);

      vmpi::StatsPause pause(comm);
      const auto cmps = comm.allreduce<std::uint64_t>(
          p.edge->tree(core::Version::kFull).comparisons(), vmpi::ReduceOp::kSum);
      const auto paths = p.spath->global_size(core::Version::kFull);
      std::uint64_t join_work = 0, agg_work = 0;
      for (const auto& it : engine.rank_profile().history()) {
        join_work += it.work[static_cast<std::size_t>(Phase::kLocalJoin)];
        agg_work += it.work[static_cast<std::size_t>(Phase::kDedupAgg)];
      }
      join_work = comm.allreduce<std::uint64_t>(join_work, vmpi::ReduceOp::kSum);
      agg_work = comm.allreduce<std::uint64_t>(agg_work, vmpi::ReduceOp::kSum);
      std::vector<Tuple> gathered;
      {
        SpanScope span(t, "Relation::gather_to_root", "core");
        gathered = p.spath->gather_to_root(0);
      }
      if (comm.rank() == 0) {
        rep.build_s = build_s;
        rep.load_s = load_s;
        rep.fixpoint_s = fix_s;
        take_run(rep, run);
        take_evaluation_latencies(rep, run.profile);
        rep.fixpoint_rows = paths;
        rep.edge_comparisons = cmps;
        rep.local_join_work = join_work;
        rep.dedup_agg_work = agg_work;
        if (run.aborted_fault || run.aborted_tuple_limit) rep.fail("engine run aborted");
        rows = std::move(gathered);
      }
    });
    rep.setup_s = rep.gen_s + rep.build_s + rep.load_s;
    rep.attempted = 1;
    SpanScope span(tr, "check vs Dijkstra", "oracle");
    check(rep, rows);
    return rep;
  }

 private:
  void check(Rep& rep, const std::vector<Tuple>& rows) const {
    if (rows.size() != oracle_.size()) {
      rep.fail("sssp: " + std::to_string(rows.size()) + " paths, oracle has " +
               std::to_string(oracle_.size()));
      return;
    }
    for (const auto& r : rows) {  // stored order (to, from, dist)
      const auto it = oracle_.find({r[1], r[0]});
      if (it == oracle_.end() || it->second != r[2]) {
        rep.fail("sssp: distance mismatch at (" + std::to_string(r[1]) + ", " +
                 std::to_string(r[0]) + ")");
        return;
      }
    }
  }

  Context& ctx_;
  std::vector<value_t> sources_;
  std::map<std::pair<value_t, value_t>, value_t> oracle_;
};

/// pagerank-ssp: async::AsyncEngine in stale-synchronous mode (staleness
/// 1), 20 $SUM refresh rounds.
class PagerankSsp {
 public:
  explicit PagerankSsp(Context& ctx) : ctx_(ctx) {
    const auto g = make_graph(ctx.seed);
    SpanScope span(ctx.tracer, "reference::pagerank", "oracle");
    const auto t0 = Clock::now();
    oracle_ = queries::reference::pagerank(g, kPagerankRounds);
    ctx.oracle_s = seconds_since(t0);
  }

  Rep run_once() {
    Rep rep;
    Tracer* tr = ctx_.tracer;
    graph::Graph g;
    {
      SpanScope span(tr, "make_rmat", "graph");
      const auto t0 = Clock::now();
      g = make_graph(ctx_.seed);
      rep.gen_s = seconds_since(t0);
    }
    std::vector<Tuple> ranks;
    vmpi::run(kRanks, run_options(), [&](vmpi::Comm& comm) {
      Tracer* t = root_tracer(comm, tr);
      queries::PagerankOptions opts;
      opts.rounds = kPagerankRounds;
      opts.tuning.use_async = true;
      opts.tuning.async.ssp = true;
      opts.tuning.async.ssp_staleness = 1;
      opts.collect_ranks = true;
      quiet_barrier(comm);
      const auto t0 = Clock::now();
      queries::PagerankResult res;
      {
        SpanScope span(t, "run_pagerank", "core");
        res = queries::run_pagerank(comm, g, opts);
        quiet_barrier(comm);
      }
      const double call_s = seconds_since(t0);
      vmpi::StatsPause pause(comm);
      const double engine_s =
          comm.allreduce<double>(res.run.wall_seconds, vmpi::ReduceOp::kMax);
      if (comm.rank() == 0) {
        rep.fixpoint_s = call_s;
        // run_pagerank builds and loads its program (and gathers the ranks)
        // inside the call: the part around the engine run.
        rep.load_s = call_s - engine_s;
        take_run(rep, res.run);
        take_evaluation_latencies(rep, res.run.profile);
        rep.fixpoint_rows = res.ranked_nodes;
        if (res.run.aborted_fault || res.run.aborted_tuple_limit) rep.fail("pagerank aborted");
        ranks = std::move(res.ranks);
      }
    });
    rep.setup_s = rep.gen_s;
    rep.attempted = 1;
    SpanScope span(tr, "check vs reference::pagerank", "oracle");
    if (ranks.size() != oracle_.size()) {
      rep.fail("pagerank: " + std::to_string(ranks.size()) + " ranked nodes, oracle has " +
               std::to_string(oracle_.size()));
    } else {
      for (const auto& r : ranks) {
        if (r[0] >= oracle_.size() || oracle_[r[0]] != r[1]) {
          rep.fail("pagerank: rank mismatch at node " + std::to_string(r[0]));
          break;
        }
      }
    }
    return rep;
  }

 private:
  Context& ctx_;
  std::vector<value_t> oracle_;
};

/// serve-mixed: serving::ServingEngine over resident SSSP, a closed loop
/// of seeded batches (8 inserts + 4 deletes of live edges), each followed
/// by one lookup_batch of 256 random node keys.
class ServeMixed {
 public:
  explicit ServeMixed(Context& ctx) : ctx_(ctx) {}

  Rep run_once() {
    Rep rep;
    Tracer* tr = ctx_.tracer;
    graph::Graph g;
    Stream stream;
    {
      SpanScope span(tr, "make_rmat", "graph");
      const auto t0 = Clock::now();
      g = make_graph(ctx_.seed);
      stream = make_stream(g, ctx_.seed);
      rep.gen_s = seconds_since(t0);
    }
    const auto sources = g.pick_hubs(kHubs);

    std::vector<Tuple> served, fresh, last_keys_rows;
    std::vector<std::vector<Tuple>> last_lookup;
    vmpi::run(kRanks, run_options(), [&](vmpi::Comm& comm) {
      Tracer* t = root_tracer(comm, tr);
      const bool root = comm.rank() == 0;
      quiet_barrier(comm);
      auto t0 = Clock::now();
      queries::SsspProgram p;
      std::optional<serving::ServingEngine> srv;
      {
        SpanScope span(t, "build_sssp_program + ServingEngine", "queries");
        p = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
        srv.emplace(comm, *p.program, serving::ServingConfig{});
        quiet_barrier(comm);
      }
      const double build_s = seconds_since(t0);
      t0 = Clock::now();
      {
        SpanScope span(t, "load_sssp_facts", "queries");
        queries::load_sssp_facts(p, g, sources);
        quiet_barrier(comm);
      }
      const double load_s = seconds_since(t0);
      t0 = Clock::now();
      core::RunResult run;
      {
        SpanScope span(t, "ServingEngine::start", "core");
        run = srv->start();
        quiet_barrier(comm);
      }
      const double start_s = seconds_since(t0);
      const auto rows_at_start = [&] {
        vmpi::StatsPause pause(comm);
        return p.spath->global_size(core::Version::kFull);
      }();

      std::vector<double> apply_ms, lookup_ms;
      CommCounters stream_comm;
      std::uint64_t lookup_cmps = 0, lookup_rows = 0;
      std::vector<std::string> errors;
      UpdateSums sums;
      {
        SpanScope stream_span(t, "update stream", "bench");
        for (std::size_t b = 0; b < stream.batches.size(); ++b) {
          const auto& batch = stream.batches[b];
          const auto sharded = shard(comm, batch);
          quiet_barrier(comm);
          auto before = CommCounters::of(comm.stats());
          auto c0 = Clock::now();
          serving::UpdateResult res;
          {
            SpanScope span(t, "apply_updates", "serving", static_cast<long>(b));
            res = srv->apply_updates(sharded);
          }
          const double a_ms = seconds_since(c0) * 1e3;
          stream_comm += CommCounters::of(comm.stats()) - before;
          if (res.aborted_fault || res.rolled_back) {
            errors.push_back("batch " + std::to_string(b) + " aborted: " + res.fault_what);
          } else if (res.base_deleted != kDeletesPerBatch || res.missing_deletes != 0 ||
                     res.base_inserted != batch.new_inserts) {
            errors.push_back("batch " + std::to_string(b) + " base mutation counts off");
          }
          sums.add(res);

          quiet_barrier(comm);
          before = CommCounters::of(comm.stats());
          const auto cmp0 = p.spath->tree(core::Version::kFull).comparisons();
          c0 = Clock::now();
          std::vector<std::vector<Tuple>> got;
          {
            SpanScope span(t, "lookup_batch", "serving", static_cast<long>(b));
            got = srv->lookup_batch("spath", batch.keys);
          }
          const double l_ms = seconds_since(c0) * 1e3;
          stream_comm += CommCounters::of(comm.stats()) - before;
          lookup_cmps += p.spath->tree(core::Version::kFull).comparisons() - cmp0;
          bool shape_ok = got.size() == batch.keys.size();
          for (std::size_t k = 0; shape_ok && k < got.size(); ++k) {
            for (const auto& row : got[k]) shape_ok = shape_ok && row[0] == batch.keys[k][0];
            lookup_rows += got[k].size();
          }
          if (!shape_ok) errors.push_back("batch " + std::to_string(b) + " lookup rows mis-keyed");
          if (root) {
            apply_ms.push_back(a_ms);
            lookup_ms.push_back(l_ms);
          }
          if (root && b + 1 == stream.batches.size()) last_lookup = std::move(got);
        }
      }
      const auto summed = stream_comm.summed(comm);
      vmpi::StatsPause pause(comm);
      lookup_cmps = comm.allreduce<std::uint64_t>(lookup_cmps, vmpi::ReduceOp::kSum);
      auto all = srv->lookup("spath", {});

      // Fresh evaluation of the mutated graph, outside the timed stream.
      queries::SsspOptions opts;
      opts.sources = sources;
      opts.collect_distances = true;
      auto fresh_res = queries::run_sssp(comm, stream.final_graph, opts);
      if (root) {
        rep.build_s = build_s;
        rep.load_s = load_s;
        rep.fixpoint_s = start_s;
        take_run(rep, run);
        rep.comm += summed;
        rep.stream_comm = summed;
        rep.fixpoint_rows = rows_at_start;
        rep.apply_ms = std::move(apply_ms);
        rep.lookup_ms = std::move(lookup_ms);
        rep.batches = stream.batches.size();
        rep.lookup_keys = stream.batches.size() * kLookupKeys;
        rep.lookup_comparisons = lookup_cmps;
        rep.lookup_rows = lookup_rows;
        sums.into(rep);
        if (run.aborted_fault) rep.fail("cold start aborted");
        for (auto& e : errors) rep.fail(std::move(e));
        served = std::move(all);
        fresh = std::move(fresh_res.distances);
      }
    });
    rep.setup_s = rep.gen_s + rep.build_s + rep.load_s;
    rep.attempted = 1 + 2 * rep.batches;
    SpanScope span(tr, "check vs fresh run_sssp + Dijkstra", "oracle");
    check(rep, stream, sources, served, fresh, last_lookup);
    return rep;
  }

 private:
  struct Batch {
    std::vector<Tuple> inserts, deletes;  // full stored-order edge rows (src, dst, w)
    std::size_t new_inserts = 0;          // inserts that were not live edges
    std::vector<Tuple> keys;              // lookup keys (to-node)
  };
  struct Stream {
    std::vector<Batch> batches;
    graph::Graph final_graph;
  };

  struct UpdateSums {
    std::uint64_t retracted = 0, recovered = 0, rounds = 0, tail = 0, derived = 0;
    void add(const serving::UpdateResult& r) {
      retracted += r.retracted, recovered += r.recovered, rounds += r.retraction_rounds;
      tail += r.tail_iterations, derived += r.tuples_derived;
    }
    void into(Rep& rep) const {
      rep.retracted = retracted, rep.recovered = recovered, rep.retraction_rounds = rounds;
      rep.tail_iterations = tail, rep.tuples_derived = derived;
    }
  };

  /// The seeded stream and the graph it leaves behind.  Deletes name edges
  /// live at that point (the edge relation is a set); a batch applies its
  /// deletes before its inserts, as apply_updates does.
  static Stream make_stream(const graph::Graph& g, std::uint64_t seed) {
    struct EdgeHash {
      std::size_t operator()(const graph::Edge& e) const {
        return storage::mix64(e.src * 0x9e3779b97f4a7c15ULL ^ e.dst * 0xbf58476d1ce4e5b9ULL ^
                              e.weight);
      }
    };
    std::vector<graph::Edge> live;
    std::unordered_map<graph::Edge, std::size_t, EdgeHash> index;
    live.reserve(g.edges.size() + kBatches * kInsertsPerBatch);
    for (const auto& e : g.edges) {
      if (index.emplace(e, live.size()).second) live.push_back(e);
    }
    const auto remove = [&](std::size_t i) {
      index.erase(live[i]);
      if (i + 1 != live.size()) {
        live[i] = live.back();
        index[live[i]] = i;
      }
      live.pop_back();
    };

    graph::Rng rng(seed ^ 0x5e57ed5eedULL);
    Stream s;
    s.batches.resize(kBatches);
    for (auto& b : s.batches) {
      for (std::size_t d = 0; d < kDeletesPerBatch; ++d) {
        const auto i = static_cast<std::size_t>(rng.below(live.size()));
        const auto& e = live[i];
        b.deletes.push_back(Tuple{e.src, e.dst, e.weight});
        remove(i);
      }
      for (std::size_t k = 0; k < kInsertsPerBatch; ++k) {
        const graph::Edge e{rng.below(g.num_nodes), rng.below(g.num_nodes), 1 + rng.below(100)};
        b.inserts.push_back(Tuple{e.src, e.dst, e.weight});
        if (index.emplace(e, live.size()).second) {
          live.push_back(e);
          ++b.new_inserts;
        }
      }
      for (std::size_t k = 0; k < kLookupKeys; ++k) b.keys.push_back(Tuple{rng.below(g.num_nodes)});
    }
    s.final_graph.name = g.name + "+stream";
    s.final_graph.num_nodes = g.num_nodes;
    s.final_graph.edges = std::move(live);
    return s;
  }

  /// Each row contributed by exactly one rank (round-robin).
  static serving::UpdateBatch shard(const vmpi::Comm& comm, const Batch& b) {
    serving::RelationDelta d;
    d.relation = "edge";
    const auto n = static_cast<std::size_t>(comm.size());
    for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < b.inserts.size(); i += n) {
      d.inserts.push_back(b.inserts[i]);
    }
    for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < b.deletes.size(); i += n) {
      d.deletes.push_back(b.deletes[i]);
    }
    return {std::move(d)};
  }

  void check(Rep& rep, const Stream& stream, const std::vector<value_t>& sources,
             const std::vector<Tuple>& served, const std::vector<Tuple>& fresh,
             const std::vector<std::vector<Tuple>>& last_lookup) {
    if (served != fresh) {
      rep.fail("serve: final state (" + std::to_string(served.size()) +
               " rows) != fresh run_sssp (" + std::to_string(fresh.size()) + " rows)");
      return;
    }
    const auto t0 = Clock::now();
    const auto oracle = queries::reference::sssp(stream.final_graph, sources);
    ctx_.oracle_s = seconds_since(t0);
    bool oracle_ok = oracle.size() == fresh.size();
    for (std::size_t i = 0; oracle_ok && i < fresh.size(); ++i) {
      const auto& r = fresh[i];
      const auto it = oracle.find({r[1], r[0]});
      oracle_ok = it != oracle.end() && it->second == r[2];
    }
    if (!oracle_ok) rep.fail("serve: fresh run_sssp disagrees with Dijkstra");
    // The last batch's lookups were served from the final state.
    const auto& keys = stream.batches.back().keys;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const auto lo = std::lower_bound(served.begin(), served.end(), keys[k][0],
                                       [](const Tuple& t, value_t v) { return t[0] < v; });
      std::vector<Tuple> want;
      for (auto it = lo; it != served.end() && (*it)[0] == keys[k][0]; ++it) want.push_back(*it);
      if (k >= last_lookup.size() || last_lookup[k] != want) {
        rep.fail("serve: lookup of node " + std::to_string(keys[k][0]) + " disagrees");
        return;
      }
    }
  }

  Context& ctx_;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

template <typename F>
double median_of(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(static_cast<double>(f(r)));
  return median(v);
}

std::vector<double> pooled(const std::vector<Rep>& reps, std::vector<double> Rep::*field) {
  std::vector<double> v;
  for (const auto& r : reps) v.insert(v.end(), (r.*field).begin(), (r.*field).end());
  return v;
}

/// Percentile q of the latency samples.  When each repetition holds a
/// stream, every repetition replays the same seeded batches, so batch i's
/// latency is its median over the repetitions (a stall of the shared host
/// hits one repetition's batch i, not all of them) and q is taken over those
/// per-batch medians.  When each holds one sample, q is taken over them all.
double latency(const std::vector<Rep>& reps, std::vector<double> Rep::*field, double q) {
  if ((reps.front().*field).size() <= 1) return percentile(pooled(reps, field), q);
  std::vector<double> per_batch((reps.front().*field).size());
  for (std::size_t i = 0; i < per_batch.size(); ++i) {
    per_batch[i] = median_of(reps, [&](const Rep& r) { return (r.*field).at(i); });
  }
  return percentile(std::move(per_batch), q);
}

std::vector<Metric> end_to_end(const std::vector<Rep>& reps) {
  return {
      {"fixpoint_s", median_of(reps, [](const Rep& r) { return r.fixpoint_s; }), "s"},
      {"modelled_s", median_of(reps, [](const Rep& r) { return r.profile.modelled_total(); }),
       "s"},
      {"remote_bytes", median_of(reps, [](const Rep& r) { return r.comm.remote; }), "bytes"},
      {"apply_ms_p50", latency(reps, &Rep::apply_ms, 0.50), "ms"},
      {"apply_ms_p95", latency(reps, &Rep::apply_ms, 0.95), "ms"},
      {"lookup_ms_p50", latency(reps, &Rep::lookup_ms, 0.50), "ms"},
      {"lookup_ms_p95", latency(reps, &Rep::lookup_ms, 0.95), "ms"},
      {"setup_s", median_of(reps, [](const Rep& r) { return r.setup_s; }), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<Metric> per_layer(const std::vector<Rep>& untraced, const std::vector<Rep>& traced,
                              const Tracer& tracer, double oracle_s) {
  std::vector<Rep> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  // Counters are identical across repetitions (checked); timings are medians.
  const Rep& r = all.front();
  const auto& c = r.comm;
  const auto med = [&](auto f) { return median_of(all, f); };
  const auto phase_s = [&](Phase x) {
    return med([x](const Rep& e) {
      return e.profile.modelled_seconds[static_cast<std::size_t>(x)];
    });
  };
  const auto phase_bytes = [&](Phase x) {
    return static_cast<double>(r.profile.total_bytes[static_cast<std::size_t>(x)]);
  };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const auto self = tracer.self_seconds();
  const auto self_s = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second / d(traced.size());
  };
  const double untraced_wall = median_of(untraced, [](const Rep& e) { return e.wall_s; });
  const double traced_wall = median_of(traced, [](const Rep& e) { return e.wall_s; });

  return {
      {"graph.gen_s", med([](const Rep& e) { return e.gen_s; }), "s"},
      {"queries.build_s", med([](const Rep& e) { return e.build_s; }), "s"},
      {"queries.load_s", med([](const Rep& e) { return e.load_s; }), "s"},
      {"queries.oracle_s", oracle_s, "s"},
      {"core.balance_s", phase_s(Phase::kBalance), "s"},
      {"core.plan_s", phase_s(Phase::kPlan), "s"},
      {"core.intra_bucket_s", phase_s(Phase::kIntraBucket), "s"},
      {"core.local_join_s", phase_s(Phase::kLocalJoin), "s"},
      {"core.all_to_all_s", phase_s(Phase::kAllToAll), "s"},
      {"core.dedup_agg_s", phase_s(Phase::kDedupAgg), "s"},
      {"core.overlap_wait_s", phase_s(Phase::kOverlapWait), "s"},
      {"core.other_s", phase_s(Phase::kOther), "s"},
      {"core.local_join_work", d(r.local_join_work), "count"},
      {"core.dedup_agg_work", d(r.dedup_agg_work), "count"},
      {"core.intra_bucket_bytes", phase_bytes(Phase::kIntraBucket), "bytes"},
      {"core.all_to_all_bytes", phase_bytes(Phase::kAllToAll), "bytes"},
      {"core.iterations", d(r.iterations), "count"},
      {"core.tuples_generated", d(r.tuples_generated), "count"},
      {"core.materialize_yield", ratio(d(r.fixpoint_rows), d(r.tuples_generated)), "ratio"},
      {"core.kernel.probes", d(r.kernel.probes), "count"},
      {"core.kernel.probe_seeks", d(r.kernel.probe_seeks), "count"},
      {"core.kernel.matches", d(r.kernel.matches), "count"},
      {"core.kernel.outer_shipped", d(r.kernel.outer_tuples_shipped), "count"},
      {"core.kernel.straggler",
       ratio(d(r.kernel_max.probes) * kRanks, d(r.kernel.probes)), "ratio"},
      {"storage.cmp_per_probe", ratio(d(r.edge_comparisons), d(r.kernel.probes)), "count"},
      {"storage.lookup_cmp_per_key", ratio(d(r.lookup_comparisons), d(r.lookup_keys)), "count"},
      {"vmpi.bytes.alltoallv", d(c.alltoallv), "bytes"},
      {"vmpi.bytes.p2p", d(c.p2p), "bytes"},
      {"vmpi.bytes.allgather", d(c.allgather), "bytes"},
      {"vmpi.cross_node_bytes", d(c.cross), "bytes"},
      {"vmpi.steps", d(c.steps), "count"},
      {"vmpi.steps_per_batch", ratio(d(r.stream_comm.steps), d(r.batches)), "count"},
      {"vmpi.collective_calls", d(c.collective_calls), "count"},
      {"vmpi.messages", d(c.messages), "count"},
      {"vmpi.wait_s", med([](const Rep& e) { return e.comm.wait_s; }), "s"},
      {"vmpi.retransmits", d(c.retransmits), "count"},
      {"vmpi.dup_frames_discarded", d(c.dup_frames), "count"},
      {"serving.retracted", d(r.retracted), "count"},
      {"serving.recovered", d(r.recovered), "count"},
      {"serving.retraction_rounds", d(r.retraction_rounds), "count"},
      {"serving.tail_iterations", d(r.tail_iterations), "count"},
      {"serving.tuples_derived", d(r.tuples_derived), "count"},
      {"serving.lookup_rows", d(r.lookup_rows), "count"},
      {"trace.self_s.graph", self_s("graph"), "s"},
      {"trace.self_s.queries", self_s("queries"), "s"},
      {"trace.self_s.core", self_s("core"), "s"},
      {"trace.self_s.serving", self_s("serving"), "s"},
      {"trace.self_s.oracle", self_s("oracle"), "s"},
      {"trace.self_s.bench", self_s("bench"), "s"},
      {"trace.spans", d(tracer.size()), "count"},
      {"trace.overhead_pct", 100.0 * (ratio(traced_wall, untraced_wall) - 1.0), "%"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "paralagg_perfbench: %s\nusage: paralagg_perfbench --workload "
               "<sssp-rmat|pagerank-ssp|serve-mixed> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0) usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload != "sssp-rmat" && a.workload != "pagerank-ssp" && a.workload != "serve-mixed") {
    usage("--workload must be sssp-rmat, pagerank-ssp or serve-mixed");
  }
  return a;
}

/// Run repetitions while the next one is expected to end within `seconds`
/// (at least `min_reps` of them).
template <typename W>
void repeat(W& w, Tracer& tracer, double seconds, std::size_t min_reps, std::vector<Rep>& out) {
  const auto t0 = Clock::now();
  while (out.size() < min_reps ||
         seconds_since(t0) + (out.empty() ? 0.0 : out.back().wall_s) <= seconds) {
    ++tracer.rep;
    const auto r0 = Clock::now();
    Rep rep;
    {
      SpanScope span(&tracer, "repetition", "bench");
      rep = w.run_once();
    }
    rep.wall_s = seconds_since(r0);
    out.push_back(std::move(rep));
  }
}

template <typename W>
int drive(const Args& args) {
  Tracer tracer(Clock::now());
  Context ctx{.seed = args.seed, .tracer = &tracer};
  const auto s0 = Clock::now();
  W w(ctx);
  const double budget = args.seconds - seconds_since(s0);  // W's constructor ran the oracle

  std::vector<Rep> untraced, traced;
  if (args.trace) {
    repeat(w, tracer, budget / 2, 1, untraced);
    tracer.enabled = true;
    repeat(w, tracer, budget / 2, 1, traced);
    tracer.enabled = false;
  } else {
    repeat(w, tracer, budget, 2, untraced);
  }

  // Failures: per-repetition checks, plus any deterministic counter that
  // differs from the first repetition's.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const auto key0 = untraced.front().deterministic_key();
  for (auto* set : {&untraced, &traced}) {
    for (auto& r : *set) {
      const auto key = r.deterministic_key();
      for (std::size_t i = 0; i < key.size(); ++i) {
        if (key[i].second != key0[i].second) {
          r.fail(std::string("deterministic counter ") + key[i].first + " diverged: " +
                 std::to_string(key0[i].second) + " then " + std::to_string(key[i].second));
        }
      }
      attempted += r.attempted;
      failed += std::min(r.failed, r.attempted);
      errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    }
  }

  const auto metrics =
      args.trace ? per_layer(untraced, traced, tracer, ctx.oracle_s) : end_to_end(untraced);

  std::printf("workload %s  seed %llu  ranks %d  repetitions %zu untraced, %zu traced\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), kRanks,
              untraced.size(), traced.size());
  const auto samples = pooled(untraced, &Rep::apply_ms).size();
  std::printf("samples: %zu repetitions (fixpoint_s, modelled_s, setup_s medians), %zu apply "
              "and %zu lookup latencies\n",
              untraced.size(), samples, pooled(untraced, &Rep::lookup_ms).size());
  for (const auto& m : metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %18.6f %s\n", "failed_frac",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
  for (std::size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::printf("FAILED: %s\n", errors[i].c_str());
  }
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const auto path = std::filesystem::path(".bench_out") /
                      ("trace-" + args.workload + "-seed" + std::to_string(args.seed) + ".json");
    if (!tracer.write_chrome_json(path)) {
      std::fprintf(stderr, "paralagg_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s (Chrome trace-event JSON; opens in Perfetto)\n",
                tracer.size(), path.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char val[64];
    std::snprintf(val, sizeof val, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + val +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  const auto args = pb::parse(argc, argv);
  try {
    if (args.workload == "sssp-rmat") return pb::drive<pb::SsspRmat>(args);
    if (args.workload == "pagerank-ssp") return pb::drive<pb::PagerankSsp>(args);
    return pb::drive<pb::ServeMixed>(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paralagg_perfbench: %s\n", e.what());
    return 1;
  }
}
