// rwbc_perfbench: one measured process of the end-to-end P0-P4 benchmark.
//
// run.py (next to this file) drives it; every measured pipeline run is a
// fresh process of this binary, so peak RSS never carries over between runs
// and run_sharded_forked can fork before any thread exists.  Subcommands:
//
//   provenance                      compiler, build type, sanitizer flag
//   run --workload W --seed S --ckpt-dir D [--shards N]
//       [--oracle [--oracle-cache FILE]] [--trace FILE]
//                                   the set-up, timed repeatedly, then one
//                                   P0-P4 run through run_pipeline_result
//
// Each subcommand prints exactly one JSON object on stdout.  `run` catches
// every exception and reports it as {"ok": false, "error": "..."}, so a
// failing pipeline is a failed operation, never a harness abort.  A
// successful `run` embeds the pipeline's own RunReport::to_json (without
// the scores) under "report" and adds only what that format lacks: the
// per-phase RunMetrics, the host timings and the score digest.
//
// With --trace the run installs PipelineSpec::round_observer and stamps every
// round with steady_clock.  Every Network in the pipeline restarts at round 0
// and DistributedRwbcResult carries exact per-phase RunMetrics, so the round
// stream splits into P0..P4 exactly: P0 election, P1 BFS, P2 dissemination
// (two Networks: height convergecast + target broadcast), P3 counting, P4
// computing.  The per-round series is written to FILE as JSONL.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "centrality/current_flow_exact.hpp"
#include "centrality/ranking.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "congest/shard.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "rwbc/pipeline.hpp"

namespace {

using rwbc::NodeId;
using Clock = std::chrono::steady_clock;

/// The three workloads.  All use the paper's wire (one walk token per edge
/// direction per round) and the theorem's cutoff l = 2n.
struct Workload {
  const char* name;
  NodeId n;
  std::size_t walks_per_source;  // 0 = theorem default 4 log2 n
  int threads;
  int shards;
  bool ops;  // guardian + custody handoff, crashes, async checkpoints
};

constexpr Workload kWorkloads[] = {
    {"ws300_t2", 300, 0, 2, 1, false},
    {"ws600_k4_serial", 600, 4, 0, 1, false},
    {"ops_ws64_sharded", 64, 0, 0, 2, true},
};

/// Set-up time: each `run` times kSetupBatches batches of kSetupBatchReps
/// set-ups, pausing kSetupPause before each batch, and run.py reports the
/// median of the samples of all its pipeline runs.  A set-up takes 0.02-0.3
/// ms, while on the shared 4-core VM this was tuned on the host's speed
/// switched between two levels ~1.6x apart every 0.1-1 s and drifted over
/// seconds.  Set-ups timed back to back land in whichever level their
/// window had; samples spread over every pipeline run of a benchmark run
/// see the mix of levels that the pipeline runs' wall times average over.
constexpr int kSetupBatches = 20;
constexpr int kSetupBatchReps = 5;
constexpr std::chrono::milliseconds kSetupPause{5};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw rwbc::Error("unknown workload '" + name + "'");
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// The ops workload replays one fixed incident whatever the seed: the graph
/// of `rwbc_cli generate ws 64 17` run with simulator seed 2.  Its P3
/// termination under crashes is bimodal across seeds (README.md, "Known
/// defects"), which would leave every metric of a seeded workload
/// unresolvable; this incident is in the slow mode.
constexpr std::uint64_t kIncidentGraphSeed = 17;
constexpr std::uint64_t kIncidentSimSeed = 2;

/// The seeded workloads draw their graph from a fixed pool of kGraphPool
/// graphs, graph `seed mod kGraphPool`; the seed itself drives the
/// simulator (drawn target, walk coins).  run.py measures seeds 3s..3s+2,
/// so one run covers each graph once.  A fixed pool lets the exact oracle,
/// which grows as n^3 (at n = 600 about 40% of a pipeline run), be
/// computed once per graph and cached, instead of once per run.
constexpr std::uint64_t kGraphPool = 3;

/// The workload's input graph: Watts-Strogatz k = 4, beta = 0.2 (the CLI's
/// "ws" family).
rwbc::Graph generate(const Workload& w, std::uint64_t seed) {
  rwbc::Rng rng = w.ops ? rwbc::Rng(kIncidentGraphSeed)
                        : rwbc::Rng(seed % kGraphPool, 0x67726170ULL);
  return rwbc::make_watts_strogatz(w.n, 4, 0.2, rng);
}

void validate(const Workload& w, const rwbc::Graph& g) {
  RWBC_REQUIRE(g.node_count() == w.n && rwbc::is_connected(g),
               "generated graph is not a connected graph on n nodes");
  RWBC_REQUIRE(g.edge_count() == static_cast<std::size_t>(2 * w.n),
               "generated graph has the wrong edge count");
}

/// Edges whose endpoints live on different shards of ShardMap(n, shards) —
/// the traffic the shard exchange carries between processes.
std::vector<rwbc::Edge> shard_boundary(const rwbc::Graph& g, int shards) {
  const rwbc::ShardMap map(g.node_count(), shards);
  std::vector<rwbc::Edge> cut;
  for (const rwbc::Edge& e : g.edges()) {
    if (map.owner(e.u) != map.owner(e.v)) cut.push_back(e);
  }
  return cut;
}

rwbc::PipelineSpec make_spec(const Workload& w, const rwbc::Graph& g,
                             std::uint64_t seed, int shards,
                             const std::string& ckpt_dir) {
  rwbc::PipelineSpec spec;
  spec.algorithm = "rwbc";
  spec.seed = w.ops ? kIncidentSimSeed : seed;
  spec.threads = w.threads;
  spec.shards = shards;
  spec.bit_floor = 128;  // as rwbc_cli distributed: room for the theorem K
  spec.rwbc.walks_per_source = w.walks_per_source;
  if (w.ops) {
    spec.rwbc.guardian_handoff = true;
    spec.rwbc.custody_handoff = true;
    spec.reliable_transport = true;
    spec.faults.seed = spec.seed;
    spec.faults.crashes = {{7, 200}, {41, 500}};
    spec.checkpoint_dir = ckpt_dir;
    spec.checkpoint_every = 400;
    spec.checkpoint_async = true;
    // Metered on the 2-shard boundary at every shard count, so a 1-shard
    // run of the same spec must report the same cut counts.
    spec.rwbc.congest.metered_cut = shard_boundary(g, w.shards);
  }
  return spec;
}

// --- tiny JSON writer ------------------------------------------------------

class Json {
 public:
  /// JSON has no NaN or Inf: a non-finite value (a broken pipeline's
  /// scores) is written as null, as RunReport::to_json does.
  Json& num(const char* key, double v) {
    if (!std::isfinite(v)) return raw(key, "null");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& u64(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  Json& boolean(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const char* key, const std::string& v) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += v;
    return *this;
  }
  std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string metrics_json(const rwbc::RunMetrics& m) {
  return Json()
      .u64("rounds", m.rounds)
      .u64("messages", m.total_messages)
      .u64("bits", m.total_bits)
      .u64("retransmissions", m.retransmissions)
      .u64("replica_messages", m.replica_messages)
      .u64("replica_bits", m.replica_bits)
      .u64("adopted_walks", m.adopted_walks)
      .u64("abandoned_walks", m.abandoned_walks)
      .u64("cut_messages", m.cut_messages)
      .u64("cut_bits", m.cut_bits)
      .u64("crashed_nodes", m.crashed_nodes)
      .done();
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::byte b : bytes) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 1099511628211ULL;
  }
  return h;
}

/// FNV-1a over the raw score bytes: equal digests mean bit-identical scores.
std::string digest(const std::vector<double>& scores) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a(std::as_bytes(std::span(scores)))));
  return buf;
}

/// The exact oracle scores of g.  The oracle is a pure function of the graph
/// and grows as n^3, so with a cache path the scores are kept in a file
/// keyed by the graph's edge digest.
/// `oracle_s` is set only when the scores were computed.
std::vector<double> exact_scores(const rwbc::Graph& g, const std::string& cache,
                                 double* oracle_s) {
  const std::uint64_t key = fnv1a(std::as_bytes(g.edges()));
  std::vector<double> scores(static_cast<std::size_t>(g.node_count()));
  const auto score_bytes = static_cast<std::streamsize>(
      scores.size() * sizeof(double));
  if (!cache.empty()) {
    std::ifstream in(cache, std::ios::binary);
    std::uint64_t stored = 0;
    if (in.read(reinterpret_cast<char*>(&stored), sizeof stored) &&
        stored == key &&
        in.read(reinterpret_cast<char*>(scores.data()), score_bytes) &&
        in.peek() == std::ifstream::traits_type::eof()) {
      return scores;
    }
  }
  const auto start = Clock::now();
  scores = rwbc::current_flow_betweenness(g);
  *oracle_s = seconds_since(start);
  if (!cache.empty()) {
    const std::string tmp = cache + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&key), sizeof key);
    out.write(reinterpret_cast<const char*>(scores.data()), score_bytes);
    out.close();
    RWBC_REQUIRE(out.good() && std::rename(tmp.c_str(), cache.c_str()) == 0,
                 "cannot write oracle cache " + cache);
  }
  return scores;
}

double cpu_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double max_rss_mib(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- the traced split ------------------------------------------------------

struct RoundStamp {
  std::uint64_t round;
  std::uint64_t t_ns;  // since the pipeline call
  std::uint64_t messages;
  std::uint64_t awake;
  std::uint64_t replica;
};

constexpr const char* kPhaseNames[] = {"p0_election", "p1_bfs", "p2_dissem",
                                       "p3_counting", "p4_computing"};

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

/// Splits the round stream into phases, writes the JSONL series, and returns
/// the per-phase timing object.  Throws rwbc::Error if the stream does not
/// segment exactly into the result's per-phase round counts, or if its
/// stamps do not increase monotonically within [0, end_ns].
std::string trace_split(const std::vector<RoundStamp>& stamps,
                        const rwbc::DistributedRwbcResult& r,
                        std::uint64_t end_ns, const std::string& path) {
  // Networks restart at round 0: cut the stream into per-Network segments.
  std::vector<std::pair<std::size_t, std::size_t>> segments;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    if (stamps[i].round == 0) segments.emplace_back(i, i);
    RWBC_REQUIRE(
        !segments.empty() && stamps[i].round == i - segments.back().first,
        "trace: round stream is not a sequence of 0-based runs");
    segments.back().second = i + 1;
  }
  // P0, P1, P2a + P2b, P3, P4.
  const std::uint64_t want[] = {r.election_metrics.rounds, r.bfs_metrics.rounds,
                                r.dissemination_metrics.rounds,
                                r.counting_metrics.rounds,
                                r.computing_metrics.rounds};
  RWBC_REQUIRE(segments.size() == 6, "trace: expected 6 Networks, saw " +
                                         std::to_string(segments.size()));
  const std::size_t seg_of_phase[] = {0, 1, 3, 4, 5};  // last segment per phase
  std::size_t begin[5];
  std::size_t end[5];
  for (int p = 0; p < 5; ++p) {
    begin[p] = p == 0 ? 0 : end[p - 1];
    end[p] = segments[seg_of_phase[p]].second;
    RWBC_REQUIRE(end[p] - begin[p] == want[p],
                 std::string("trace: round count mismatch in ") +
                     kPhaseNames[p]);
  }

  // The phase intervals below are consecutive differences of the stamps, so
  // they add up to end_ns by construction; they are a true split of the
  // call's wall time only if no interval is negative.
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    RWBC_REQUIRE(stamps[i].t_ns >= stamps[i - 1].t_ns,
                 "trace: stamps go backwards at stamp " + std::to_string(i));
  }
  RWBC_REQUIRE(stamps.back().t_ns <= end_ns,
               "trace: last stamp is later than the end of the call");

  std::ofstream out(path);
  RWBC_REQUIRE(out.good(), "trace: cannot write " + path);
  for (int p = 0; p < 5; ++p) {
    for (std::size_t i = begin[p]; i < end[p]; ++i) {
      const RoundStamp& s = stamps[i];
      out << "{\"phase\":\"" << kPhaseNames[p] << "\",\"round\":" << s.round
          << ",\"t_ns\":" << s.t_ns << ",\"messages\":" << s.messages
          << ",\"awake\":" << s.awake << ",\"replica\":" << s.replica << "}\n";
    }
  }
  RWBC_REQUIRE(out.good(), "trace: write failed for " + path);

  // Phase p ends at its last round's stamp.  P0-P2 own everything since the
  // previous phase ended; P3/P4 split into init (Network build, program
  // install, round 0) and the round loop (rounds 1..last).
  Json phases;
  std::uint64_t prev_end = 0;
  for (int p = 0; p < 5; ++p) {
    const std::uint64_t last = stamps[end[p] - 1].t_ns;
    Json phase;
    if (p >= 3) {
      const std::uint64_t round0 = stamps[begin[p]].t_ns;
      std::vector<double> round_us;
      double awake = 0.0;
      for (std::size_t i = begin[p]; i < end[p]; ++i) {
        if (i > begin[p]) {
          round_us.push_back(
              1e-3 * static_cast<double>(stamps[i].t_ns - stamps[i - 1].t_ns));
        }
        awake += static_cast<double>(stamps[i].awake);
      }
      phase.num("wall_s", 1e-9 * static_cast<double>(last - round0))
          .num("init_ms", 1e-6 * static_cast<double>(round0 - prev_end))
          .num("round_us_p50", percentile(round_us, 0.50))
          .num("round_us_p99", percentile(round_us, 0.99))
          .num("awake_per_round",
               awake / static_cast<double>(end[p] - begin[p]));
    } else {
      phase.num("wall_s", 1e-9 * static_cast<double>(last - prev_end));
    }
    phases.raw(kPhaseNames[p], phase.done());
    prev_end = last;
  }
  phases.num("post_ms", 1e-6 * static_cast<double>(end_ns - prev_end));
  phases.u64("rounds_stamped", stamps.size());
  return phases.done();
}

// --- subcommands -----------------------------------------------------------

int cmd_provenance() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  std::cout << Json()
                   .str("compiler", "g++ " __VERSION__)
                   .str("build_type", PERFBENCH_BUILD_TYPE)
                   .str("rwbc_sanitize", PERFBENCH_SANITIZE)
                   .boolean("sanitized", sanitized)
                   .done()
            << "\n";
  return 0;
}

struct RunArgs {
  int shards = 0;  // 0 = the workload's own
  bool oracle = false;
  std::string oracle_cache;
  std::string trace_path;
  std::string ckpt_dir;
};

std::string run_once(const Workload& w, std::uint64_t seed,
                     const RunArgs& args) {
  // The set-up: graph generation and validation, then the spec.  The last
  // repetition's graph and spec are the ones the pipeline runs.
  const int shards = args.shards > 0 ? args.shards : w.shards;
  rwbc::Graph g;
  rwbc::PipelineSpec spec;
  std::string setup_s = "[";
  std::string gen_ms = "[";
  for (int i = 0; i < kSetupBatches * kSetupBatchReps; ++i) {
    if (i % kSetupBatchReps == 0) std::this_thread::sleep_for(kSetupPause);
    const auto start = Clock::now();
    g = generate(w, seed);
    const double gen = seconds_since(start);
    validate(w, g);
    spec = make_spec(w, g, seed, shards, args.ckpt_dir);
    const double total = seconds_since(start);
    char buf[80];
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", total);
    setup_s += buf;
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", 1e3 * gen);
    gen_ms += buf;
  }

  std::vector<RoundStamp> stamps;
  Clock::time_point start;
  if (!args.trace_path.empty()) {
    stamps.reserve(1 << 16);
    spec.round_observer = [&stamps, &start](const rwbc::RoundSnapshot& s) {
      const auto now = Clock::now();
      stamps.push_back({s.round, ns_between(start, now), s.messages,
                        s.awake_nodes, s.replica_messages});
    };
  }

  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  start = Clock::now();
  const rwbc::PipelineResult result = rwbc::run_pipeline_result(g, spec);
  const auto end = Clock::now();
  const double wall = std::chrono::duration<double>(end - start).count();
  const double cpu =
      cpu_seconds(RUSAGE_SELF) - cpu0 + cpu_seconds(RUSAGE_CHILDREN);
  // Rank 0 plus the largest forked shard (0 when the run did not fork).
  const double rss = max_rss_mib(RUSAGE_SELF) + max_rss_mib(RUSAGE_CHILDREN);

  const rwbc::DistributedRwbcResult& r = result.rwbc;
  const rwbc::RunReport& report = result.report;
  Json phases;
  const rwbc::RunMetrics* per_phase[] = {
      &r.election_metrics, &r.bfs_metrics, &r.dissemination_metrics,
      &r.counting_metrics, &r.computing_metrics};
  for (int p = 0; p < 5; ++p) {
    phases.raw(kPhaseNames[p], metrics_json(*per_phase[p]));
  }

  Json out;
  out.boolean("ok", true)
      .raw("report", report.to_json(/*include_scores=*/false))
      .raw("phases", phases.done())
      .raw("setup_s", setup_s + "]")
      .raw("gen_ms", gen_ms + "]")
      .num("wall_s", wall)
      .num("cpu_s", cpu)
      .num("peak_rss_mb", rss)
      .u64("nodes", static_cast<std::uint64_t>(g.node_count()))
      .u64("workers",
           static_cast<std::uint64_t>(std::max(1, w.threads) * shards))
      .u64("score_count", report.scores.size())
      .str("score_digest", digest(report.scores));

  if (!stamps.empty()) {
    out.raw("trace",
            trace_split(stamps, r, ns_between(start, end), args.trace_path));
  }

  if (args.oracle) {
    // Outside the timed region.  Crash-stopped nodes run neither P3 nor P4
    // to completion, so the error is taken over the survivors.
    double oracle_s = -1.0;
    const std::vector<double> exact =
        exact_scores(g, args.oracle_cache, &oracle_s);
    std::vector<double> want;
    std::vector<double> got;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const bool crashed = std::any_of(
          spec.faults.crashes.begin(), spec.faults.crashes.end(),
          [v](const rwbc::CrashEvent& c) { return c.node == v; });
      if (crashed) continue;
      want.push_back(exact[static_cast<std::size_t>(v)]);
      got.push_back(report.scores.at(static_cast<std::size_t>(v)));
    }
    if (oracle_s >= 0.0) out.num("oracle_s", oracle_s);
    out.num("score_mre", rwbc::mean_relative_error(want, got))
        .num("score_tau", rwbc::kendall_tau(want, got));
  }
  return out.done();
}

std::string failure(const char* type, const char* what) {
  return Json()
      .boolean("ok", false)
      .str("error_type", type)
      .str("error", what)
      .done();
}

int cmd_run(const Workload& w, std::uint64_t seed, const RunArgs& args) {
  std::string line;
  try {
    line = run_once(w, seed, args);
  } catch (const rwbc::Error& e) {
    line = failure("rwbc::Error", e.what());
  } catch (const std::exception& e) {
    line = failure("std::exception", e.what());
  }
  std::cout << line << "\n";
  return 0;
}

[[noreturn]] void usage() {
  std::cerr << "usage: rwbc_perfbench provenance\n"
               "       rwbc_perfbench run --workload W --seed S --ckpt-dir D\n"
               "                      [--shards N] [--oracle]"
               " [--oracle-cache FILE]\n"
               "                      [--trace FILE]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "provenance") return cmd_provenance();
  std::string workload;
  std::uint64_t seed = 0;
  RunArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--workload") {
      workload = value();
    } else if (flag == "--seed") {
      seed = std::stoull(value());
    } else if (flag == "--shards") {
      args.shards = std::stoi(value());
    } else if (flag == "--ckpt-dir") {
      args.ckpt_dir = value();
    } else if (flag == "--trace") {
      args.trace_path = value();
    } else if (flag == "--oracle") {
      args.oracle = true;
    } else if (flag == "--oracle-cache") {
      args.oracle_cache = value();
    } else {
      usage();
    }
  }
  try {
    const Workload& w = find_workload(workload);
    if (command == "run") return cmd_run(w, seed, args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage();
}
