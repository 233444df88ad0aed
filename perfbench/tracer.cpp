// perfbench_tracer — the traced half of the campaign benchmark.
//
// Drives the same campaign matrices as `ccfuzz` through the library's public
// API and times the calls into each module from outside, through forwarding
// decorators (a CongestionControl passed as the cell's CcaFactory, a
// ScoreFunction that passes identity() through) and campaign observers. No
// span lives inside the program. Each mode prints one JSON object on stdout;
// perfbench/run.py turns them into the per-layer metrics.
//
//   perfbench_tracer campaign --output DIR [--checkpoint-every N] [matrix]
//   perfbench_tracer restore  --output DIR [--workers N --shard k] [matrix]
//   perfbench_tracer probe    --output DIR [matrix]
//   perfbench_tracer merge    --output DIR --workers N [matrix]
//   perfbench_tracer triage   --output DIR [--minimize-evals N] [matrix]
//   perfbench_tracer refused  --output DIR [matrix]
//   perfbench_tracer watch    --output DIR --workers N
//
// The matrix flags are the subset of `ccfuzz` matrix flags the benchmark
// uses, expanded exactly as the CLI expands them, so reports compare byte
// for byte with the untraced runs.
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "cca/registry.h"
#include "dist/merge.h"
#include "dist/shard_plan.h"
#include "fuzz/score.h"
#include "scenario/runner.h"
#include "trace/trace_io.h"
#include "triage/triage.h"
#include "util/rng.h"

using namespace ccfuzz;
namespace stdfs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Flat JSON object writer: keys in insertion order, doubles in %.17g.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& num(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  /// Strings that need no escaping (file names the benchmark builds).
  Json& strings(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? ",\"" : "\"") + v[i] + "\"";
    }
    return raw(key, s + "]");
  }
  Json& obj(const std::string& key, const Json& j) { return raw(key, j.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + v;
    return *this;
  }
  std::string body_;
};

// --- Matrix flags (the CLI's build_matrix, for the flags the benchmark uses)

struct Args {
  std::string mode;
  std::string output;
  std::vector<std::string> ccas;
  std::vector<std::string> modes;
  std::vector<std::string> presets;
  std::string score = "low-utilization";
  int generations = 6;
  int population = 24;
  int islands = 2;
  unsigned long long seed = 11;
  long long duration_ms = 2000;
  long long max_events = 50'000'000;
  int winners = 3;
  int checkpoint_every = 0;
  int workers = 1;
  int shard = 0;
  int minimize_evals = 200;
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--output") a.output = v;
    else if (flag == "--ccas") a.ccas = split_csv(v);
    else if (flag == "--modes") a.modes = split_csv(v);
    else if (flag == "--presets") a.presets = split_csv(v);
    else if (flag == "--score") a.score = v;
    else if (flag == "--generations") a.generations = std::stoi(v);
    else if (flag == "--population") a.population = std::stoi(v);
    else if (flag == "--islands") a.islands = std::stoi(v);
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--duration-ms") a.duration_ms = std::stoll(v);
    else if (flag == "--max-events") a.max_events = std::stoll(v);
    else if (flag == "--winners") a.winners = std::stoi(v);
    else if (flag == "--checkpoint-every") a.checkpoint_every = std::stoi(v);
    else if (flag == "--workers") a.workers = std::stoi(v);
    else if (flag == "--shard") a.shard = std::stoi(v);
    else if (flag == "--minimize-evals") a.minimize_evals = std::stoi(v);
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.output.empty()) throw std::invalid_argument("--output is required");
  return a;
}

campaign::CampaignConfig build_matrix(const Args& a) {
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::millis(a.duration_ms);
  sc.budget.max_events = a.max_events;
  fuzz::GaConfig ga;
  ga.population = a.population;
  ga.islands = a.islands;
  ga.max_generations = a.generations;
  ga.seed = a.seed;
  std::vector<scenario::FuzzMode> modes;
  for (const std::string& m : a.modes) {
    if (m == "traffic") modes.push_back(scenario::FuzzMode::kTraffic);
    else if (m == "link") modes.push_back(scenario::FuzzMode::kLink);
    else throw std::invalid_argument("unknown mode " + m);
  }
  std::shared_ptr<const fuzz::ScoreFunction> score;
  if (a.score == "low-utilization") {
    score = std::make_shared<fuzz::LowUtilizationScore>();
  } else if (a.score == "jain-unfairness") {
    score = std::make_shared<fuzz::JainFairnessScore>();
  } else {
    throw std::invalid_argument("unsupported score " + a.score);
  }
  campaign::CampaignConfig cfg;
  cfg.ccas(a.ccas).modes(modes).base_scenario(sc).score(score).ga(ga).winners(
      static_cast<std::size_t>(a.winners));
  for (const std::string& p : a.presets) cfg.add_preset(p);
  return cfg;
}

// --- Decorators ---------------------------------------------------------------

/// Totals gathered by TimedScore across pool threads.
struct ScoreTotals {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::int64_t> sim_ns{0};     ///< simulated time scored
  std::atomic<std::int64_t> packets{0};    ///< CCA sends + cross packets
  std::atomic<std::int64_t> truncated{0};
};

/// Forwards to the wrapped score and times performance_score(). identity()
/// passes through, so campaign cache keys — and with them checkpoints and
/// reports — are unchanged.
class TimedScore final : public fuzz::ScoreFunction {
 public:
  TimedScore(std::shared_ptr<const fuzz::ScoreFunction> inner,
             std::shared_ptr<ScoreTotals> totals)
      : inner_(std::move(inner)), totals_(std::move(totals)) {}

  double performance_score(const scenario::RunResult& run) const override {
    const auto t0 = Clock::now();
    const double s = inner_->performance_score(run);
    const std::int64_t ns = ns_between(t0, Clock::now());
    std::int64_t pkts = run.cross_sent;
    for (const scenario::FlowResult& f : run.flows) pkts += f.sent;
    totals_->calls.fetch_add(1, std::memory_order_relaxed);
    totals_->ns.fetch_add(ns, std::memory_order_relaxed);
    totals_->sim_ns.fetch_add(run.config.duration.ns(),
                              std::memory_order_relaxed);
    totals_->packets.fetch_add(pkts, std::memory_order_relaxed);
    if (run.truncated) totals_->truncated.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  const char* name() const override { return inner_->name(); }
  std::uint64_t identity() const override { return inner_->identity(); }
  void validate(const scenario::ScenarioConfig& s) const override {
    inner_->validate(s);
  }

 private:
  std::shared_ptr<const fuzz::ScoreFunction> inner_;
  std::shared_ptr<ScoreTotals> totals_;
};

/// Totals gathered by TimedCca for one CCA name.
struct CcaTotals {
  std::atomic<std::int64_t> instances{0};
  std::atomic<std::int64_t> acks{0};
  std::atomic<std::int64_t> ack_ns{0};
  std::atomic<std::int64_t> sends{0};
  std::atomic<std::int64_t> callback_ns{0};  ///< init + on_ack + on_sent + events
};

/// Forwards every CongestionControl call to the wrapped CCA and times the
/// callbacks the sender drives (init, on_ack, on_sent, congestion events).
/// Getters are forwarded untimed. Totals are flushed once, on destruction.
class TimedCca final : public tcp::CongestionControl {
 public:
  TimedCca(std::unique_ptr<tcp::CongestionControl> inner, CcaTotals* totals)
      : inner_(std::move(inner)), totals_(totals) {}
  ~TimedCca() override {
    totals_->instances.fetch_add(1, std::memory_order_relaxed);
    totals_->acks.fetch_add(acks_, std::memory_order_relaxed);
    totals_->ack_ns.fetch_add(ack_ns_, std::memory_order_relaxed);
    totals_->sends.fetch_add(sends_, std::memory_order_relaxed);
    totals_->callback_ns.fetch_add(callback_ns_, std::memory_order_relaxed);
  }
  TimedCca(const TimedCca&) = delete;
  TimedCca& operator=(const TimedCca&) = delete;

  void init(const tcp::SenderState& st) override {
    const auto t0 = Clock::now();
    inner_->init(st);
    callback_ns_ += ns_between(t0, Clock::now());
  }
  void on_ack(const tcp::SenderState& st, const tcp::AckEvent& ev,
              const tcp::RateSample& rs) override {
    const auto t0 = Clock::now();
    inner_->on_ack(st, ev, rs);
    const std::int64_t ns = ns_between(t0, Clock::now());
    ++acks_;
    ack_ns_ += ns;
    callback_ns_ += ns;
  }
  void on_congestion_event(const tcp::SenderState& st,
                           tcp::CongestionEvent ev) override {
    const auto t0 = Clock::now();
    inner_->on_congestion_event(st, ev);
    callback_ns_ += ns_between(t0, Clock::now());
  }
  void on_sent(const tcp::SenderState& st, tcp::SeqNr seq,
               bool is_retransmit) override {
    const auto t0 = Clock::now();
    inner_->on_sent(st, seq, is_retransmit);
    ++sends_;
    callback_ns_ += ns_between(t0, Clock::now());
  }
  std::int64_t cwnd_segments() const override { return inner_->cwnd_segments(); }
  DataRate pacing_rate() const override { return inner_->pacing_rate(); }
  std::int64_t ssthresh_segments() const override {
    return inner_->ssthresh_segments();
  }
  const char* name() const override { return inner_->name(); }
  double bw_estimate_pps() const override { return inner_->bw_estimate_pps(); }
  DurationNs min_rtt_estimate() const override {
    return inner_->min_rtt_estimate();
  }
  void attach_event_log(tcp::TcpEventLog* log) override {
    inner_->attach_event_log(log);
  }
  int probe_state() const override { return inner_->probe_state(); }

 private:
  std::unique_ptr<tcp::CongestionControl> inner_;
  CcaTotals* totals_;
  std::int64_t acks_ = 0;
  std::int64_t ack_ns_ = 0;
  std::int64_t sends_ = 0;
  std::int64_t callback_ns_ = 0;
};

/// One CcaTotals per registry name, alive for the whole process (factories
/// handed to evaluators point into it).
CcaTotals& cca_totals(const std::string& cca) {
  static std::map<std::string, std::unique_ptr<CcaTotals>> totals;
  std::unique_ptr<CcaTotals>& t = totals[cca];
  if (!t) t = std::make_unique<CcaTotals>();
  return *t;
}

tcp::CcaFactory timed_factory(const std::string& cca) {
  CcaTotals* totals = &cca_totals(cca);
  tcp::CcaFactory inner = cca::make_factory(cca);
  return [inner, totals]() -> std::unique_ptr<tcp::CongestionControl> {
    return std::make_unique<TimedCca>(inner(), totals);
  };
}

/// Mean cost of one Clock::now() pair: the timing overhead every per-call
/// mean includes.
double timer_overhead_ns() {
  constexpr int kPairs = 200000;
  std::int64_t total = 0;
  for (int i = 0; i < kPairs; ++i) {
    const auto t0 = Clock::now();
    total += ns_between(t0, Clock::now());
  }
  return static_cast<double>(total) / kPairs;
}

// --- Observers ----------------------------------------------------------------

/// Wall time of each lockstep generation: a generation ends when the last
/// cell reports it.
class GenTimer final : public campaign::CampaignObserver {
 public:
  void on_campaign_begin(const std::vector<campaign::CellConfig>&) override {
    begin_ = Clock::now();
  }
  void on_generation(const campaign::CellConfig&,
                     const fuzz::GenStats& gs) override {
    end_[gs.generation] = Clock::now();
  }
  std::vector<double> gen_ms() const {
    std::vector<double> out;
    Clock::time_point prev = begin_;
    for (const auto& [gen, t] : end_) {
      out.push_back(static_cast<double>(ns_between(prev, t)) * 1e-6);
      prev = t;
    }
    return out;
  }

 private:
  Clock::time_point begin_;
  std::map<int, Clock::time_point> end_;
};

/// Counts checkpoint writes: each one lands by renaming a finished temp file
/// onto `campaign.ckpt` in the watched directory.
class RenameCounter {
 public:
  explicit RenameCounter(const std::string& dir)
      : fd_(inotify_init1(IN_NONBLOCK)) {
    if (fd_ < 0 || inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO) < 0) {
      throw std::runtime_error("inotify unavailable for " + dir);
    }
  }
  ~RenameCounter() { ::close(fd_); }
  RenameCounter(const RenameCounter&) = delete;
  RenameCounter& operator=(const RenameCounter&) = delete;

  /// Drains queued events; returns renames onto `name` seen so far.
  std::int64_t count(const char* name) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) break;
      for (ssize_t off = 0; off + static_cast<ssize_t>(sizeof(inotify_event)) <= n;) {
        inotify_event ev;
        std::memcpy(&ev, buf + off, sizeof ev);
        if (ev.mask & IN_Q_OVERFLOW) {
          throw std::runtime_error("inotify queue overflow");
        }
        const char* ev_name = buf + off + sizeof ev;  // NUL-padded, ev.len bytes
        if (ev.len > 0 && std::strcmp(ev_name, name) == 0) ++renames_;
        off += static_cast<ssize_t>(sizeof ev + ev.len);
      }
    }
    return renames_;
  }

 private:
  int fd_;
  std::int64_t renames_ = 0;
};

std::int64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = stdfs::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(n);
}

Json score_json(const ScoreTotals& s) {
  Json j;
  j.num("calls", s.calls.load())
      .num("ns", s.ns.load())
      .num("truncated", s.truncated.load());
  return j;
}

// --- Modes ----------------------------------------------------------------------

/// The workload's campaign, in-process, with the score decorated and every
/// lockstep generation timed.
int cmd_campaign(const Args& a) {
  auto totals = std::make_shared<ScoreTotals>();
  campaign::CampaignConfig cfg;
  for (campaign::CellConfig cell : build_matrix(a).cells()) {
    cell.score = std::make_shared<TimedScore>(cell.score, totals);
    cfg.add_cell(std::move(cell));
  }
  cfg.output_dir(a.output).resume_dir(a.output).checkpoint_every(
      a.checkpoint_every);
  std::unique_ptr<RenameCounter> renames;
  if (a.checkpoint_every > 0) {
    stdfs::create_directories(a.output + "/checkpoint");
    renames = std::make_unique<RenameCounter>(a.output + "/checkpoint");
  }

  const auto t0 = Clock::now();
  campaign::Campaign campaign(cfg);
  stdfs::create_directories(a.output);
  campaign::JsonlObserver jsonl(a.output + "/progress.jsonl");
  GenTimer timer;
  campaign.add_observer(&jsonl);
  campaign.add_observer(&timer);
  const campaign::CampaignReport& report = campaign.run();
  const double wall = seconds_since(t0);

  std::int64_t sims = 0, hits = 0;
  for (const campaign::CellResult& c : report.cells) {
    sims += c.simulations;
    hits += c.cache_hits;
  }
  Json j;
  j.num("wall_s", wall)
      .num("simulations", sims)
      .num("cache_hits", hits)
      .obj("score", score_json(*totals))
      .list("gen_ms", timer.gen_ms())
      .num("ckpt_writes", renames ? renames->count("campaign.ckpt") : 0)
      .num("ckpt_bytes", file_size(a.output + "/checkpoint/campaign.ckpt"))
      .num("jsonl_bytes", file_size(a.output + "/progress.jsonl"));
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Time to construct a Campaign that resumes from the checkpoint under
/// --output (shard --shard of --workers when sharded). A checkpoint the
/// campaign refuses (it then starts fresh) is timed all the same and
/// reported as resumed = 0.
int cmd_restore(const Args& a) {
  campaign::CampaignConfig cfg;
  for (campaign::CellConfig cell : build_matrix(a).cells()) {
    if (dist::ShardPlan::shard_of(cell.name, a.workers) ==
        static_cast<std::uint32_t>(a.shard)) {
      cfg.add_cell(std::move(cell));
    }
  }
  const std::string dir =
      a.workers > 1 ? dist::shard_dir(a.output, static_cast<std::uint32_t>(a.shard))
                    : a.output;
  cfg.output_dir(dir).resume_dir(dir).checkpoint_every(1);
  std::vector<double> ms;
  bool resumed = true;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    campaign::Campaign campaign(cfg);
    ms.push_back(seconds_since(t0) * 1e3);
    resumed = resumed && campaign.resumed();
  }
  Json j;
  j.num("restore_ms", median(ms)).num("resumed", std::int64_t{resumed ? 1 : 0});
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Counts checkpoint writes of a sharded campaign run by another process:
/// watches every shard's checkpoint directory, prints "ready", and reports
/// the count once stdin closes.
int cmd_watch(const Args& a) {
  std::vector<std::unique_ptr<RenameCounter>> counters;
  for (int k = 0; k < a.workers; ++k) {
    const std::string dir =
        dist::shard_dir(a.output, static_cast<std::uint32_t>(k)) + "/checkpoint";
    stdfs::create_directories(dir);
    counters.push_back(std::make_unique<RenameCounter>(dir));
  }
  std::printf("ready\n");
  std::fflush(stdout);
  char buf[256];
  std::int64_t writes = 0;
  while (::read(STDIN_FILENO, buf, sizeof buf) > 0) {
    for (auto& c : counters) c->count("campaign.ckpt");  // keep the queue short
  }
  for (auto& c : counters) writes += c->count("campaign.ckpt");
  Json j;
  j.num("ckpt_writes", writes);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Winner traces of one cell of a report tree, best first. A trace file
/// that does not load is skipped and counted in `unloadable`.
std::vector<trace::Trace> load_winners(const std::string& root,
                                       const campaign::CellConfig& cell,
                                       std::int64_t& unloadable) {
  std::vector<trace::Trace> out;
  const std::string dir = root + "/" + campaign::sanitize_cell_name(cell.name);
  for (int k = 0;; ++k) {
    const std::string path = dir + "/winner_" + std::to_string(k) + ".trace";
    if (!stdfs::exists(path)) break;
    Result<trace::Trace> t = trace::try_load_trace(path);
    if (t) {
      out.push_back(std::move(*t));
    } else {
      ++unloadable;
    }
  }
  return out;
}

/// Per-cell layer probes on the workload's own final genomes (the winner
/// traces of the report under --output).
int cmd_probe(const Args& a) {
  const double timer_ns = timer_overhead_ns();
  Json cells_json;
  double warm_ns = 0.0, warm_sim_s = 0.0, cold_ns = 0.0, breed_ns = 0.0;
  std::int64_t cold_runs = 0, breed_ops = 0, breed_events = 0, packets = 0;
  double counted_sim_s = 0.0, decorated_ns = 0.0;
  std::map<std::string, double> cca_sim_s;
  std::int64_t unloadable = 0;
  for (const campaign::CellConfig& cell : build_matrix(a).cells()) {
    const std::vector<trace::Trace> genomes =
        load_winners(a.output, cell, unloadable);
    if (genomes.empty()) continue;
    const double dur_s = cell.scenario.duration.to_seconds();
    fuzz::Evaluation out;

    // Warm simulate path, undecorated: evaluate_into on this thread's warm
    // context, repeated until the cell has at least 100 ms of samples.
    const fuzz::TraceEvaluator ev = campaign::make_evaluator(cell);
    for (const trace::Trace& t : genomes) ev.evaluate_into(t, out);
    std::int64_t cell_ns = 0;
    int reps = 0;
    while (reps < 3 || cell_ns < 100'000'000) {
      const auto t0 = Clock::now();
      for (const trace::Trace& t : genomes) ev.evaluate_into(t, out);
      cell_ns += ns_between(t0, Clock::now());
      ++reps;
    }
    const double cell_sim_s = dur_s * static_cast<double>(reps * genomes.size());
    warm_ns += static_cast<double>(cell_ns);
    warm_sim_s += cell_sim_s;
    cells_json.num(cell.name, static_cast<double>(cell_ns) * 1e-3 / cell_sim_s);

    // Counting pass: CCA and score decorated, one run per genome.
    auto totals = std::make_shared<ScoreTotals>();
    const fuzz::TraceEvaluator counted(
        cell.scenario, timed_factory(cell.cca),
        std::make_shared<TimedScore>(cell.score, totals), cell.trace_weights);
    for (const trace::Trace& t : genomes) {
      const auto t0 = Clock::now();
      counted.evaluate_into(t, out);
      decorated_ns += static_cast<double>(ns_between(t0, Clock::now()));
      if (cell.scenario.mode == scenario::FuzzMode::kLink) {
        packets += static_cast<std::int64_t>(t.size());  // link services
      }
    }
    packets += totals->packets.load();
    counted_sim_s += static_cast<double>(totals->sim_ns.load()) * 1e-9;
    cca_sim_s[cell.cca] += static_cast<double>(totals->sim_ns.load()) * 1e-9;

    // Cold path: a fresh RunContext per run (triage confirm and replay).
    for (const trace::Trace& t : genomes) {
      const auto t0 = Clock::now();
      scenario::RunContext ctx;
      ev.evaluate_on(ctx, t, out);
      cold_ns += static_cast<double>(ns_between(t0, Clock::now()));
      ++cold_runs;
    }

    // Breeding: the cell's genome model, on its own genomes.
    const std::shared_ptr<const fuzz::TraceModel> model =
        campaign::make_trace_model(cell);
    Rng rng(a.seed);
    for (int rep = 0; rep < 20; ++rep) {
      for (std::size_t i = 0; i < genomes.size(); ++i) {
        const auto t0 = Clock::now();
        const trace::Trace child = model->mutate(genomes[i], rng);
        breed_ns += static_cast<double>(ns_between(t0, Clock::now()));
        ++breed_ops;
        breed_events += static_cast<std::int64_t>(child.size());
        if (!model->supports_crossover()) continue;
        const auto t1 = Clock::now();
        const std::optional<trace::Trace> kid = model->crossover(
            genomes[i], genomes[(i + 1) % genomes.size()], rng);
        breed_ns += static_cast<double>(ns_between(t1, Clock::now()));
        ++breed_ops;
        if (kid) breed_events += static_cast<std::int64_t>(kid->size());
      }
    }
  }

  Json ccas;
  double callback_ns = 0.0;
  for (const std::string& name : cca::known_ccas()) {
    CcaTotals& t = cca_totals(name);
    callback_ns += static_cast<double>(t.callback_ns.load());
    if (t.instances.load() == 0) continue;
    const double acks = static_cast<double>(t.acks.load());
    Json c;
    c.num("acks", t.acks.load())
        .num("sim_s", cca_sim_s[name])
        .num("on_ack_ns",
             acks > 0 ? static_cast<double>(t.ack_ns.load()) / acks : 0.0);
    ccas.obj(name, c);
  }
  Json j;
  j.num("timer_ns", timer_ns)
      .num("warm_ns", warm_ns)
      .num("warm_sim_s", warm_sim_s)
      .num("packets", packets)
      .num("counted_sim_s", counted_sim_s)
      .num("cold_ms", cold_runs ? cold_ns * 1e-6 / static_cast<double>(cold_runs) : 0.0)
      .num("breed_us", breed_ops ? breed_ns * 1e-3 / static_cast<double>(breed_ops) : 0.0)
      .num("breed_ops", breed_ops)
      .num("breed_events", breed_events)
      .num("cca_share", decorated_ns > 0 ? callback_ns / decorated_ns : 0.0)
      .num("unloadable", unloadable)
      .obj("cells_us_per_sim_s", cells_json)
      .obj("cca", ccas);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// dist::merge_reports on three copies of the finished shard tree.
int cmd_merge(const Args& a) {
  const dist::ShardPlan plan =
      dist::ShardPlan::build(build_matrix(a).cells(), a.workers);
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const std::string copy = a.output + ".merge" + std::to_string(rep);
    stdfs::remove_all(copy);
    stdfs::copy(a.output, copy, stdfs::copy_options::recursive);
    const auto t0 = Clock::now();
    Result<dist::MergeStats> stats = dist::merge_reports(copy, plan, copy);
    ms.push_back(seconds_since(t0) * 1e3);
    stdfs::remove_all(copy);
    if (!stats) {
      std::fprintf(stderr, "merge: %s\n", stats.error().message.c_str());
      return 1;
    }
  }
  Json j;
  j.num("merge_ms", median(ms));
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Winner traces of the report under --output that trace::try_load_trace
/// refuses, as paths relative to --output: the candidates `ccfuzz triage`
/// would report as `cannot load`.
int cmd_refused(const Args& a) {
  std::vector<std::string> refused;
  std::int64_t winners = 0;
  for (const campaign::CellConfig& cell : build_matrix(a).cells()) {
    const std::string name = campaign::sanitize_cell_name(cell.name);
    for (int k = 0;; ++k) {
      const std::string file = name + "/winner_" + std::to_string(k) + ".trace";
      if (!stdfs::exists(a.output + "/" + file)) break;
      ++winners;
      if (!trace::try_load_trace(a.output + "/" + file)) refused.push_back(file);
    }
  }
  Json j;
  j.num("winners", winners).strings("refused", refused);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Triage of the corpus under --output with CCA and score decorated, then
/// the pieces triage is made of, each timed on its own.
int cmd_triage(const Args& a) {
  const std::vector<campaign::CellConfig> plain = build_matrix(a).cells();
  auto totals = std::make_shared<ScoreTotals>();
  std::vector<campaign::CellConfig> traced = plain;
  for (campaign::CellConfig& cell : traced) {
    cell.factory = timed_factory(cell.cca);
    cell.score = std::make_shared<TimedScore>(cell.score, totals);
  }
  triage::TriageConfig tcfg;
  tcfg.max_minimize_evals = a.minimize_evals;

  auto t0 = Clock::now();
  Result<triage::TriageStats> stats =
      triage::triage_report(traced, a.output, tcfg);
  const double wall = seconds_since(t0);
  if (!stats) {
    std::fprintf(stderr, "triage: %s\n", stats.error().message.c_str());
    return 1;
  }

  // The same corpus without minimization, into a side directory.
  triage::TriageConfig nomin = tcfg;
  nomin.max_minimize_evals = 0;
  nomin.findings_dir = a.output + "/findings.nomin";
  t0 = Clock::now();
  Result<triage::TriageStats> nomin_stats =
      triage::triage_report(plain, a.output, nomin);
  const double wall_nomin = seconds_since(t0);
  stdfs::remove_all(nomin.findings_dir);
  if (!nomin_stats) {
    std::fprintf(stderr, "triage: %s\n", nomin_stats.error().message.c_str());
    return 1;
  }

  // Confirmation alone, per candidate winner.
  double confirm_ns = 0.0;
  std::int64_t candidates = 0, unloadable = 0;
  for (const campaign::CellConfig& cell : plain) {
    const fuzz::TraceEvaluator ev = campaign::make_evaluator(cell);
    for (const trace::Trace& t : load_winners(a.output, cell, unloadable)) {
      const auto t1 = Clock::now();
      const triage::Confirmation c = triage::confirm(ev, t, tcfg.confirm_runs);
      confirm_ns += static_cast<double>(ns_between(t1, Clock::now()));
      ++candidates;
      if (c.flaky) std::fprintf(stderr, "triage: flaky candidate\n");
    }
  }

  t0 = Clock::now();
  Result<triage::ReplayStats> replay =
      triage::replay_findings(plain, a.output + "/findings");
  const double replay_s = seconds_since(t0);
  if (!replay) {
    std::fprintf(stderr, "replay: %s\n", replay.error().message.c_str());
    return 1;
  }
  Json j;
  j.num("wall_s", wall)
      .num("wall_nomin_s", wall_nomin)
      .num("candidates", static_cast<std::int64_t>(stats->candidates))
      .num("bundles", static_cast<std::int64_t>(stats->bundles_written))
      .obj("score", score_json(*totals))
      .num("confirm_ms", candidates ? confirm_ns * 1e-6 / static_cast<double>(candidates) : 0.0)
      .num("replay_s", replay_s)
      .num("replay_bundles", static_cast<std::int64_t>(replay->bundles))
      .num("replay_ok", static_cast<std::int64_t>(replay->ok));
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "campaign") return cmd_campaign(a);
    if (a.mode == "restore") return cmd_restore(a);
    if (a.mode == "probe") return cmd_probe(a);
    if (a.mode == "merge") return cmd_merge(a);
    if (a.mode == "triage") return cmd_triage(a);
    if (a.mode == "refused") return cmd_refused(a);
    if (a.mode == "watch") return cmd_watch(a);
    std::fprintf(stderr, "perfbench_tracer: unknown mode %s\n", a.mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_tracer: %s\n", e.what());
  }
  return 2;
}
