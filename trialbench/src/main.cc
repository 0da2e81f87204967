// trialbench: the end-to-end benchmark of the TriAL engine.
//
//   trialbench --workload <lookup_snapshot|analytic_parallel|ingest_update>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>] [--git-sha <sha>] [--source-sha <sha>]
//
// One process is one closed-loop client: it sends the next query only
// after the previous one returned and its result was read to the last
// row.  Inputs come from the seeded generator; the engine is driven only
// through its public calls, each timed from outside:
//
//   generate   WriteSyntheticNTriples / SyntheticNTriples
//   set-up     BulkLoadNTriplesFile, SaveStoreSnapshot, OpenStoreSnapshot
//   write      TripleStore::Add
//   query      ParseTriAL -> MakeSmartEvaluator()->Eval, or
//              datalog::ParseProgram -> EvalProgram; then the first read
//              of the result (lazy normalize) and a checksum over it
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs three equal
// phases: untraced, with benchmark spans (per-layer self times), and
// with the engine's metrics registry on (counter deltas), and prints
// the per-layer metrics.  The last line of stdout is always one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code
// is 0 only when every result was correct.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/eval.h"
#include "core/parser.h"
#include "core/plan/plan.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/to_trial.h"
#include "loader/bulk_load.h"
#include "loader/ntriples_writer.h"
#include "oracle.h"
#include "storage/segment/store_snapshot.h"
#include "trace.h"
#include "util/metrics.h"
#include "workload.h"

#ifndef TRIALBENCH_BUILD_TYPE
#define TRIALBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TRIALBENCH_COMPILER
#define TRIALBENCH_COMPILER "unknown"
#endif

namespace trialbench {
namespace {

namespace fs = std::filesystem;
using trial::MonotonicNanos;
using trial::Status;
using trial::TripleSet;
using trial::TripleStore;

// Sessions (snapshot opens) per lookup_snapshot run; the session length
// is --seconds divided by this, in every phase.
constexpr int kSessionsPerRun = 12;
// Bulk loads per run of the in-memory workloads; setup_s is their median.
constexpr int kLoadsPerRun = 7;
// Queries per ingest_update round: anchored lookups, then one star.
constexpr int kLookupsPerRound = 20;
// Write batches pre-generated for ingest_update; a longer run reuses
// them from the start (re-adding triples still bumps the store epoch).
constexpr size_t kWritePoolBatches = 256;
// Distinct query texts whose planning time is measured in a traced run.
constexpr size_t kPlanTextsMax = 256;
// Span budget of the traced phase (it ends early when reached).
constexpr size_t kSpanBudget = 300000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // required
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---- statistics ---------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Query latencies in log-spaced buckets 0.1% wide, from 10 ns to about
// 700 s.  Each bucket keeps its count and the sum of its samples, and a
// quantile reads the mean of the bucket holding that rank, so it is a
// measured value, not a bucket edge.  The storage is fixed and zeroed up
// front, so the benchmark's own memory (part of peak_rss_mb) does not
// grow with the query count.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0), sums_(kBuckets, 0.0) {}

  void Add(double ms) {
    const double x = std::max(ms, kMinMs);
    const size_t b = std::min(
        static_cast<size_t>(std::log(x / kMinMs) / std::log(kGrowth)),
        kBuckets - 1);
    ++counts_[b];
    sums_[b] += ms;
    ++n_;
  }

  size_t size() const { return n_; }

  // The nearest-rank quantile's bucket mean.
  double Quantile(double q) const {
    if (n_ == 0) return 0;
    const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n_ - 1) + 0.5);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (rank < seen) return sums_[b] / static_cast<double>(counts_[b]);
    }
    return 0;
  }

 private:
  static constexpr double kMinMs = 1e-5;
  static constexpr double kGrowth = 1.001;
  static constexpr size_t kBuckets = 25000;
  std::vector<uint64_t> counts_;
  std::vector<double> sums_;
  size_t n_ = 0;
};

// The highest of a few fixed percentiles that still has at least ten
// samples beyond it.  Fixed levels keep the reported percentile the
// same when the sample count moves a little between runs.
struct Tail {
  double percentile = 50;
  double value = 0;
  size_t beyond = 0;
};

Tail TailLatency(const LatencyHistogram& h) {
  Tail t;
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(h.size()) * (1 - p / 100);
    if (beyond >= 10 || p == 50.0) {
      t.percentile = p;
      t.value = h.Quantile(p / 100);
      t.beyond = static_cast<size_t>(beyond);
      return t;
    }
  }
  return t;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// ---- registry deltas ----------------------------------------------------

struct RegistryView {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;  // count, sum

  static RegistryView Take() {
    RegistryView v;
    trial::MetricsSnapshot s = trial::MetricsRegistry::Global().Snapshot();
    for (const auto& c : s.counters) v.counters[c.name] = c.value;
    for (const auto& h : s.histograms) {
      v.histograms[h.name] = {static_cast<double>(h.count),
                              static_cast<double>(h.sum)};
    }
    return v;
  }

  RegistryView Minus(const RegistryView& before) const {
    RegistryView d = *this;
    for (auto& [name, value] : d.counters) {
      auto it = before.counters.find(name);
      if (it != before.counters.end()) value -= it->second;
    }
    for (auto& [name, value] : d.histograms) {
      auto it = before.histograms.find(name);
      if (it == before.histograms.end()) continue;
      value.first -= it->second.first;
      value.second -= it->second.second;
    }
    return d;
  }

  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double Count(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? 0 : it->second.first;
  }
  double Sum(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? 0 : it->second.second;
  }
  double Mean(const std::string& name) const {
    return Ratio(Sum(name), Count(name));
  }
};

// ---- the run ------------------------------------------------------------

// One measuring phase: how long, and which instruments are on.
struct PhaseSpec {
  bool spans;
  bool registry;
  double seconds;
};

// What one phase measured.
struct Samples {
  LatencyHistogram query_ms;
  std::map<std::string, LatencyHistogram> class_ms;
  std::vector<double> cold_ms;
  std::vector<double> write_ms;
  uint64_t wall_ns = 0;   // phase wall time ...
  uint64_t check_ns = 0;  // ... of which result checking and input prep
  std::vector<std::string> plan_texts;
  double plan_ns = 0;     // mean PlanExpr time over plan_texts

  double QueryWallSeconds() const {
    return static_cast<double>(wall_ns - std::min(wall_ns, check_ns)) / 1e9;
  }
  void Note(const std::string& cls, uint64_t ns) {
    const double ms = static_cast<double>(ns) / 1e6;
    query_ms.Add(ms);
    class_ms[cls].Add(ms);
  }
  void NoteText(const std::string& text) {
    if (plan_texts.size() < kPlanTextsMax &&
        std::find(plan_texts.begin(), plan_texts.end(), text) ==
            plan_texts.end()) {
      plan_texts.push_back(text);
    }
  }
};

struct QueryRun {
  Status status = Status::OK();
  TripleSet result;
  uint64_t checksum = 0;
  uint64_t ns = 0;
};

// Shared state of one benchmark process.
class Bench {
 public:
  explicit Bench(Options o) : opt(std::move(o)) {}

  Options opt;
  SpanRecorder spans;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> setup_cold_ms;  // cold queries run during set-up
  std::vector<trial::BulkLoadStats> loads;
  double save_s = 0;
  uint64_t snapshot_bytes = 0;
  size_t dataset_triples = 0;
  size_t dataset_objects = 0;
  size_t loader_threads = 0;
  size_t query_threads = 0;
  std::vector<Metric> workload_metrics;  // workload-specific extras
  uint64_t append_ns = 0;  // time in TripleStore::Add (ingest_update)
  size_t appended = 0;     // triples added

  std::string WorkPath(const std::string& leaf) const {
    return (fs::path(opt.out_dir) /
            ("work-" + std::to_string(getpid())) / leaf).string();
  }

  void Fail(const std::string& what) {
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "trialbench: FAILED %s\n", what.c_str());
  }

  void Verify(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }

  // Runs one query, parse to last row; counts it as attempted and as
  // failed on a non-OK status.  Result checks are the caller's.
  QueryRun Query(const std::string& text, bool is_datalog,
                 const TripleStore& store, trial::Evaluator& ev,
                 const trial::ExecLimits& limits) {
    const uint64_t qid = ++next_qid_;
    QueryRun q;
    ++attempted;
    const uint64_t t0 = MonotonicNanos();
    {
      ScopedSpan root(&spans, "query", qid);
      std::optional<trial::Result<TripleSet>> r;
      if (is_datalog) {
        std::optional<trial::Result<trial::datalog::Program>> prog;
        {
          ScopedSpan s(&spans, "datalog.parse", qid);
          prog.emplace(trial::datalog::ParseProgram(text));
        }
        if (prog->ok()) {
          trial::datalog::DatalogOptions dopts;
          static_cast<trial::ExecLimits&>(dopts) = limits;
          ScopedSpan s(&spans, "datalog.eval", qid);
          r.emplace(trial::datalog::EvalProgram(**prog, store, "ans", dopts));
        } else {
          r.emplace(prog->status());
        }
      } else {
        std::optional<trial::Result<trial::ExprPtr>> e;
        {
          ScopedSpan s(&spans, "parser.parse", qid);
          e.emplace(trial::ParseTriAL(text, &store));
        }
        if (e->ok()) {
          ScopedSpan s(&spans, "eval", qid);
          r.emplace(ev.Eval(**e, store));
        } else {
          r.emplace(e->status());
        }
      }
      if (r->ok()) {
        q.result = std::move(**r);
        {
          ScopedSpan s(&spans, "set.normalize", qid);
          (void)q.result.triples();
        }
        ScopedSpan s(&spans, "bench.consume", qid);
        uint64_t h = 0;
        for (const trial::Triple& t : q.result) h = ChecksumStep(h, t);
        q.checksum = h;
      } else {
        q.status = r->status();
      }
    }
    q.ns = MonotonicNanos() - t0;
    if (!q.status.ok()) Fail(text + ": " + q.status.ToString());
    return q;
  }

 private:
  uint64_t next_qid_ = 0;
};

trial::EvalOptions QueryOptions(size_t threads) {
  trial::EvalOptions o;
  o.exec.num_threads = threads;
  return o;
}

// Mean PlanExpr time over `texts`, each planned once after an untimed
// parse.  Runs outside the query loop.
double MeanPlanNs(const std::vector<std::string>& texts,
                  const TripleStore& store) {
  uint64_t total = 0;
  size_t n = 0;
  for (const std::string& text : texts) {
    trial::Result<trial::ExprPtr> e = trial::ParseTriAL(text, &store);
    if (!e.ok()) continue;
    const uint64_t t0 = MonotonicNanos();
    trial::plan::PlanPtr p = trial::plan::PlanExpr(*e, store);
    total += MonotonicNanos() - t0;
    ++n;
  }
  return Ratio(static_cast<double>(total), static_cast<double>(n));
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Status Setup() = 0;
  virtual void RunPhase(const PhaseSpec& spec, Samples* out) = 0;
  // Runs after the last phase: checks deferred past the measurement.
  virtual void Finish() {}
};

// Loads the N-Triples file `path` kLoadsPerRun times (the median is
// setup_s) and returns the last store.  `after_load` runs on each fresh
// store, outside the set-up time.
trial::Result<std::unique_ptr<TripleStore>> RepeatedLoad(
    Bench& b, const std::string& path,
    const std::function<void(const TripleStore&)>& after_load) {
  trial::BulkLoadOptions lo;
  lo.num_threads = b.loader_threads;
  std::unique_ptr<TripleStore> store;
  for (int k = 0; k < kLoadsPerRun; ++k) {
    store.reset();
    trial::BulkLoadStats stats;
    const uint64_t t0 = MonotonicNanos();
    std::optional<trial::Result<TripleStore>> r;
    {
      ScopedSpan s(&b.spans, "setup.load", 0);
      r.emplace(trial::BulkLoadNTriplesFile(path, lo, &stats));
    }
    const uint64_t ns = MonotonicNanos() - t0;
    if (!r->ok()) return r->status();
    b.setup_s.push_back(static_cast<double>(ns) / 1e9);
    b.loads.push_back(stats);
    store = std::make_unique<TripleStore>(std::move(**r));
    if (after_load) after_load(*store);
  }
  b.dataset_triples = store->TotalTriples();
  b.dataset_objects = store->NumObjects();
  return store;
}

// ---- lookup_snapshot ------------------------------------------------------
//
// Interactive anchored lookups on an mmap-opened snapshot.  Each session
// opens the snapshot, answers a cold hop2, then streams warm queries.
// A helper process builds the snapshot (generate, bulk load, save) and,
// after the run, checks every result against the oracle on its own open
// of the snapshot.  The serving process only appends (template, anchor,
// rows, checksum) records to a file, so its peak RSS is that of serving
// from the snapshot, without the builder's or the oracle's memory.

struct PrepReport {
  int ok = 0;
  trial::BulkLoadStats load;
  double save_s = 0;
  uint64_t snapshot_bytes = 0;
  char error[256] = {};
};

// One served query, as the helper checks it.
struct CheckRecord {
  uint32_t anchor;  // AnchorPicker index
  uint32_t tmpl;    // Template
  uint64_t rows;
  uint64_t checksum;
};

struct CheckReport {
  uint64_t checked = 0;
  uint64_t failed = 0;
  char first_failure[256] = {};
};

bool ReadFull(int fd, void* buf, size_t size) {
  char* dst = static_cast<char*>(buf);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = read(fd, dst + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

bool WriteFull(int fd, const void* buf, size_t size) {
  const char* src = static_cast<const char*>(buf);
  size_t put = 0;
  while (put < size) {
    const ssize_t n = write(fd, src + put, size - put);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    put += static_cast<size_t>(n);
  }
  return true;
}

class LookupSnapshot : public Workload {
 public:
  explicit LookupSnapshot(Bench& b)
      : b_(b), rng_(b.opt.seed * 0x2545f4914f6cdd1dULL + 11) {}

  ~LookupSnapshot() override {
    if (records_) std::fclose(records_);
    StopHelper();
  }

  Status Setup() override {
    b_.loader_threads = kParallelThreads;
    b_.query_threads = 1;
    snap_ = b_.WorkPath("store.trial");
    records_path_ = b_.WorkPath("checks.bin");
    nt_ = b_.WorkPath("input.nt");
    std::error_code ec;
    fs::create_directories(fs::path(snap_).parent_path(), ec);
    TRIAL_RETURN_IF_ERROR(StartHelper());
    PrepReport rep;
    if (!ReadFull(from_helper_, &rep, sizeof(rep))) {
      return Status::Internal("snapshot preparation process failed");
    }
    if (!rep.ok) return Status::Internal(rep.error);
    b_.loads.push_back(rep.load);
    b_.save_s = rep.save_s;
    b_.snapshot_bytes = rep.snapshot_bytes;
    {
      // Dictionary lookups only: no permutation is decoded here.
      trial::Result<TripleStore> probe = trial::OpenStoreSnapshot(snap_);
      if (!probe.ok()) return probe.status();
      anchors_ = std::make_unique<AnchorPicker>(*probe);
      b_.dataset_triples = probe->TotalTriples();
      b_.dataset_objects = probe->NumObjects();
    }
    if (anchors_->size() == 0) return Status::Internal("no anchor subjects");
    records_ = std::fopen(records_path_.c_str(), "wb");
    if (!records_) return Status::Internal("cannot create " + records_path_);
    b_.workload_metrics.push_back(
        {"store_bytes_per_triple",
         Ratio(static_cast<double>(rep.snapshot_bytes),
               static_cast<double>(b_.dataset_triples)),
         "B"});
    return Status::OK();
  }

  void RunPhase(const PhaseSpec& spec, Samples* out) override {
    const double session_s = b_.opt.seconds / kSessionsPerRun;
    const uint64_t start = MonotonicNanos();
    const uint64_t deadline = start + static_cast<uint64_t>(spec.seconds * 1e9);
    do {
      Session(spec, std::min(deadline, MonotonicNanos() +
                                           static_cast<uint64_t>(session_s * 1e9)),
              out);
    } while (MonotonicNanos() < deadline &&
             !(spec.spans && b_.spans.size() >= kSpanBudget));
    out->wall_ns = MonotonicNanos() - start;
  }

  // Hands the records to the helper and takes its verdict.
  void Finish() override {
    const bool flushed = std::fclose(records_) == 0;
    records_ = nullptr;
    CheckReport rep;
    const char go = 'v';
    const bool ok = flushed && WriteFull(to_helper_, &go, 1) &&
                    ReadFull(from_helper_, &rep, sizeof(rep));
    StopHelper();
    b_.Verify(ok && rep.checked == records_written_,
              "result check process: " + std::to_string(rep.checked) + " of " +
                  std::to_string(records_written_) + " results checked");
    for (uint64_t i = 0; i < rep.failed; ++i) {
      b_.Fail(i == 0 ? std::string(rep.first_failure) : "wrong result");
    }
  }

 private:
  Status StartHelper() {
    int down[2], up[2];
    if (pipe(down) != 0) return Status::Internal("pipe failed");
    if (pipe(up) != 0) {
      close(down[0]);
      close(down[1]);
      return Status::Internal("pipe failed");
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) return Status::Internal("fork failed");
    if (pid == 0) {
      close(down[1]);
      close(up[0]);
      _exit(HelperMain(down[0], up[1]));
    }
    close(down[0]);
    close(up[1]);
    // A helper that died shows as a failed check, not as a killed run.
    std::signal(SIGPIPE, SIG_IGN);
    helper_ = pid;
    to_helper_ = down[1];
    from_helper_ = up[0];
    return Status::OK();
  }

  // Closing the command pipe without a request ends the helper unused.
  void StopHelper() {
    if (to_helper_ >= 0) close(to_helper_);
    if (from_helper_ >= 0) close(from_helper_);
    to_helper_ = from_helper_ = -1;
    if (helper_ > 0) {
      int wstatus = 0;
      while (waitpid(helper_, &wstatus, 0) < 0 && errno == EINTR) {
      }
      helper_ = -1;
    }
  }

  // The helper process: prepare the snapshot, then wait for the
  // serving process to finish and check its records.
  int HelperMain(int in, int out) {
    PrepReport r;
    Status st = Prepare(&r);
    if (!st.ok()) {
      std::snprintf(r.error, sizeof(r.error), "%s", st.ToString().c_str());
    }
    r.ok = st.ok() ? 1 : 0;
    if (!WriteFull(out, &r, sizeof(r)) || !st.ok()) return 1;
    char go = 0;
    if (!ReadFull(in, &go, 1)) return 0;  // the run ended early
    CheckReport rep;
    CheckRecords(&rep);
    return WriteFull(out, &rep, sizeof(rep)) ? 0 : 1;
  }

  Status Prepare(PrepReport* r) {
    const std::string& nt = nt_;
    TRIAL_RETURN_IF_ERROR(trial::WriteSyntheticNTriples(
        nt, GeneratorOptions(b_.opt.seed, kDefaultTriples)));
    trial::BulkLoadOptions lo;
    lo.num_threads = kParallelThreads;
    trial::Result<TripleStore> store =
        trial::BulkLoadNTriplesFile(nt, lo, &r->load);
    std::error_code ec;
    fs::remove(nt, ec);
    if (!store.ok()) return store.status();
    trial::SaveSnapshotStats ss;
    TRIAL_RETURN_IF_ERROR(trial::SaveStoreSnapshot(*store, snap_, &ss));
    r->save_s = ss.seconds;
    r->snapshot_bytes = ss.bytes;
    return Status::OK();
  }

  // Compares every record with the oracle on an own open of the
  // snapshot.  Repeated (template, anchor) pairs reuse one oracle run.
  void CheckRecords(CheckReport* rep) {
    auto fail = [rep](const std::string& what) {
      if (rep->failed++ == 0) {
        std::snprintf(rep->first_failure, sizeof(rep->first_failure), "%s",
                      what.c_str());
      }
    };
    trial::Result<TripleStore> store = trial::OpenStoreSnapshot(snap_);
    std::FILE* f = std::fopen(records_path_.c_str(), "rb");
    if (!store.ok() || !f) {
      if (f) std::fclose(f);
      fail("result check process cannot read its inputs");
      return;
    }
    const AnchorPicker anchors(*store);
    const TripleSet& e = *store->FindRelation("E");
    std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> expected;
    std::vector<CheckRecord> buf(4096);
    size_t n;
    while ((n = std::fread(buf.data(), sizeof(CheckRecord), buf.size(), f)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        const CheckRecord& c = buf[i];
        ++rep->checked;
        if (c.anchor >= anchors.size() || c.tmpl >= kNumTemplates) {
          fail("corrupt check record");
          continue;
        }
        const Template t = static_cast<Template>(c.tmpl);
        const uint64_t key = (uint64_t{c.anchor} << 2) | c.tmpl;
        auto it = expected.find(key);
        if (it == expected.end()) {
          const std::vector<trial::Triple> want = TemplateOracle(
              e, t, store->FindObject(anchors.at(c.anchor)));
          it = expected.emplace(key, std::make_pair(uint64_t{want.size()},
                                                    Checksum(want)))
                   .first;
        }
        if (it->second != std::make_pair(c.rows, c.checksum)) {
          fail("wrong result: " + TemplateQuery(t, anchors.at(c.anchor)));
        }
      }
    }
    std::fclose(f);
  }

  void Session(const PhaseSpec& spec, uint64_t end, Samples* out) {
    const uint64_t t0 = MonotonicNanos();
    std::optional<trial::Result<TripleStore>> opened;
    {
      ScopedSpan s(&b_.spans, "setup.open", 0);
      opened.emplace(trial::OpenStoreSnapshot(snap_));
    }
    const uint64_t open_ns = MonotonicNanos() - t0;
    ++b_.attempted;
    if (!opened->ok()) {
      b_.Fail("open: " + opened->status().ToString());
      return;
    }
    b_.setup_s.push_back(static_cast<double>(open_ns) / 1e9);
    const TripleStore& store = **opened;
    std::unique_ptr<trial::Evaluator> ev =
        trial::MakeSmartEvaluator(QueryOptions(1));
    bool first = true;
    while (first || MonotonicNanos() < end) {
      const Template t =
          first ? Template::kHop2
                : static_cast<Template>(rng_.Below(kNumTemplates));
      const size_t anchor = anchors_->PickIndex(&rng_);
      const std::string text = TemplateQuery(t, anchors_->at(anchor));
      QueryRun q = b_.Query(text, false, store, *ev, QueryOptions(1));
      out->Note(TemplateName(t), q.ns);
      if (first) {
        out->cold_ms.push_back(static_cast<double>(open_ns + q.ns) / 1e6);
      }
      first = false;
      if (spec.spans) out->NoteText(text);
      if (q.status.ok()) {
        const uint64_t c0 = MonotonicNanos();
        const CheckRecord rec{static_cast<uint32_t>(anchor),
                              static_cast<uint32_t>(t), q.result.size(),
                              q.checksum};
        records_written_ += std::fwrite(&rec, sizeof(rec), 1, records_);
        out->check_ns += MonotonicNanos() - c0;
      }
      if (spec.spans && b_.spans.size() >= kSpanBudget) break;
    }
    if (spec.spans) out->plan_ns = MeanPlanNs(out->plan_texts, store);
  }

  Bench& b_;
  trial::Rng rng_;
  // Paths are fixed before the fork: WorkPath names the serving process.
  std::string snap_;
  std::string nt_;
  std::string records_path_;
  std::FILE* records_ = nullptr;
  uint64_t records_written_ = 0;
  std::unique_ptr<AnchorPicker> anchors_;
  pid_t helper_ = -1;
  int to_helper_ = -1;
  int from_helper_ = -1;
};

// ---- analytic_parallel ---------------------------------------------------
//
// Large-output analytics on the in-memory store, 4 loader and 4 query
// threads: the fixed list runs pass after pass.  Every result is
// compared with a checksum from one untimed 1-thread evaluation, and
// the list is cross-checked against the naive engine on a small store.

class AnalyticParallel : public Workload {
 public:
  explicit AnalyticParallel(Bench& b) : b_(b) {}

  Status Setup() override {
    b_.loader_threads = kParallelThreads;
    b_.query_threads = kParallelThreads;
    const std::string nt = b_.WorkPath("input.nt");
    std::error_code ec;
    fs::create_directories(fs::path(nt).parent_path(), ec);
    TRIAL_RETURN_IF_ERROR(trial::WriteSyntheticNTriples(
        nt, GeneratorOptions(b_.opt.seed, kDefaultTriples)));
    std::vector<uint64_t> cold_sums;
    trial::Result<std::unique_ptr<TripleStore>> store =
        RepeatedLoad(b_, nt, [&](const TripleStore& s) {
          // The first query on a freshly loaded store pays the lazy
          // permutation builds.
          std::unique_ptr<trial::Evaluator> ev =
              trial::MakeSmartEvaluator(limits_);
          std::vector<AnalyticQuery> list = AnalyticList(s);
          QueryRun q = b_.Query(list[0].text, false, s, *ev, limits_);
          b_.setup_cold_ms.push_back(static_cast<double>(q.ns) / 1e6);
          cold_sums.push_back(q.checksum);
        });
    fs::remove(nt, ec);
    if (!store.ok()) return store.status();
    store_ = std::move(*store);
    list_ = AnalyticList(*store_);

    std::unique_ptr<trial::Evaluator> serial =
        trial::MakeSmartEvaluator(QueryOptions(1));
    for (const AnalyticQuery& a : list_) {
      QueryRun q = b_.Query(a.text, a.datalog, *store_, *serial, QueryOptions(1));
      reference_.push_back(q.checksum);
      reference_rows_.push_back(q.result.size());
    }
    for (uint64_t c : cold_sums) b_.Verify(c == reference_[0], "cold compose checksum");
    NaiveAgreement();
    ev_ = trial::MakeSmartEvaluator(limits_);
    return Status::OK();
  }

  void RunPhase(const PhaseSpec& spec, Samples* out) override {
    const uint64_t start = MonotonicNanos();
    const uint64_t deadline = start + static_cast<uint64_t>(spec.seconds * 1e9);
    do {
      for (size_t i = 0; i < list_.size(); ++i) {
        const AnalyticQuery& a = list_[i];
        QueryRun q = b_.Query(a.text, a.datalog, *store_, *ev_, limits_);
        out->Note(a.name, q.ns);
        if (spec.spans && !a.datalog) out->NoteText(a.text);
        if (q.status.ok() && (q.checksum != reference_[i] ||
                              q.result.size() != reference_rows_[i])) {
          b_.Fail("checksum mismatch: " + a.name);
        }
      }
    } while (MonotonicNanos() < deadline);
    out->wall_ns = MonotonicNanos() - start;
    if (spec.spans) out->plan_ns = MeanPlanNs(out->plan_texts, *store_);
  }

 private:
  // Smart engine (4 threads) against the naive engine, query by query,
  // on a 2^12-triple store from the same generator.  Datalog runs
  // through EvalProgram on one side and its TriAL translation on the
  // naive engine on the other.
  void NaiveAgreement() {
    trial::BulkLoadOptions lo;
    lo.num_threads = 1;
    trial::Result<TripleStore> small = trial::BulkLoadNTriples(
        trial::SyntheticNTriples(
            GeneratorOptions(b_.opt.seed, kNaiveCheckTriples)),
        lo);
    if (!small.ok()) {
      b_.Verify(false, "small store load: " + small.status().ToString());
      return;
    }
    std::unique_ptr<trial::Evaluator> naive = trial::MakeNaiveEvaluator();
    for (const AnalyticQuery& a : AnalyticList(*small)) {
      std::unique_ptr<trial::Evaluator> smart =
          trial::MakeSmartEvaluator(limits_);
      QueryRun fast = b_.Query(a.text, a.datalog, *small, *smart, limits_);
      trial::Result<trial::ExprPtr> e = trial::Status::Internal("unset");
      if (a.datalog) {
        trial::Result<trial::datalog::Program> prog =
            trial::datalog::ParseProgram(a.text);
        e = prog.ok() ? trial::datalog::ProgramToTriAL(*prog, *small)
                      : trial::Result<trial::ExprPtr>(prog.status());
      } else {
        e = trial::ParseTriAL(a.text, &*small);
      }
      trial::Result<TripleSet> slow =
          e.ok() ? naive->Eval(*e, *small) : trial::Result<TripleSet>(e.status());
      b_.Verify(fast.status.ok() && slow.ok() && fast.result == *slow,
                "naive agreement: " + a.name);
    }
  }

  Bench& b_;
  trial::EvalOptions limits_ = QueryOptions(kParallelThreads);
  std::unique_ptr<TripleStore> store_;
  std::vector<AnalyticQuery> list_;
  std::vector<uint64_t> reference_;
  std::vector<size_t> reference_rows_;
  std::unique_ptr<trial::Evaluator> ev_;
};

// ---- ingest_update -------------------------------------------------------
//
// Writes beside reads on the bulk-loaded in-memory store.  Each round
// adds one batch of generator triples through TripleStore::Add, then
// runs 20 anchored lookups and one star_p300.  Every write bumps the
// store epoch, so the first query after it pays the re-normalize and
// whatever the caches lost.

class IngestUpdate : public Workload {
 public:
  explicit IngestUpdate(Bench& b)
      : b_(b), rng_(b.opt.seed * 0x9e3779b97f4a7c15ULL + 29) {}

  Status Setup() override {
    b_.loader_threads = kParallelThreads;
    b_.query_threads = 1;
    const std::string nt = b_.WorkPath("input.nt");
    std::error_code ec;
    fs::create_directories(fs::path(nt).parent_path(), ec);
    TRIAL_RETURN_IF_ERROR(trial::WriteSyntheticNTriples(
        nt, GeneratorOptions(b_.opt.seed, kDefaultTriples)));
    trial::Result<std::unique_ptr<TripleStore>> store =
        RepeatedLoad(b_, nt, nullptr);
    fs::remove(nt, ec);
    if (!store.ok()) return store.status();
    store_ = std::move(*store);
    anchors_ = std::make_unique<AnchorPicker>(*store_);
    if (anchors_->size() == 0) return Status::Internal("no anchor subjects");
    star_predicate_ = PresentPredicate(*store_, 300);
    star_text_ = StarQuery(star_predicate_);
    pool_ = trial::SyntheticNTriples(
        WritePoolOptions(b_.opt.seed, kWritePoolBatches * kWriteBatch));
    size_t line = 0;
    batch_starts_.push_back(0);
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (pool_[i] == '\n' && ++line % kWriteBatch == 0) {
        batch_starts_.push_back(i + 1);
      }
    }
    ev_ = trial::MakeSmartEvaluator(QueryOptions(1));
    return Status::OK();
  }

  void RunPhase(const PhaseSpec& spec, Samples* out) override {
    const uint64_t start = MonotonicNanos();
    const uint64_t deadline = start + static_cast<uint64_t>(spec.seconds * 1e9);
    do {
      Round(spec, out);
    } while (MonotonicNanos() < deadline &&
             !(spec.spans && b_.spans.size() >= kSpanBudget));
    out->wall_ns = MonotonicNanos() - start;
    if (spec.spans) out->plan_ns = MeanPlanNs(out->plan_texts, *store_);
  }

 private:
  void Round(const PhaseSpec& spec, Samples* out) {
    const size_t nb = batch_starts_.size() - 1;
    const size_t k = round_++ % nb;
    const uint64_t p0 = MonotonicNanos();
    std::vector<std::array<std::string, 3>> batch = ParseNameTriples(
        std::string_view(pool_).substr(batch_starts_[k],
                                       batch_starts_[k + 1] - batch_starts_[k]));
    out->check_ns += MonotonicNanos() - p0;
    const uint64_t w0 = MonotonicNanos();
    {
      ScopedSpan s(&b_.spans, "write.batch", 0);
      for (const auto& t : batch) store_->Add("E", t[0], t[1], t[2]);
    }
    const uint64_t write_ns = MonotonicNanos() - w0;
    ++b_.attempted;
    out->write_ms.push_back(static_cast<double>(write_ns) / 1e6);
    b_.append_ns += write_ns;
    b_.appended += batch.size();

    for (int i = 0; i <= kLookupsPerRound; ++i) {
      const bool star = i == kLookupsPerRound;
      const Template t = static_cast<Template>(rng_.Below(kNumTemplates));
      const std::string anchor = star ? star_predicate_ : anchors_->Pick(&rng_);
      const std::string text = star ? star_text_ : TemplateQuery(t, anchor);
      QueryRun q = b_.Query(text, false, *store_, *ev_, QueryOptions(1));
      out->Note(star ? "star_p300" : TemplateName(t), q.ns);
      if (i == 0) out->cold_ms.push_back(static_cast<double>(q.ns) / 1e6);
      if (spec.spans) out->NoteText(text);
      if (!q.status.ok()) continue;
      const uint64_t c0 = MonotonicNanos();
      const TripleSet& e = *store_->FindRelation("E");
      const trial::ObjId id = store_->FindObject(anchor);
      const bool ok = SameRows(q.result, star ? StarOracle(e, id)
                                              : TemplateOracle(e, t, id));
      out->check_ns += MonotonicNanos() - c0;
      if (!ok) b_.Fail("wrong result: " + text);
    }
  }

  Bench& b_;
  trial::Rng rng_;
  std::unique_ptr<TripleStore> store_;
  std::unique_ptr<AnchorPicker> anchors_;
  std::string star_predicate_;
  std::string star_text_;
  std::string pool_;
  std::vector<size_t> batch_starts_;
  std::unique_ptr<trial::Evaluator> ev_;
  size_t round_ = 0;
};

// ---- reporting -----------------------------------------------------------

std::string MetaJson(const Bench& b) {
  const trial::BulkLoadStats* load = b.loads.empty() ? nullptr : &b.loads.back();
  std::string m = "{";
  auto add = [&m](const std::string& k, const std::string& v) {
    if (m.size() > 1) m += ", ";
    m += JsonString(k) + ": " + v;
  };
  add("workload", JsonString(b.opt.workload));
  add("seed", std::to_string(b.opt.seed));
  add("seconds", JsonNumber(b.opt.seconds));
  add("trace", b.opt.trace ? "1" : "0");
  add("nproc", std::to_string(std::thread::hardware_concurrency()));
  add("build_type", JsonString(TRIALBENCH_BUILD_TYPE));
  add("compiler", JsonString(TRIALBENCH_COMPILER));
  add("git_sha", JsonString(b.opt.git_sha));
  add("source_sha256", JsonString(b.opt.source_sha));
  add("generator_triples", std::to_string(kDefaultTriples));
  add("dataset_triples", std::to_string(b.dataset_triples));
  add("dataset_objects", std::to_string(b.dataset_objects));
  add("input_bytes", std::to_string(load ? load->bytes : 0));
  add("snapshot_bytes", std::to_string(b.snapshot_bytes));
  add("loader_threads", std::to_string(b.loader_threads));
  add("query_threads", std::to_string(b.query_threads));
  return m + "}";
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += JsonString(ms[i].name) + ": {\"value\": " + JsonNumber(ms[i].value) +
         ", \"unit\": " + JsonString(ms[i].unit) + "}";
  }
  return s + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("# %s\n", title);
  for (const Metric& m : ms) {
    std::printf("%-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::vector<Metric> EndToEnd(const Bench& b, const Samples& u, Tail* tail) {
  std::vector<double> cold = b.setup_cold_ms;
  cold.insert(cold.end(), u.cold_ms.begin(), u.cold_ms.end());
  *tail = TailLatency(u.query_ms);
  return {
      {"setup_s", Median(b.setup_s), "s"},
      {"query_p50_ms", u.query_ms.Quantile(0.5), "ms"},
      {"query_tail_ms", tail->value, "ms"},
      {"queries_per_s",
       Ratio(static_cast<double>(u.query_ms.size()), u.QueryWallSeconds()),
       "1/s"},
      {"cold_query_ms", Median(cold), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// Workload-specific end-to-end figures and per-class latencies: printed
// and written to the report, but not part of the final JSON line,
// whose metric set is the same for every workload.
std::vector<Metric> Extras(const Bench& b, const Samples& u, const Tail& tail) {
  std::vector<Metric> x = {
      {"failed_frac",
       Ratio(static_cast<double>(b.failed), static_cast<double>(b.attempted)),
       "frac"},
      {"query_tail_percentile", tail.percentile, "pct"},
      {"query_tail_beyond", static_cast<double>(tail.beyond), "count"},
      {"query_samples", static_cast<double>(u.query_ms.size()), "count"},
  };
  if (!u.write_ms.empty()) x.push_back({"write_p50_ms", Median(u.write_ms), "ms"});
  x.insert(x.end(), b.workload_metrics.begin(), b.workload_metrics.end());
  for (const auto& [cls, v] : u.class_ms) {
    x.push_back({"q." + cls + "_ms", v.Quantile(0.5), "ms"});
  }
  return x;
}

// Per-layer metrics of a traced run.  `layer` holds the metrics every
// workload produces (the final JSON line), `extra` the ones only some
// workloads reach.  Query-layer self times come from the span phase,
// whose spans start at index `span_from`; set-up and write spans from
// the whole run.  Registry counts that grow with the number of queries
// are given per query (or per Datalog program) of the registry phase.
void PerLayer(const Bench& b, const Samples& u, const Samples& s,
              const Samples& r, size_t span_from, const RegistryView& reg,
              std::vector<Metric>* layer, std::vector<Metric>* extra) {
  std::vector<double> read, parse, merge, rest;
  for (const trial::BulkLoadStats& l : b.loads) {
    read.push_back(l.read_seconds);
    parse.push_back(l.parse_seconds);
    merge.push_back(l.merge_seconds);
    rest.push_back(l.total_seconds - l.read_seconds - l.parse_seconds -
                   l.merge_seconds - l.save_seconds);
  }
  const std::map<std::string, LayerTime> all_spans = b.spans.Layers();
  const std::map<std::string, LayerTime> spans = b.spans.Layers(span_from);
  auto find = [](const std::map<std::string, LayerTime>& m, const char* name) {
    auto it = m.find(name);
    return it == m.end() ? LayerTime{} : it->second;
  };
  auto mean_of = [&](const std::map<std::string, LayerTime>& m,
                     const char* name) {
    const LayerTime l = find(m, name);
    return Ratio(static_cast<double>(l.self_ns), static_cast<double>(l.count));
  };
  auto self_mean = [&](const char* name) { return mean_of(spans, name); };
  auto total = [&](const char* name) {
    return static_cast<double>(find(spans, name).total_ns);
  };
  const double pool_wall_ns =
      static_cast<double>(r.wall_ns) * static_cast<double>(std::max<size_t>(b.query_threads, 1));
  const double plan_hits = reg.Counter("plan_cache.hits");
  const double fb_hits = reg.Counter("feedback.hits");
  const double reach_hits = reg.Counter("reach.index_hits");
  const double reach_builds = reg.Counter("reach.index_builds");
  const double result_rows = reg.Sum("exec.result_rows");
  const double queries = static_cast<double>(r.query_ms.size());
  const double programs = reg.Counter("datalog.programs");

  *layer = {
      {"loader.read_s", Median(read), "s"},
      {"loader.parse_s", Median(parse), "s"},
      {"loader.merge_s", Median(merge), "s"},
      {"loader.unattributed_s", Median(rest), "s"},
      {"parser.parse_ns", self_mean("parser.parse"), "ns"},
      {"plan.plan_ns", s.plan_ns, "ns"},
      {"plan_cache.hit_ratio", Ratio(plan_hits, plan_hits + reg.Counter("plan_cache.misses")), "frac"},
      {"exec.eval_ns", self_mean("eval"), "ns"},
      {"exec.query_ns", reg.Mean("exec.query_ns"), "ns"},
      {"exec.result_rows", reg.Mean("exec.result_rows"), "rows"},
      {"set.normalize_ns", self_mean("set.normalize"), "ns"},
      {"set.normalize_share", Ratio(total("set.normalize"), total("query")), "frac"},
      {"bench.consume_ns", self_mean("bench.consume"), "ns"},
      {"segment.decodes", reg.Counter("segment.decodes"), "count"},
      {"segment.decode_bytes", reg.Counter("segment.decode_bytes"), "B"},
      {"segment.decode_bytes_per_row", Ratio(reg.Counter("segment.decode_bytes"), result_rows), "B/row"},
      {"reach.index_builds", Ratio(reach_builds, queries), "1/query"},
      {"reach.index_hit_ratio", Ratio(reach_hits, reach_hits + reach_builds), "frac"},
      {"datalog.fixpoint_rounds", Ratio(reg.Counter("datalog.fixpoint_rounds"), programs), "1/program"},
      {"datalog.derived_rows", Ratio(reg.Sum("datalog.derived_rows"), programs), "rows/program"},
      {"pool.tasks", Ratio(reg.Counter("pool.tasks"), queries), "1/query"},
      {"pool.inline_runs", Ratio(reg.Counter("pool.inline_runs"), queries), "1/query"},
      {"pool.busy_frac", Ratio(reg.Sum("pool.task_ns"), pool_wall_ns), "frac"},
      {"trace.unattributed_frac", Ratio(static_cast<double>(find(spans, "query").self_ns), total("query")), "frac"},
      {"trace.overhead_frac", Ratio(s.query_ms.Quantile(0.5), u.query_ms.Quantile(0.5)) - 1, "frac"},
  };
  // Constant in this benchmark: static mode never consults the feedback
  // cache or re-plans, and a correct run has no query errors.
  *extra = {
      {"feedback.hit_ratio", Ratio(fb_hits, fb_hits + reg.Counter("feedback.misses")), "frac"},
      {"exec.query_errors", reg.Counter("exec.query_errors"), "count"},
      {"exec.replans", reg.Counter("exec.replans"), "count"},
      {"datalog.parse_ns", self_mean("datalog.parse"), "ns"},
      {"datalog.eval_ns", self_mean("datalog.eval"), "ns"},
      {"store.append_ns", Ratio(static_cast<double>(b.append_ns), static_cast<double>(b.appended)), "ns"},
      {"segment.open_ns", reg.Mean("snapshot.open_ns"), "ns"},
      {"segment.save_ns", b.save_s * 1e9, "ns"},
      {"segment.decode_ns", reg.Sum("segment.decode_ns"), "ns"},
      {"segment.checksum_ns", reg.Sum("segment.checksum_ns"), "ns"},
      {"reach.index_build_ns", reg.Sum("reach.index_build_ns"), "ns"},
      {"pool.task_ns", reg.Mean("pool.task_ns"), "ns"},
      {"pool.queue_wait_ns", reg.Mean("pool.queue_wait_ns"), "ns"},
      {"setup.load_self_ns", mean_of(all_spans, "setup.load"), "ns"},
      {"setup.open_self_ns", mean_of(all_spans, "setup.open"), "ns"},
      {"write.batch_self_ns", mean_of(all_spans, "write.batch"), "ns"},
      {"trace.spans", static_cast<double>(b.spans.size()), "count"},
      {"trace.registry_queries", reg.Counter("exec.queries"), "count"},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: trialbench --workload "
               "<lookup_snapshot|analytic_parallel|ingest_update> --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] "
               "[--git-sha SHA] [--source-sha SHA]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--out-dir") opt.out_dir = v;
    else if (k == "--git-sha") opt.git_sha = v;
    else if (k == "--source-sha") opt.source_sha = v;
    else return Usage();
  }
  if (argc % 2 == 0 || !(opt.seconds > 0)) return Usage();

  Bench b(opt);
  std::unique_ptr<Workload> w;
  if (opt.workload == "lookup_snapshot") {
    w = std::make_unique<LookupSnapshot>(b);
  } else if (opt.workload == "analytic_parallel") {
    w = std::make_unique<AnalyticParallel>(b);
  } else if (opt.workload == "ingest_update") {
    w = std::make_unique<IngestUpdate>(b);
  } else {
    return Usage();
  }

  b.spans.set_enabled(opt.trace);
  const uint64_t setup_start = MonotonicNanos();
  std::error_code ec;
  if (Status st = w->Setup(); !st.ok()) {
    std::fprintf(stderr, "trialbench: set-up failed: %s\n", st.ToString().c_str());
    fs::remove_all(fs::path(b.WorkPath("")), ec);
    return 2;
  }
  std::fprintf(stderr, "trialbench: %s set-up and checks took %.1f s\n",
               opt.workload.c_str(),
               static_cast<double>(MonotonicNanos() - setup_start) / 1e9);

  std::vector<PhaseSpec> phases;
  if (opt.trace) {
    const double third = opt.seconds / 3;
    phases = {{false, false, third},   // untraced
              {true, false, third},    // benchmark spans
              {false, true, third}};   // engine metrics registry
  } else {
    phases = {{false, false, opt.seconds}};
  }
  std::vector<Samples> samples(phases.size());
  RegistryView before, after;
  size_t span_from = 0;
  for (size_t i = 0; i < phases.size(); ++i) {
    b.spans.set_enabled(phases[i].spans);
    if (phases[i].spans) span_from = b.spans.size();
    trial::SetMetricsEnabled(phases[i].registry);
    if (phases[i].registry) before = RegistryView::Take();
    w->RunPhase(phases[i], &samples[i]);
    if (phases[i].registry) after = RegistryView::Take();
    trial::SetMetricsEnabled(false);
  }
  b.spans.set_enabled(false);
  w->Finish();

  Tail tail;
  const std::vector<Metric> e2e = EndToEnd(b, samples[0], &tail);
  const std::vector<Metric> extras = Extras(b, samples[0], tail);
  std::vector<Metric> layer, layer_extra;
  if (opt.trace) {
    PerLayer(b, samples[0], samples[1], samples[2], span_from,
             after.Minus(before), &layer, &layer_extra);
  }

  const std::string meta = MetaJson(b);
  const std::string stem = (fs::path(opt.out_dir) /
                            (opt.workload + "-seed" + std::to_string(opt.seed) +
                             "-trace" + (opt.trace ? "1" : "0")))
                               .string();
  fs::create_directories(opt.out_dir, ec);
  fs::remove_all(fs::path(b.WorkPath("")), ec);
  if (opt.trace) {
    if (Status st = b.spans.WriteJson(stem + ".spans.json", meta); !st.ok()) {
      std::fprintf(stderr, "trialbench: %s\n", st.ToString().c_str());
    }
  }
  if (std::FILE* f = std::fopen((stem + ".report.json").c_str(), "wb")) {
    std::fprintf(f,
                 "{\"meta\": %s,\n\"end_to_end\": %s,\n\"extras\": %s,\n"
                 "\"per_layer\": %s,\n\"per_layer_extras\": %s}\n",
                 meta.c_str(), MetricsJson(e2e).c_str(),
                 MetricsJson(extras).c_str(), MetricsJson(layer).c_str(),
                 MetricsJson(layer_extra).c_str());
    std::fclose(f);
  }

  PrintMetrics("end-to-end", e2e);
  PrintMetrics("workload extras", extras);
  if (opt.trace) {
    PrintMetrics("per-layer", layer);
    PrintMetrics("per-layer extras", layer_extra);
  }
  std::printf("{\"meta\": %s}\n", meta.c_str());
  const bool correct = b.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", b.attempted, b.failed,
              MetricsJson(opt.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace trialbench

int main(int argc, char** argv) { return trialbench::Main(argc, argv); }
