// Workload definitions shared by the benchmark program and its tests:
// the seeded SP²Bench-flavoured generator settings, the anchored query
// templates, the analytic query list and the Zipf anchor picker.
//
// Everything here is a pure function of (seed, store), so two runs with
// the same seed generate byte-identical inputs and send the same
// query sequence.

#ifndef TRIALBENCH_WORKLOAD_H_
#define TRIALBENCH_WORKLOAD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.h"
#include "loader/ntriples_writer.h"
#include "storage/triple_store.h"
#include "util/rng.h"

namespace trialbench {

/// Dataset size of every workload (2^20 generator triples).
inline constexpr size_t kDefaultTriples = size_t{1} << 20;
/// Size of the store the naive-engine agreement check runs on.
inline constexpr size_t kNaiveCheckTriples = size_t{1} << 12;
/// Loader and query threads of the parallel workloads (nproc = 4).
inline constexpr size_t kParallelThreads = 4;
/// Triples written per ingest_update batch.
inline constexpr size_t kWriteBatch = 1000;

/// The generator settings of every workload: `triples` resource lines,
/// predicate skew zipf_p = 1.2, object skew zipf_o = 0.4.  Vocabulary
/// sizes are fixed from kDefaultTriples, so a smaller store draws from
/// the same IRIs.
trial::SyntheticNTriplesOptions GeneratorOptions(uint64_t seed,
                                                 size_t triples);

/// The write-batch pool of ingest_update: the same generator with a
/// derived seed and a vocabulary one eighth larger, so about one IRI in
/// nine is new to the loaded store.
trial::SyntheticNTriplesOptions WritePoolOptions(uint64_t seed,
                                                 size_t triples);

/// The generator's IRI for a predicate / subject of the given rank.
std::string PredicateIri(size_t rank);
std::string SubjectIri(size_t rank);

/// Anchored lookup templates (lookup_snapshot, ingest_update).
enum class Template { kPoint = 0, kHop2, kHop3, kRevHop };
inline constexpr int kNumTemplates = 4;
const char* TemplateName(Template t);

/// The TriAL text of template `t` anchored on subject IRI `subject`.
std::string TemplateQuery(Template t, std::string_view subject);

/// The any-path star over σ[2=p](E) (Procedure 3 shape).
std::string StarQuery(std::string_view predicate);

/// One entry of analytic_parallel's fixed list.
struct AnalyticQuery {
  std::string name;  ///< metric suffix: q.<name>_ms
  std::string text;  ///< TriAL expression, or a Datalog program
  bool datalog = false;
};

/// The analytic list against `store`: compose, chain3, star_p0,
/// star_p30, star_p300, star_same_middle, datalog_reach.  A predicate
/// rank missing from `store` falls back to the nearest lower rank that
/// is present (only the small naive-check store needs this).
std::vector<AnalyticQuery> AnalyticList(const trial::TripleStore& store);

/// The predicate IRI used for rank `rank` in `store` (see AnalyticList).
std::string PresentPredicate(const trial::TripleStore& store, size_t rank);

/// Picks anchor subjects by Zipf(0.8) over the generator's subject
/// ranks that occur in the store, so hot subjects repeat.
class AnchorPicker {
 public:
  explicit AnchorPicker(const trial::TripleStore& store);
  const std::string& Pick(trial::Rng* rng) const { return at(PickIndex(rng)); }
  /// The index of the next anchor; two pickers built from stores with
  /// the same dictionary give the same subject for an index.
  size_t PickIndex(trial::Rng* rng) const { return zipf_.Sample(rng); }
  const std::string& at(size_t i) const { return subjects_[i]; }
  size_t size() const { return subjects_.size(); }

 private:
  std::vector<std::string> subjects_;
  trial::ZipfRankSampler zipf_;
};

/// Parses an N-Triples text into (s, p, o) name triples.
std::vector<std::array<std::string, 3>> ParseNameTriples(
    std::string_view text);

}  // namespace trialbench

#endif  // TRIALBENCH_WORKLOAD_H_
