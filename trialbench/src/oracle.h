// Result checking for the benchmark: expected results composed from
// TripleSet::Lookup (the anchored templates and the σ-star), and an
// order-sensitive checksum over a normalized result.
//
// The oracles never go through the parser, planner or executor, so a
// wrong route, a wrong join kernel or a lost row shows as a mismatch.

#ifndef TRIALBENCH_ORACLE_H_
#define TRIALBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/triple_set.h"
#include "workload.h"

namespace trialbench {

/// Expected rows of template `t` anchored on object `s` over relation
/// `e`, sorted and duplicate-free.  Forward templates probe the SPO
/// base only; rev_hop also probes objects (OSP).
std::vector<trial::Triple> TemplateOracle(const trial::TripleSet& e,
                                          Template t, trial::ObjId s);

/// Expected rows of the any-path star over σ[2=p](e): every (a, b, w)
/// with (a, b, c) in the base and w = c or w reachable from c along
/// base edges.  Sorted and duplicate-free.
std::vector<trial::Triple> StarOracle(const trial::TripleSet& e,
                                      trial::ObjId p);

/// True when `got` holds exactly the rows of `want` (sorted, unique).
bool SameRows(const trial::TripleSet& got,
              const std::vector<trial::Triple>& want);

/// Folds one row into a running checksum (order-sensitive).
inline uint64_t ChecksumStep(uint64_t h, const trial::Triple& t) {
  uint64_t x = (uint64_t{t.s} << 32) ^ (uint64_t{t.p} << 16) ^ t.o;
  x += h + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Checksum of a whole row sequence.
uint64_t Checksum(const std::vector<trial::Triple>& rows);

}  // namespace trialbench

#endif  // TRIALBENCH_ORACLE_H_
